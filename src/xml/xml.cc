#include "xml/xml.h"

#include <cstring>

#include "obs/stats.h"
#include "support/check.h"

namespace nw {

XmlTokenStream::~XmlTokenStream() {
  // A consumer may stop early (every query dead); the tallies of the
  // consumed prefix still flush so byte counts reflect work done.
  tally_.Flush(pos_);
}

bool XmlTokenStream::Next(TaggedSymbol* out) {
  if (queued_return_ != Alphabet::kNoSymbol) {
    *out = Return(queued_return_);
    queued_return_ = Alphabet::kNoSymbol;
    if (tally_.enabled()) tally_.OnReturn();
    return true;
  }
  const std::string_view text = text_;
  const size_t n = text.size();
  // Offset of the first `c` at or after `from`, or n when there is none.
  auto find = [&](char c, size_t from) -> size_t {
    const void* hit = std::memchr(text.data() + from, c, n - from);
    return hit == nullptr ? n : static_cast<const char*>(hit) - text.data();
  };
  auto read_name = [&](size_t* pos) {
    size_t start = *pos;
    while (*pos < n && byte_class::IsName(text[*pos])) ++*pos;
    return text.substr(start, *pos - start);
  };
  while (pos_ < n) {
    if (text[pos_] == '<') {
      // Comments, doctype declarations, and processing instructions are
      // not elements: skip them wholesale so a '/' or '>' inside (URLs,
      // "a > b") cannot fabricate calls or returns.
      if (pos_ + 1 < n && (text[pos_ + 1] == '!' || text[pos_ + 1] == '?')) {
        if (text.substr(pos_, 4) == "<!--") {
          size_t end = text.find("-->", pos_ + 4);
          pos_ = end == std::string_view::npos ? n : end + 3;
        } else if (text.substr(pos_, 9) == "<![CDATA[") {
          // CDATA is character data (SAX semantics): a non-empty body is
          // a text chunk, never markup.
          size_t body = pos_ + 9;
          size_t end = text.find("]]>", body);
          size_t body_end = end == std::string_view::npos ? n : end;
          pos_ = end == std::string_view::npos ? n : end + 3;
          if (body_end > body) {
            if (text_sym_ == Alphabet::kNoSymbol) {
              text_sym_ = alphabet_->Intern("#text");
            }
            if (tally_.enabled()) tally_.OnInternal();
            *out = Internal(text_sym_);
            return true;
          }
        } else {
          // Doctype / PI: end at '>' — but a DOCTYPE internal subset
          // ([...]) may itself contain markup, so only a '>' outside the
          // brackets terminates the construct.
          size_t j = pos_ + 2;
          int brackets = 0;
          while (j < n && (text[j] != '>' || brackets > 0)) {
            brackets += text[j] == '[';
            brackets -= text[j] == ']';
            ++j;
          }
          pos_ = j < n ? j + 1 : n;
        }
        continue;
      }
      if (pos_ + 1 < n && text[pos_ + 1] == '/') {
        size_t j = pos_ + 2;
        std::string_view name = read_name(&j);
        j = find('>', j);
        pos_ = j < n ? j + 1 : n;
        if (tally_.enabled()) tally_.OnReturn();
        *out = Return(alphabet_->Intern(name));
        return true;
      }
      size_t j = pos_ + 1;
      std::string_view name = read_name(&j);
      // Self-closing only when the '/' immediately precedes '>' (or the
      // end of an unterminated tag) — a '/' inside an attribute value
      // (<a href="x/y">) does not count.
      size_t gt = find('>', j);
      bool self_closing = gt > j && text[gt - 1] == '/';
      pos_ = gt < n ? gt + 1 : n;
      Symbol s = alphabet_->Intern(name);
      if (self_closing) queued_return_ = s;
      if (tally_.enabled()) tally_.OnCall();
      *out = Call(s);
      return true;
    }
    // A text chunk runs to the next '<'; it is a position only when some
    // byte in it is not whitespace.
    size_t j = pos_;
    while (j < n && byte_class::IsSpace(text[j])) ++j;
    bool nonspace = j < n && text[j] != '<';
    pos_ = find('<', j);
    if (nonspace) {
      if (text_sym_ == Alphabet::kNoSymbol) {
        text_sym_ = alphabet_->Intern("#text");
      }
      if (tally_.enabled()) tally_.OnInternal();
      *out = Internal(text_sym_);
      return true;
    }
  }
  tally_.Flush(pos_);  // end of input: tallies become visible to the sink
  return false;
}

NestedWord XmlToNestedWord(const std::string& text, Alphabet* alphabet) {
  NestedWord out;
  XmlTokenStream stream(text, alphabet);
  TaggedSymbol t;
  while (stream.Next(&t)) out.Push(t);
  return out;
}

std::string NestedWordToXml(const NestedWord& n, const Alphabet& alphabet) {
  std::string out;
  for (size_t i = 0; i < n.size(); ++i) {
    switch (n.kind(i)) {
      case Kind::kCall:
        out += "<" + alphabet.Name(n.symbol(i)) + ">";
        break;
      case Kind::kReturn:
        out += "</" + alphabet.Name(n.symbol(i)) + ">";
        break;
      case Kind::kInternal:
        out += ".";
        break;
    }
  }
  return out;
}

Nwa WellFormedChecker(size_t num_symbols) {
  // Hierarchical carriers hold the open tag's name (mismatched close tags
  // find no transition); a bottom marker makes pending returns reject; and
  // since NWA acceptance cannot see the stack, "no pending opens" is
  // carried through the run by the empty/open state split with per-origin
  // frames (the Theorem 6 pattern).
  Nwa b(num_symbols);
  StateId empty = b.AddState(true);
  StateId open = b.AddState(false);
  StateId bot = b.AddState(false);
  b.set_initial(empty);
  b.set_hier_initial(bot);
  std::vector<StateId> from_empty(num_symbols), from_open(num_symbols);
  for (Symbol s = 0; s < num_symbols; ++s) {
    from_empty[s] = b.AddState(false);
    from_open[s] = b.AddState(false);
  }
  for (Symbol s = 0; s < num_symbols; ++s) {
    b.SetInternal(empty, s, empty);
    b.SetInternal(open, s, open);
    b.SetCall(empty, s, open, from_empty[s]);
    b.SetCall(open, s, open, from_open[s]);
    b.SetReturn(open, from_empty[s], s, empty);
    b.SetReturn(open, from_open[s], s, open);
  }
  return b;
}

Nwa PatternOrderQuery(const std::vector<Symbol>& patterns,
                      size_t num_symbols) {
  // Flat automaton: progress counter 0..n; advance when the next wanted
  // name opens. Linear in the number of patterns.
  Nwa a(num_symbols);
  const size_t n = patterns.size();
  std::vector<StateId> st(n + 1);
  for (size_t i = 0; i <= n; ++i) st[i] = a.AddState(i == n);
  a.set_initial(st[0]);
  for (size_t i = 0; i <= n; ++i) {
    for (Symbol s = 0; s < num_symbols; ++s) {
      StateId next = (i < n && s == patterns[i]) ? st[i + 1] : st[i];
      a.SetInternal(st[i], s, st[i]);
      a.SetCall(st[i], s, next, st[0]);  // flat: push q0
      a.SetReturn(st[i], st[0], s, st[i]);
    }
  }
  return a;
}

Nwa MinDepthQuery(size_t k, size_t num_symbols) {
  // Count current depth up to k; once k is reached, latch acceptance.
  Nwa a(num_symbols);
  std::vector<StateId> up(k + 1);
  for (size_t d = 0; d <= k; ++d) up[d] = a.AddState(d == k);
  StateId latched = up[k];
  a.set_initial(up[0]);
  // Hierarchical edges carry the depth at the call, restoring it at the
  // return; the latch state ignores structure.
  for (size_t d = 0; d < k; ++d) {
    for (Symbol s = 0; s < num_symbols; ++s) {
      a.SetInternal(up[d], s, up[d]);
      a.SetCall(up[d], s, d + 1 == k ? latched : up[d + 1], up[d]);
      if (d >= 1) {
        // Matched return: restore the caller's depth.
        a.SetReturn(up[d], up[d - 1], s, up[d - 1]);
      } else {
        // Pending return at top level (frame is the hierarchical initial).
        a.SetReturn(up[0], up[0], s, up[0]);
      }
    }
  }
  for (Symbol s = 0; s < num_symbols; ++s) {
    a.SetInternal(latched, s, latched);
    a.SetCall(latched, s, latched, latched);
    for (size_t d = 0; d <= k; ++d) {
      a.SetReturn(latched, up[d], s, latched);
    }
  }
  return a;
}

std::string RandomXmlDocument(Rng* rng, const Alphabet& alphabet,
                              size_t approx_positions, size_t max_depth) {
  std::string out;
  std::vector<Symbol> stack;
  size_t emitted = 0;
  // Skip the "#text" pseudo-symbol when choosing element names.
  auto name = [&](Symbol s) { return alphabet.Name(s); };
  std::vector<Symbol> elems;
  for (Symbol s = 0; s < alphabet.size(); ++s) {
    if (alphabet.Name(s) != "#text") elems.push_back(s);
  }
  NW_CHECK(!elems.empty());
  while (emitted < approx_positions || !stack.empty()) {
    uint64_t pick = rng->Below(4);
    bool must_close = emitted >= approx_positions ||
                      stack.size() >= max_depth;
    if (!must_close && (pick == 0 || stack.empty())) {
      Symbol s = elems[rng->Below(elems.size())];
      out += "<" + name(s) + ">";
      stack.push_back(s);
      ++emitted;
    } else if (pick == 1 && !stack.empty() && !must_close) {
      out += "text";
      ++emitted;
    } else if (!stack.empty()) {
      out += "</" + name(stack.back()) + ">";
      stack.pop_back();
      ++emitted;
    }
  }
  return out;
}

}  // namespace nw
