#include "json/json.h"

#include "obs/stats.h"

namespace nw {

namespace {

/// Characters with structural meaning to the scanner; everything else
/// groups into bare-token runs (numbers, true/false/null, garbage).
bool IsStructural(char c) {
  return c == '{' || c == '}' || c == '[' || c == ']' || c == ',' ||
         c == ':' || c == '"';
}

}  // namespace

Symbol JsonTokenStream::TextSym() {
  if (text_sym_ == Alphabet::kNoSymbol) text_sym_ = alphabet_->Intern("#text");
  return text_sym_;
}

Symbol JsonTokenStream::ObjSym() {
  if (obj_sym_ == Alphabet::kNoSymbol) obj_sym_ = alphabet_->Intern("#obj");
  return obj_sym_;
}

Symbol JsonTokenStream::ArrSym() {
  if (arr_sym_ == Alphabet::kNoSymbol) arr_sym_ = alphabet_->Intern("#arr");
  return arr_sym_;
}

bool JsonTokenStream::EmitScalar(TaggedSymbol* out) {
  if (pending_key_ != Alphabet::kNoSymbol) {
    // A keyed scalar is a leaf element: `"k":1` streams like `<k>1</k>`.
    Symbol k = pending_key_;
    pending_key_ = Alphabet::kNoSymbol;
    queue_[0] = Internal(TextSym());
    queue_[1] = Return(k);
    queue_len_ = 2;
    queue_pos_ = 0;
    if (tally_.enabled()) tally_.OnCall();
    *out = Call(k);
    return true;
  }
  if (tally_.enabled()) tally_.OnInternal();
  *out = Internal(TextSym());
  return true;
}

bool JsonTokenStream::Next(TaggedSymbol* out) {
  if (queue_pos_ < queue_len_) {
    *out = queue_[queue_pos_++];
    if (tally_.enabled()) {
      switch (out->kind) {
        case Kind::kCall:
          tally_.OnCall();
          break;
        case Kind::kReturn:
          tally_.OnReturn();
          break;
        case Kind::kInternal:
          tally_.OnInternal();
          break;
      }
    }
    return true;
  }
  const std::string_view text = text_;
  while (pos_ < text.size()) {
    char c = text[pos_];
    if (byte_class::IsSpace(c) || c == ',' || c == ':') {
      // Separators carry no positions; a stray ':' outside a key is as
      // silent as the one the key scan consumes.
      ++pos_;
      continue;
    }
    if (c == '{' || c == '[') {
      ++pos_;
      Symbol s;
      if (pending_key_ != Alphabet::kNoSymbol) {
        s = pending_key_;
        pending_key_ = Alphabet::kNoSymbol;
      } else if (stack_.empty()) {
        // The document envelope: a top-level anonymous container streams
        // silently so `{"a":1}` equals a bare `"a":1` (and a top-level
        // record array's elements become the top-level structure).
        stack_.push_back(Alphabet::kNoSymbol);
        continue;
      } else {
        s = c == '{' ? ObjSym() : ArrSym();
      }
      stack_.push_back(s);
      if (tally_.enabled()) tally_.OnCall();
      *out = Call(s);
      return true;
    }
    if (c == '}' || c == ']') {
      ++pos_;
      // A dangling key (`{"a":}`) has no value to wrap; drop it.
      pending_key_ = Alphabet::kNoSymbol;
      // The innermost open container closes regardless of brace kind —
      // the XML "close tag closes the innermost element" semantics.
      if (stack_.empty()) continue;  // stray closer: the envelope's is silent
      Symbol s = stack_.back();
      stack_.pop_back();
      if (s == Alphabet::kNoSymbol) continue;  // envelope closer
      if (tally_.enabled()) tally_.OnReturn();
      *out = Return(s);
      return true;
    }
    if (c == '"') {
      // Scan the string; \" must not terminate it. Unterminated strings
      // run to end of input (truncated documents stay analyzable). A key
      // names its raw bytes, escapes undecoded.
      size_t j = pos_ + 1;
      while (j < text.size() && text[j] != '"') {
        j += text[j] == '\\' && j + 1 < text.size() ? 2 : 1;
      }
      std::string_view contents = text.substr(pos_ + 1, j - pos_ - 1);
      pos_ = j < text.size() ? j + 1 : text.size();
      // A string followed by ':' is a key (detected anywhere — leniency,
      // not grammar); it defers its tokens to the value it labels. A new
      // key displaces an unconsumed one (garbage like `"a":"b":1`).
      size_t k = pos_;
      while (k < text.size() && byte_class::IsSpace(text[k])) ++k;
      if (k < text.size() && text[k] == ':') {
        pos_ = k + 1;
        pending_key_ = alphabet_->Intern(contents);
        continue;
      }
      return EmitScalar(out);
    }
    // Bare token run: a number, true/false/null, or garbage — one scalar.
    size_t j = pos_;
    while (j < text.size() && !IsStructural(text[j]) &&
           !byte_class::IsSpace(text[j])) {
      ++j;
    }
    pos_ = j;
    return EmitScalar(out);
  }
  tally_.Flush(pos_);  // end of input: tallies become visible to the sink
  return false;
}

NestedWord JsonToNestedWord(const std::string& text, Alphabet* alphabet) {
  NestedWord out;
  JsonTokenStream stream(text, alphabet);
  TaggedSymbol t;
  while (stream.Next(&t)) out.Push(t);
  return out;
}

}  // namespace nw
