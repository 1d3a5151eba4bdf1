// Tests for the SAX/XML bridge and the document queries from the paper's
// introduction.
#include "xml/xml.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "nw/text.h"
#include "stream/token_stream.h"
#include "stream/tree_gen.h"
#include "support/rng.h"

namespace nw {
namespace {

TEST(Xml, TokenizerBasics) {
  Alphabet sigma;
  NestedWord n = XmlToNestedWord("<a><b>hi</b><c/></a>", &sigma);
  // call a, call b, text, return b, call c, return c, return a
  ASSERT_EQ(n.size(), 7u);
  EXPECT_EQ(n.kind(0), Kind::kCall);
  EXPECT_EQ(n.kind(2), Kind::kInternal);
  EXPECT_EQ(n.kind(3), Kind::kReturn);
  EXPECT_EQ(n.symbol(1), n.symbol(3));  // b matches b
  EXPECT_TRUE(n.IsWellMatched());
  EXPECT_TRUE(n.IsRooted());
}

TEST(Xml, MalformedDocumentsStillTokenize) {
  // The paper's §1 point: nested words represent data that "may not parse
  // correctly" — no error, just pending edges.
  Alphabet sigma;
  NestedWord unclosed = XmlToNestedWord("<a><b>", &sigma);
  EXPECT_EQ(Matching(unclosed).pending_calls(), 2u);
  NestedWord stray = XmlToNestedWord("</a>text", &sigma);
  EXPECT_EQ(Matching(stray).pending_returns(), 1u);
}

TEST(Xml, AttributesSkippedSelfClosingHandled) {
  Alphabet sigma;
  NestedWord n = XmlToNestedWord("<a href=\"x\"><img src=\"y\"/></a>", &sigma);
  ASSERT_EQ(n.size(), 4u);
  EXPECT_TRUE(n.IsWellMatched());
}

TEST(Xml, TextSymbolInternedLazily) {
  // A document with no text chunks must not burn a symbol on "#text".
  Alphabet sigma;
  XmlToNestedWord("<a><b/></a>", &sigma);
  EXPECT_EQ(sigma.Find("#text"), Alphabet::kNoSymbol);
  EXPECT_EQ(sigma.size(), 2u);
  // Once a text chunk appears, "#text" interns at the point of first use.
  NestedWord n = XmlToNestedWord("<a>hi</a>", &sigma);
  EXPECT_EQ(n.symbol(1), sigma.Find("#text"));
}

TEST(Xml, SlashInsideAttributeIsNotSelfClosing) {
  Alphabet sigma;
  NestedWord n = XmlToNestedWord("<a href=\"x/y\"></a>", &sigma);
  ASSERT_EQ(n.size(), 2u);
  EXPECT_EQ(n.kind(0), Kind::kCall);
  EXPECT_EQ(n.kind(1), Kind::kReturn);
  // Self-closing still requires '/' immediately before '>'.
  NestedWord m = XmlToNestedWord("<a href=\"x/y\"/>", &sigma);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.IsWellMatched());
}

TEST(Xml, CommentsDoctypeAndPisAreSkipped) {
  Alphabet sigma;
  // Slashes and '>' inside comments/PIs must not fabricate positions.
  NestedWord n = XmlToNestedWord(
      "<?xml version=\"1.0\"?><!DOCTYPE a>"
      "<!-- see https://example.com, a > b --><a><b/></a><!-- tail",
      &sigma);
  ASSERT_EQ(n.size(), 4u);
  EXPECT_TRUE(n.IsWellMatched());
  EXPECT_EQ(sigma.Name(n.symbol(0)), "a");
  EXPECT_EQ(sigma.Name(n.symbol(1)), "b");
  // CDATA content is character data: one #text internal, never markup.
  NestedWord c = XmlToNestedWord("<a><![CDATA[x > <b>]]></a>", &sigma);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.kind(0), Kind::kCall);
  EXPECT_EQ(c.kind(1), Kind::kInternal);
  EXPECT_EQ(c.kind(2), Kind::kReturn);
  EXPECT_EQ(sigma.Name(c.symbol(1)), "#text");
  // Empty CDATA emits nothing.
  NestedWord e = XmlToNestedWord("<a><![CDATA[]]></a>", &sigma);
  EXPECT_EQ(e.size(), 2u);
  // A DOCTYPE internal subset ([...]) ends at the '>' outside the
  // brackets — markup inside it must not leak into the stream.
  NestedWord d = XmlToNestedWord(
      "<!DOCTYPE a [<!ENTITY x \"v\"><b>]><a></a>", &sigma);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_TRUE(d.IsWellMatched());
  EXPECT_EQ(sigma.Name(d.symbol(0)), "a");
}

TEST(Xml, TokenStreamMatchesMaterializedWord) {
  Alphabet sigma1, sigma2;
  const std::string doc = "<a><b>hi</b><c/></a>text</d>";
  NestedWord n = XmlToNestedWord(doc, &sigma1);
  XmlTokenStream stream(doc, &sigma2);
  TaggedSymbol t;
  size_t i = 0;
  while (stream.Next(&t)) {
    ASSERT_LT(i, n.size());
    EXPECT_EQ(t, n[i]) << i;
    ++i;
  }
  EXPECT_EQ(i, n.size());
}

TEST(Xml, WellFormedChecker) {
  Alphabet sigma;
  Nwa check = WellFormedChecker(4);
  auto accepts = [&](const std::string& doc) {
    Alphabet local;
    // Pre-intern to keep symbol ids inside the checker's alphabet.
    local.Intern("#text");
    local.Intern("a");
    local.Intern("b");
    local.Intern("c");
    return check.Accepts(XmlToNestedWord(doc, &local));
  };
  EXPECT_TRUE(accepts("<a><b>x</b></a>"));
  EXPECT_TRUE(accepts("<a/><b/>"));
  EXPECT_TRUE(accepts(""));
  EXPECT_FALSE(accepts("<a><b></a></b>"));  // crossing close order
  EXPECT_FALSE(accepts("<a>"));             // pending open
  EXPECT_FALSE(accepts("</a>"));            // stray close
}

TEST(Xml, PatternOrderQuerySemantics) {
  // Patterns 1, 2 (element names) must open in document order.
  Nwa q = PatternOrderQuery({1, 2}, 4);
  Alphabet sigma;
  sigma.Intern("#text");
  Symbol a = sigma.Intern("a");
  Symbol b = sigma.Intern("b");
  (void)a;
  (void)b;
  EXPECT_TRUE(q.Accepts(XmlToNestedWord("<a><b/></a>", &sigma)));
  EXPECT_TRUE(q.Accepts(XmlToNestedWord("<c><a/><c><b/></c></c>", &sigma)));
  EXPECT_FALSE(q.Accepts(XmlToNestedWord("<b><a/></b>", &sigma)));
  EXPECT_FALSE(q.Accepts(XmlToNestedWord("<a/>", &sigma)));
  // Malformed documents can still be queried (linear order only).
  EXPECT_TRUE(q.Accepts(XmlToNestedWord("<a><b>", &sigma)));
}

TEST(Xml, PatternOrderQueryIsLinearSize) {
  for (size_t n : {1u, 4u, 9u}) {
    std::vector<Symbol> pats(n, 1);
    Nwa q = PatternOrderQuery(pats, 3);
    EXPECT_EQ(q.num_states(), n + 1);
    EXPECT_TRUE(q.IsFlat());
  }
}

TEST(Xml, MinDepthQuery) {
  Nwa q = MinDepthQuery(3, 2);
  Alphabet sigma;
  sigma.Intern("#text");
  sigma.Intern("d");
  EXPECT_FALSE(q.Accepts(XmlToNestedWord("<d><d/></d>", &sigma)));
  EXPECT_TRUE(q.Accepts(XmlToNestedWord("<d><d><d/></d></d>", &sigma)));
  // Depth reached then left: still accepted (latched).
  EXPECT_TRUE(
      q.Accepts(XmlToNestedWord("<d><d><d/></d></d><d/>", &sigma)));
}

TEST(Xml, RandomDocumentsAreWellFormed) {
  Rng rng(9);
  Alphabet sigma;
  sigma.Intern("#text");
  sigma.Intern("a");
  sigma.Intern("b");
  for (int iter = 0; iter < 20; ++iter) {
    std::string doc = RandomXmlDocument(&rng, sigma, 60, 6);
    Alphabet local = sigma;
    NestedWord n = XmlToNestedWord(doc, &local);
    EXPECT_TRUE(n.IsWellMatched()) << doc;
    EXPECT_LE(n.Depth(), 6u);
  }
}

TEST(Xml, RoundTripRendering) {
  Alphabet sigma;
  NestedWord n = XmlToNestedWord("<a><b>x</b></a>", &sigma);
  std::string xml = NestedWordToXml(n, sigma);
  Alphabet sigma2;
  // "." renders text; re-tokenizing gives the same structure.
  NestedWord n2 = XmlToNestedWord(xml, &sigma2);
  ASSERT_EQ(n2.size(), n.size());
  for (size_t i = 0; i < n.size(); ++i) EXPECT_EQ(n2.kind(i), n.kind(i));
}

// -- The allocation-free scanner against the byte-at-a-time one ----------

TEST(XmlBytes, ByteClassTableEqualsTheCLocale) {
  // Nothing in the library calls setlocale, so <cctype> answers for the
  // "C" locale here — the table must agree on every byte.
  for (int c = 0; c < 256; ++c) {
    const char ch = static_cast<char>(c);
    EXPECT_EQ(byte_class::IsSpace(ch), std::isspace(c) != 0) << c;
    EXPECT_EQ(byte_class::IsName(ch),
              std::isalnum(c) != 0 || c == '_' || c == '-')
        << c;
  }
}

/// One token as the fuzzer compares it: kind, symbol name, and the
/// stream's pos() right after the token was produced.
struct Tok {
  Kind kind;
  std::string name;
  size_t pos;
  bool operator==(const Tok&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Tok& t) {
  const char* kind = t.kind == Kind::kCall     ? "call"
                     : t.kind == Kind::kReturn ? "return"
                                               : "internal";
  return os << kind << " '" << t.name << "' @" << t.pos;
}

/// The XML scanner as it stood before the string_view rewrite, byte at a
/// time with <cctype> and a std::string per name: the reference the
/// streaming tokenizer must equal token for token.
std::vector<Tok> ReferenceScan(const std::string& text) {
  std::vector<Tok> out;
  size_t pos = 0;
  auto read_name = [&](size_t* p) {
    size_t start = *p;
    while (*p < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[*p])) ||
            text[*p] == '_' || text[*p] == '-')) {
      ++*p;
    }
    return text.substr(start, *p - start);
  };
  while (pos < text.size()) {
    if (text[pos] == '<') {
      if (pos + 1 < text.size() &&
          (text[pos + 1] == '!' || text[pos + 1] == '?')) {
        if (text.compare(pos, 4, "<!--") == 0) {
          size_t end = text.find("-->", pos + 4);
          pos = end == std::string::npos ? text.size() : end + 3;
        } else if (text.compare(pos, 9, "<![CDATA[") == 0) {
          size_t body = pos + 9;
          size_t end = text.find("]]>", body);
          size_t body_end = end == std::string::npos ? text.size() : end;
          pos = end == std::string::npos ? text.size() : end + 3;
          if (body_end > body) out.push_back({Kind::kInternal, "#text", pos});
        } else {
          size_t j = pos + 2;
          int brackets = 0;
          while (j < text.size() && (text[j] != '>' || brackets > 0)) {
            brackets += text[j] == '[';
            brackets -= text[j] == ']';
            ++j;
          }
          pos = j < text.size() ? j + 1 : text.size();
        }
        continue;
      }
      if (pos + 1 < text.size() && text[pos + 1] == '/') {
        size_t j = pos + 2;
        std::string name = read_name(&j);
        while (j < text.size() && text[j] != '>') ++j;
        if (j < text.size()) ++j;
        pos = j;
        out.push_back({Kind::kReturn, name, pos});
        continue;
      }
      size_t j = pos + 1;
      std::string name = read_name(&j);
      bool self_closing = false;
      while (j < text.size() && text[j] != '>') {
        self_closing = text[j] == '/';
        ++j;
      }
      if (j < text.size()) ++j;
      pos = j;
      out.push_back({Kind::kCall, name, pos});
      if (self_closing) out.push_back({Kind::kReturn, name, pos});
      continue;
    }
    size_t j = pos;
    bool nonspace = false;
    while (j < text.size() && text[j] != '<') {
      nonspace =
          nonspace || !std::isspace(static_cast<unsigned char>(text[j]));
      ++j;
    }
    pos = j;
    if (nonspace) out.push_back({Kind::kInternal, "#text", pos});
  }
  return out;
}

/// XmlTokenStream's tokens in the same form, plus the final pos().
std::vector<Tok> StreamScan(const std::string& text, size_t* end_pos) {
  Alphabet sigma;
  XmlTokenStream stream(text, &sigma);
  std::vector<Tok> out;
  TaggedSymbol t;
  while (stream.Next(&t)) {
    out.push_back({t.kind, sigma.Name(t.symbol), stream.pos()});
  }
  *end_pos = stream.pos();
  return out;
}

void ExpectSameScan(const std::string& doc) {
  size_t end_pos = 0;
  const std::vector<Tok> got = StreamScan(doc, &end_pos);
  const std::vector<Tok> want = ReferenceScan(doc);
  EXPECT_EQ(end_pos, doc.size()) << doc;
  ASSERT_EQ(got.size(), want.size()) << doc;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "token " << i << " of " << doc;
  }
}

TEST(XmlBytes, EdgeCasesMatchTheReferenceScanner) {
  const std::vector<std::string> docs = {
      "<a/",                         // self-closing at end of input
      "<a />",                       // space before the slash
      "<a href=\"x/y\">",            // slash inside an attribute
      "<a href=\"x/y\"/>",           //   ... then self-closing
      "</a",                         // unterminated close
      "<a>text</a",                  //   ... after content
      "<a\xC3\xA9" "b>",             // a byte >= 0x80 ends the name
      "</\xC3\xA9>\xC3\xA9",         // empty close name, UTF-8 text
      "<\x80>",                      // empty open name
      "<>", "</>", "<", "</", "<a", "<!", "<?",
      " \n\t\r\f\v", "<a> \n\t</a>",  // whitespace-only text: no token
      "<a>x</a> ",                    // trailing whitespace
      "<!-- never closed", "<!---->", "<!-->-->", "<!-- a -- b -->",
      "<![CDATA[never closed", "<![CDATA[", "<![CDATA[]]>",
      "<![CDATA[x]]", "<![CDATA[<a>]]></a>",
      "<!DOCTYPE a [<!ENTITY x \"v\"><b>]><a></a>",
      "<!DOCTYPE a [[]]]>", "<!DOCTYPE a ]><b>", "<?pi a > b ?><c/>",
      "<a_b-c1 x='1'/><_/><-/><9/>",
      "text<a>more</a>tail",
  };
  for (const std::string& doc : docs) ExpectSameScan(doc);
}

TEST(XmlBytes, PinnedEdgeCases) {
  size_t end = 0;
  // `<a/` at end of input is self-closing.
  EXPECT_EQ(StreamScan("<a/", &end),
            (std::vector<Tok>{{Kind::kCall, "a", 3}, {Kind::kReturn, "a", 3}}));
  EXPECT_EQ(StreamScan("<a />", &end),
            (std::vector<Tok>{{Kind::kCall, "a", 5}, {Kind::kReturn, "a", 5}}));
  EXPECT_EQ(StreamScan("<a href=\"x/y\">", &end),
            (std::vector<Tok>{{Kind::kCall, "a", 14}}));
  // An unterminated close runs to the end of input.
  EXPECT_EQ(StreamScan("</a", &end),
            (std::vector<Tok>{{Kind::kReturn, "a", 3}}));
  // A byte >= 0x80 ends a name; the tag still runs to its '>'.
  EXPECT_EQ(StreamScan("<ab\xC3\xA9>", &end),
            (std::vector<Tok>{{Kind::kCall, "ab", 6}}));
  EXPECT_EQ(StreamScan("<>", &end),
            (std::vector<Tok>{{Kind::kCall, "", 2}}));
  EXPECT_EQ(StreamScan("</>", &end),
            (std::vector<Tok>{{Kind::kReturn, "", 3}}));
  // Whitespace-only text yields no token, yet the bytes are consumed.
  EXPECT_TRUE(StreamScan(" \t\r\n", &end).empty());
  EXPECT_EQ(end, 4u);
  // Unterminated comments and CDATA swallow the rest of the input.
  EXPECT_EQ(StreamScan("<a><!-- <b>", &end),
            (std::vector<Tok>{{Kind::kCall, "a", 3}}));
  EXPECT_EQ(end, 11u);
  EXPECT_EQ(StreamScan("<a><![CDATA[<b>", &end),
            (std::vector<Tok>{{Kind::kCall, "a", 3},
                              {Kind::kInternal, "#text", 15}}));
  EXPECT_EQ(StreamScan("<![CDATA[", &end), std::vector<Tok>{});
  EXPECT_EQ(end, 9u);
}

/// Seeded XML-aware mutation: markup bytes, markup fragments, bytes past
/// ASCII, deletions and truncations.
std::string MutateXml(Rng* rng, std::string doc) {
  const char bytes[] = {'<', '>', '/', '!', '?', '-', '[', ']', '"', '=',
                        ' ', '\n', '\t', '_', '7', 'a', '\x80', '\xC3'};
  const char* const fragments[] = {"<!--", "-->",      "<![CDATA[", "]]>",
                                   "<!DOCTYPE x [", "<?pi", "/>",
                                   "</",   " k=\"v/w\"", "\xC3\xA9"};
  size_t edits = 1 + rng->Below(8);
  for (size_t e = 0; e < edits && !doc.empty(); ++e) {
    size_t at = rng->Below(doc.size());
    switch (rng->Below(5)) {
      case 0:
        doc[at] = bytes[rng->Below(sizeof(bytes))];
        break;
      case 1:
        doc.erase(at, 1 + rng->Below(4));
        break;
      case 2:
        doc.insert(at, 1, bytes[rng->Below(sizeof(bytes))]);
        break;
      case 3:
        doc.insert(at, fragments[rng->Below(std::size(fragments))]);
        break;
      case 4:
        doc.resize(at);  // truncation
        break;
    }
  }
  return doc;
}

TEST(XmlFuzz, MutatedDocumentsMatchTheReferenceScanner) {
  Rng rng(2025);
  const std::vector<std::string> names = {"a", "b", "item", "x_y-1",
                                          "element-name"};
  for (int round = 0; round < 300; ++round) {
    std::vector<TreeNode> forest =
        RandomForest(&rng, names, 20 + rng.Below(60), 5);
    std::string doc = RenderXml(forest);
    if (round % 3 == 0) {
      doc = "<?xml version=\"1.0\"?><!DOCTYPE r [<!ELEMENT r ANY>]>"
            "<r a=\"1/2\"><!-- c --><![CDATA[d]]>" + doc + "<e />\n</r>";
    }
    ExpectSameScan(MutateXml(&rng, doc));
  }
}

}  // namespace
}  // namespace nw
