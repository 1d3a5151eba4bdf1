// Unit tests for nested words and the matching relation (paper §2.1–2.2),
// including the three sample words of Figure 1.
#include "nw/nested_word.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "nw/alphabet.h"
#include "nw/generate.h"
#include "nw/text.h"
#include "support/rng.h"

namespace nw {
namespace {

// Figure 1, word n1: <a <b a a> <b a b> a> <a b a a>  (length 12, depth 2).
NestedWord Fig1N1(Alphabet* sigma) {
  auto r = ParseNestedWord("<a <b a a> <b a b> a> <a b a a>", sigma);
  EXPECT_TRUE(r.ok());
  return r.Take();
}

// Figure 1, word n2: a a> <b a a> <a <a  (two unmatched calls, one
// unmatched return).
NestedWord Fig1N2(Alphabet* sigma) {
  auto r = ParseNestedWord("a a> <b a a> <a <a", sigma);
  EXPECT_TRUE(r.ok());
  return r.Take();
}

// Figure 1, word n3: <a <a a> <b b> a>  — the tree word of a(a(),b()).
NestedWord Fig1N3(Alphabet* sigma) {
  auto r = ParseNestedWord("<a <a a> <b b> a>", sigma);
  EXPECT_TRUE(r.ok());
  return r.Take();
}

TEST(NestedWord, EmptyWord) {
  NestedWord n;
  EXPECT_EQ(n.size(), 0u);
  EXPECT_TRUE(n.IsWellMatched());
  EXPECT_FALSE(n.IsRooted());
  EXPECT_EQ(n.Depth(), 0u);
}

TEST(NestedWord, Fig1N1Properties) {
  Alphabet sigma;
  NestedWord n1 = Fig1N1(&sigma);
  EXPECT_EQ(n1.size(), 12u);
  EXPECT_TRUE(n1.IsWellMatched());
  EXPECT_FALSE(n1.IsRooted());  // two top-level components
  EXPECT_FALSE(n1.IsTreeWord());
  EXPECT_EQ(n1.Depth(), 2u);
}

TEST(NestedWord, Fig1N2PendingEdges) {
  Alphabet sigma;
  NestedWord n2 = Fig1N2(&sigma);
  EXPECT_FALSE(n2.IsWellMatched());
  Matching m(n2);
  EXPECT_EQ(m.pending_returns(), 1u);
  EXPECT_EQ(m.pending_calls(), 2u);
  EXPECT_EQ(m.partner(1), Matching::kPendingNegInf);
  EXPECT_EQ(m.partner(5), Matching::kPendingInf);
  EXPECT_EQ(m.partner(6), Matching::kPendingInf);
  // The <b ... a> pair is matched.
  EXPECT_EQ(m.partner(2), 4);
  EXPECT_EQ(m.partner(4), 2);
}

TEST(NestedWord, Fig1N3IsRootedTreeWord) {
  Alphabet sigma;
  NestedWord n3 = Fig1N3(&sigma);
  EXPECT_TRUE(n3.IsRooted());
  EXPECT_TRUE(n3.IsWellMatched());
  EXPECT_TRUE(n3.IsTreeWord());
  EXPECT_EQ(n3.Depth(), 2u);
}

TEST(NestedWord, PathWordShape) {
  // path(w) is rooted with depth |w| (§2.2).
  std::vector<Symbol> w = {0, 1, 1, 0, 1};
  NestedWord p = NestedWord::Path(w);
  EXPECT_EQ(p.size(), 2 * w.size());
  EXPECT_TRUE(p.IsRooted());
  EXPECT_EQ(p.Depth(), w.size());
  EXPECT_TRUE(p.IsTreeWord());
}

TEST(NestedWord, PlainWordHasEmptyMatching) {
  NestedWord n = NestedWord::FromWord({0, 1, 0});
  Matching m(n);
  for (size_t i = 0; i < n.size(); ++i) {
    EXPECT_EQ(m.partner(i), Matching::kNone);
    EXPECT_EQ(m.call_parent(i), Matching::kTopLevel);
  }
  EXPECT_EQ(n.Depth(), 0u);
}

TEST(Matching, CallParentFollowsPaperRecurrence) {
  Alphabet sigma;
  // <a b <b a> c a>   positions: 0:<a 1:b 2:<b 3:a> 4:c 5:a>
  auto n = ParseNestedWord("<a b <b a> c a>", &sigma).Take();
  Matching m(n);
  EXPECT_EQ(m.call_parent(0), Matching::kTopLevel);
  EXPECT_EQ(m.call_parent(1), 0);
  EXPECT_EQ(m.call_parent(2), 0);
  EXPECT_EQ(m.call_parent(3), 2);
  EXPECT_EQ(m.call_parent(4), 0);
  EXPECT_EQ(m.call_parent(5), 0);
}

TEST(Matching, PendingReturnResetsParentToTopLevel) {
  Alphabet sigma;
  auto n = ParseNestedWord("a> b", &sigma).Take();
  Matching m(n);
  EXPECT_EQ(m.partner(0), Matching::kPendingNegInf);
  EXPECT_EQ(m.call_parent(1), Matching::kTopLevel);
}

TEST(Matching, DepthIgnoresPendingEdges) {
  Alphabet sigma;
  // Two pending calls wrap one matched pair: depth counts only the match.
  auto n = ParseNestedWord("<a <a <b b>", &sigma).Take();
  EXPECT_EQ(n.Depth(), 1u);
}

TEST(Matching, NoCrossingByConstruction) {
  // Matching computed from any tagged sequence satisfies §2.1's axioms:
  // partners are mutual, i < j, and edges never cross.
  Rng rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    NestedWord n = RandomNestedWord(&rng, 2, 40);
    Matching m(n);
    for (size_t i = 0; i < n.size(); ++i) {
      int64_t j = m.partner(i);
      if (j < 0) continue;
      if (n.kind(i) == Kind::kCall) {
        EXPECT_LT(static_cast<int64_t>(i), j);
        EXPECT_EQ(m.partner(static_cast<size_t>(j)), static_cast<int64_t>(i));
      }
    }
    // Crossing check: for all matched pairs (i,j), (i',j'):
    // not (i < i' <= j < j').
    for (size_t i = 0; i < n.size(); ++i) {
      if (n.kind(i) != Kind::kCall || m.partner(i) < 0) continue;
      int64_t j = m.partner(i);
      for (size_t i2 = i + 1; i2 < static_cast<size_t>(j); ++i2) {
        if (n.kind(i2) != Kind::kCall || m.partner(i2) < 0) continue;
        EXPECT_LE(m.partner(i2), j) << "crossing edge found";
      }
    }
  }
}

TEST(NestedWord, ThreeToTheEllMatchings) {
  // §2.2: there are exactly 3^ℓ matching relations of length ℓ, in
  // bijection with kind-sequences. Enumerate ℓ ≤ 6 and verify that
  // distinct kind sequences give distinct matchings (over 1 symbol).
  for (size_t len = 0; len <= 6; ++len) {
    size_t count = 1;
    for (size_t i = 0; i < len; ++i) count *= 3;
    std::vector<NestedWord> words;
    for (size_t code = 0; code < count; ++code) {
      size_t c = code;
      std::vector<TaggedSymbol> seq;
      for (size_t i = 0; i < len; ++i) {
        seq.push_back({static_cast<Kind>(c % 3), 0});
        c /= 3;
      }
      words.push_back(NestedWord(std::move(seq)));
    }
    // All distinct as nested words.
    for (size_t i = 0; i < words.size(); ++i) {
      for (size_t j = i + 1; j < words.size(); ++j) {
        EXPECT_FALSE(words[i] == words[j]);
      }
    }
    EXPECT_EQ(words.size(), count);
  }
}

TEST(NestedWord, RootedImpliesWellMatched) {
  Rng rng(13);
  for (int iter = 0; iter < 300; ++iter) {
    NestedWord n = RandomNestedWord(&rng, 2, 24);
    if (n.IsRooted()) EXPECT_TRUE(n.IsWellMatched());
  }
}

// -- Alphabet --------------------------------------------------------------
// The tokenizers intern names as views into the document, so lookups must
// read exactly the view's bytes: no terminator, no byte past the end.

TEST(Alphabet, InternsAndFindsViewsIntoAnUnterminatedBuffer) {
  // No NUL anywhere: every name is a slice of a larger buffer.
  const std::array<char, 12> buf = {'i', 't', 'e', 'm', 's', 'a',
                                    'b', 'c', 'd', 'e', 'f', 'g'};
  const std::string_view all(buf.data(), buf.size());
  Alphabet sigma;
  const Symbol item = sigma.Intern(all.substr(0, 4));
  const Symbol items = sigma.Intern(all.substr(0, 5));
  const Symbol it = sigma.Intern(all.substr(0, 2));
  // Names that are suffixes and prefixes of each other stay apart.
  const Symbol seven = sigma.Intern(all.substr(5, 7));
  const Symbol eight = sigma.Intern(all.substr(4, 8));
  const Symbol whole = sigma.Intern(all);
  EXPECT_EQ(sigma.size(), 6u);
  EXPECT_EQ(sigma.Name(item), "item");
  EXPECT_EQ(sigma.Name(items), "items");
  EXPECT_EQ(sigma.Name(it), "it");
  EXPECT_EQ(sigma.Name(seven), "abcdefg");
  EXPECT_EQ(sigma.Name(eight), "sabcdefg");
  EXPECT_EQ(sigma.Name(whole), "itemsabcdefg");
  // The same bytes from elsewhere (an owning string) resolve the same.
  EXPECT_EQ(sigma.Find(std::string("item")), item);
  EXPECT_EQ(sigma.Find("itemsabcdefg"), whole);
  EXPECT_EQ(sigma.Intern(all.substr(5, 7)), seven);
  EXPECT_EQ(sigma.Find(all.substr(0, 3)), Alphabet::kNoSymbol);  // "ite"
  EXPECT_EQ(sigma.Find(all.substr(5, 6)), Alphabet::kNoSymbol);  // "abcdef"
  EXPECT_EQ(sigma.Find(all.substr(0, 11)), Alphabet::kNoSymbol);
  EXPECT_EQ(sigma.size(), 6u);
}

TEST(Alphabet, NamesWithNulBytesAndTheEmptyNameAreDistinct) {
  Alphabet sigma;
  const Symbol a = sigma.Intern("a");
  const Symbol a_nul = sigma.Intern(std::string_view("a\0", 2));
  const Symbol nul_a = sigma.Intern(std::string_view("\0a", 2));
  const Symbol empty = sigma.Intern("");
  EXPECT_EQ(sigma.size(), 4u);
  EXPECT_NE(a, a_nul);
  EXPECT_NE(a_nul, nul_a);
  EXPECT_EQ(sigma.Name(a_nul), std::string("a\0", 2));
  EXPECT_EQ(sigma.Name(empty), "");
  EXPECT_EQ(sigma.Find(""), empty);
  EXPECT_EQ(sigma.Find(std::string_view("\0a", 2)), nul_a);
}

TEST(Alphabet, IdsAreDenseInInterningOrder) {
  Alphabet sigma;
  std::vector<std::string> names;
  for (int i = 0; i < 1000; ++i) {
    // Short names take the packed key, long ones the hashed key.
    names.push_back(i % 3 == 0 ? "element-name-" + std::to_string(i)
                               : "n" + std::to_string(i));
  }
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(sigma.Intern(names[i]), i);
    EXPECT_EQ(sigma.size(), i + 1);
  }
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(sigma.Intern(names[i]), i);  // a hit adds nothing
    EXPECT_EQ(sigma.Find(names[i]), i);
    EXPECT_EQ(sigma.Name(static_cast<Symbol>(i)), names[i]);
  }
  EXPECT_EQ(sigma.size(), names.size());
  EXPECT_EQ(Alphabet({"b", "a", "b"}).Find("a"), 1u);
}

TEST(Alphabet, AbsentNamesReturnNoSymbol) {
  Alphabet empty;
  EXPECT_EQ(empty.Find("a"), Alphabet::kNoSymbol);
  EXPECT_EQ(empty.Find(""), Alphabet::kNoSymbol);
  Alphabet sigma = Alphabet::Ab();
  EXPECT_EQ(sigma.Find("c"), Alphabet::kNoSymbol);
  EXPECT_EQ(sigma.Find("ab"), Alphabet::kNoSymbol);
  EXPECT_EQ(sigma.Find(""), Alphabet::kNoSymbol);
  EXPECT_EQ(sigma.Find("a-much-longer-name"), Alphabet::kNoSymbol);
  EXPECT_EQ(sigma.size(), 2u);  // Find never interns
}

TEST(Alphabet, ACopyInternsIndependentlyOfItsSource) {
  // ShardedEvaluator gives every worker its own copy of the alphabet.
  Alphabet source = Alphabet::Ab();
  Alphabet copy = source;
  const Symbol in_copy = copy.Intern("only-in-the-copy");
  const Symbol in_source = source.Intern("c");
  EXPECT_EQ(in_copy, 2u);
  EXPECT_EQ(in_source, 2u);
  EXPECT_EQ(source.Find("only-in-the-copy"), Alphabet::kNoSymbol);
  EXPECT_EQ(copy.Find("c"), Alphabet::kNoSymbol);
  EXPECT_EQ(source.Name(2), "c");
  EXPECT_EQ(copy.Name(2), "only-in-the-copy");
  EXPECT_EQ(copy.Find("a"), source.Find("a"));
  EXPECT_EQ(copy.Find("b"), source.Find("b"));
}

}  // namespace
}  // namespace nw
