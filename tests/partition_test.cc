// Tests for the budgeted partitioned product (opt/bank.h's
// FrozenPartition): a bank explored as G complete per-group products must
// answer exactly like the one shared product and like each query's own
// NwaRunner — per-query acceptance and first-match positions — over
// random banks and random well-formed AND malformed documents, at one
// and at four threads. A budget large enough for one group must
// reproduce the one product state for state, and the standard 24- and
// 32-query banks, whose one product passes 65,536 states, must explore
// completely.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "opt/bank.h"
#include "opt/pipeline.h"
#include "query/engine.h"
#include "query/nwquery.h"
#include "serve/sharded.h"
#include "support/rng.h"
#include "xml/xml.h"

namespace nw {
namespace {

// The standard bank of the serving benches: eight query templates over
// rotating element names a..h, cycled until there are `k` queries.
std::vector<std::string> StandardBankQueries(size_t k) {
  const char* names[] = {"a", "b", "c", "d", "e", "f", "g", "h"};
  constexpr size_t n = sizeof(names) / sizeof(names[0]);
  std::vector<std::string> out;
  for (size_t i = 0; out.size() < k; ++i) {
    const std::string x = names[i % n];
    const std::string y = names[(i + 1 + i / n) % n];
    switch (i % 8) {
      case 0: out.push_back("/" + x); break;
      case 1: out.push_back("//" + y); break;
      case 2: out.push_back("/" + x + "/" + y); break;
      case 3: out.push_back("/" + x + "//" + y); break;
      case 4: out.push_back(x + " then " + y); break;
      case 5: out.push_back("depth >= " + std::to_string(2 + i % 5)); break;
      case 6: out.push_back("//" + x + "/*/" + y); break;
      default: out.push_back("not //" + x); break;
    }
  }
  return out;
}

/// A random query text over {a, b, c, d}, at most `depth` connectives.
std::string RandomQueryText(Rng* rng, int depth) {
  const char* names[] = {"a", "b", "c", "d", "*"};
  auto name = [&] { return std::string(names[rng->Below(4)]); };
  if (depth == 0 || rng->Chance(2, 5)) {
    switch (rng->Below(3)) {
      case 0: {
        std::string path;
        for (size_t i = 0, len = 1 + rng->Below(3); i < len; ++i) {
          path += rng->Chance(1, 2) ? "/" : "//";
          path += rng->Chance(1, 5) ? "*" : name();
        }
        return path;
      }
      case 1:
        return name() + " then " + name();
      default:
        return "depth >= " + std::to_string(1 + rng->Below(4));
    }
  }
  switch (rng->Below(3)) {
    case 0:
      return "(" + RandomQueryText(rng, depth - 1) + ") and (" +
             RandomQueryText(rng, depth - 1) + ")";
    case 1:
      return "(" + RandomQueryText(rng, depth - 1) + ") or (" +
             RandomQueryText(rng, depth - 1) + ")";
    default:
      return "not (" + RandomQueryText(rng, depth - 1) + ")";
  }
}

struct Workload {
  Alphabet alphabet;
  std::vector<Query> queries;
  Symbol other = Alphabet::kNoSymbol;
  size_t num_symbols = 0;
  OptimizedBank bank;

  explicit Workload(const std::vector<std::string>& texts) {
    for (const std::string& text : texts) {
      queries.push_back(ParseQuery(text, &alphabet).Take());
    }
    alphabet.Intern("#text");
    other = alphabet.Intern("%other");
    num_symbols = alphabet.size();
    bank = OptimizeBank(queries, num_symbols, OptOptions::All());
  }
};

/// Drops close tags and injects stray ones: pending calls and returns.
std::string Corrupt(Rng* rng, const std::string& doc) {
  std::string out;
  size_t i = 0;
  while (i < doc.size()) {
    if (doc[i] == '<' && i + 1 < doc.size() && doc[i + 1] == '/' &&
        rng->Chance(1, 5)) {
      while (i < doc.size() && doc[i] != '>') ++i;
      if (i < doc.size()) ++i;
      continue;
    }
    if (doc[i] == '<' && rng->Chance(1, 12)) out += "</stray>";
    out += doc[i++];
  }
  return out;
}

/// Random documents; names outside the queries' alphabet ("unlisted",
/// "stray") remap to %other, and every other document is malformed.
std::vector<std::string> RandomCorpus(Rng* rng, size_t n) {
  Alphabet gen;
  for (const char* name : {"a", "b", "c", "d", "unlisted"}) gen.Intern(name);
  std::vector<std::string> corpus;
  for (size_t i = 0; i < n; ++i) {
    std::string doc = RandomXmlDocument(rng, gen, 20 + rng->Below(300),
                                        1 + rng->Below(9));
    if (i % 2 == 1) doc = Corrupt(rng, doc);
    corpus.push_back(std::move(doc));
  }
  return corpus;
}

/// The single-product path: the memoizing shared bank, one stream.
std::vector<DocResult> OneProduct(const Workload& w,
                                  const std::vector<std::string>& corpus) {
  SharedBank bank(w.bank.shared->autos());
  QueryEngine engine(w.num_symbols);
  engine.set_other_symbol(w.other);
  engine.set_track_matches(true);
  engine.AddBank(&bank);
  std::vector<DocResult> out;
  for (const std::string& doc : corpus) {
    Alphabet local = w.alphabet;
    DocResult r;
    const size_t before = engine.positions();
    r.accept = engine.RunAll(doc, &local);
    r.positions = engine.positions() - before;
    for (size_t q = 0; q < engine.num_queries(); ++q) {
      r.first_match.push_back(engine.first_match(q));
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// Each query's own NwaRunner: acceptance and first-accept position.
DocResult Runners(const Workload& w, const std::string& doc) {
  Alphabet local = w.alphabet;
  NestedWord word = XmlToNestedWord(doc, &local);
  DocResult r;
  for (const OptimizedQuery& q : w.bank.queries) {
    NwaRunner runner(q.nwa);
    int64_t first = runner.Accepting() ? 0 : -1;
    int64_t pos = 0;
    for (TaggedSymbol t : word.tagged()) {
      if (t.symbol >= w.num_symbols) t.symbol = w.other;
      ++pos;
      if (!runner.Feed(t)) break;
      if (first < 0 && runner.Accepting()) first = pos;
    }
    r.accept.push_back(runner.Accepting());
    r.first_match.push_back(first);
  }
  return r;
}

TEST(FrozenPartition, MatchesOneProductAndRunnersOnRandomBanks) {
  Rng rng(2024);
  size_t split = 0;  // rounds whose smallest budget made several groups
  for (int round = 0; round < 16; ++round) {
    std::vector<std::string> texts;
    for (size_t i = 0, k = 3 + rng.Below(8); i < k; ++i) {
      texts.push_back(RandomQueryText(&rng, 1));
    }
    Workload w(texts);
    std::vector<std::string> corpus = RandomCorpus(&rng, 16);
    std::vector<DocResult> want = OneProduct(w, corpus);
    for (size_t d = 0; d < corpus.size(); ++d) {
      DocResult oracle = Runners(w, corpus[d]);
      ASSERT_EQ(want[d].accept, oracle.accept) << "round " << round;
      ASSERT_EQ(want[d].first_match, oracle.first_match) << "round " << round;
    }
    // Small budgets split the bank into several groups; a large one
    // keeps it whole.
    for (size_t budget : {size_t{8}, size_t{64}, size_t{4096}}) {
      std::shared_ptr<const FrozenPartition> p =
          FrozenPartition::Explore(w.bank.shared->autos(), budget);
      ASSERT_TRUE(p->complete());
      ASSERT_EQ(p->num_queries(), texts.size());
      if (budget == 8 && p->num_groups() > 1) ++split;
      for (size_t threads : {size_t{1}, size_t{4}}) {
        ShardedEvaluator ev(p.get(), w.num_symbols, w.other, threads);
        std::vector<DocResult> got =
            ev.EvaluateCorpus(corpus, w.alphabet, /*track_matches=*/true);
        for (size_t d = 0; d < corpus.size(); ++d) {
          EXPECT_EQ(got[d].accept, want[d].accept)
              << "round " << round << " budget " << budget << " doc " << d;
          EXPECT_EQ(got[d].first_match, want[d].first_match)
              << "round " << round << " budget " << budget << " doc " << d;
          EXPECT_EQ(got[d].positions, want[d].positions);
        }
        // Complete groups: every position is one lock-free hit.
        EXPECT_EQ(ev.stats().frozen_misses, 0u);
        EXPECT_EQ(ev.stats().frozen_hits, ev.stats().positions);
      }
    }
  }
  EXPECT_GT(split, 8u);
}

TEST(FrozenPartition, SmallBudgetSplitsIntoContiguousGroups) {
  Workload w(StandardBankQueries(16));
  std::shared_ptr<const FrozenPartition> p =
      FrozenPartition::Explore(w.bank.shared->autos(), 64);
  ASSERT_GT(p->num_groups(), 1u);
  size_t next = 0;
  for (size_t g = 0; g < p->num_groups(); ++g) {
    EXPECT_EQ(p->first_query(g), next);
    for (size_t b = 0; b < p->group(g).num_queries(); ++b, ++next) {
      EXPECT_EQ(p->slot(next).group, g);
      EXPECT_EQ(p->slot(next).bit, b);
      EXPECT_EQ(p->group(g).autos()[b], w.bank.shared->autos()[next]);
    }
  }
  EXPECT_EQ(next, p->num_queries());
}

TEST(FrozenPartition, LargeBudgetReproducesTheOneProduct) {
  Workload w(StandardBankQueries(8));
  SharedBank one(w.bank.shared->autos());
  ASSERT_TRUE(one.ExploreAll(size_t{1} << 20));
  std::shared_ptr<const FrozenPartition> p =
      FrozenPartition::Explore(w.bank.shared->autos(), size_t{1} << 20);
  ASSERT_EQ(p->num_groups(), 1u);
  const SharedBank& g = p->group(0);
  ASSERT_EQ(g.num_states(), one.num_states());
  EXPECT_EQ(g.initial(), one.initial());
  for (StateId q = 0; q < one.num_states(); ++q) {
    for (size_t i = 0; i < one.num_queries(); ++i) {
      ASSERT_EQ(g.component(q, i), one.component(q, i)) << "state " << q;
    }
    for (Symbol a = 0; a < one.num_symbols(); ++a) {
      ASSERT_EQ(g.PeekInternal(q, a), one.PeekInternal(q, a));
      ASSERT_EQ(g.PeekCallLinear(q, a), one.PeekCallLinear(q, a));
      ASSERT_EQ(g.PeekCallHier(q, a), one.PeekCallHier(q, a));
    }
  }
  auto key = [](const SharedBank::MemoReturn& r) {
    return std::make_tuple(r.from, r.hier, r.symbol, r.target);
  };
  auto sorted = [&](std::vector<SharedBank::MemoReturn> v) {
    std::vector<std::tuple<StateId, StateId, Symbol, StateId>> out;
    for (const auto& r : v) out.push_back(key(r));
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(sorted(g.MemoizedReturns()), sorted(one.MemoizedReturns()));
}

TEST(FrozenPartition, StandardBanksOf24And32ExploreCompletely) {
  Rng rng(31);
  for (size_t k : {size_t{24}, size_t{32}}) {
    Workload w(StandardBankQueries(k));
    std::shared_ptr<const FrozenPartition> p =
        FrozenPartition::Explore(w.bank.shared->autos());
    ASSERT_TRUE(p->complete());
    EXPECT_EQ(p->num_queries(), k);
    EXPECT_GT(p->num_groups(), 1u);
    // Well under the one product, which passes 65,536 states.
    EXPECT_LT(p->num_states(), size_t{1} << 16);
    Alphabet gen;
    for (const char* name : {"a", "b", "c", "d", "e", "f", "g", "h", "x"}) {
      gen.Intern(name);
    }
    std::vector<std::string> corpus;
    for (size_t i = 0; i < 6; ++i) {
      std::string doc = RandomXmlDocument(&rng, gen, 2000, 4 + i);
      corpus.push_back(i % 2 ? Corrupt(&rng, doc) : doc);
    }
    ShardedEvaluator ev(p.get(), w.num_symbols, w.other, 4);
    std::vector<DocResult> got = ev.EvaluateCorpus(corpus, w.alphabet, true);
    for (size_t d = 0; d < corpus.size(); ++d) {
      DocResult want = Runners(w, corpus[d]);
      EXPECT_EQ(got[d].accept, want.accept) << "K=" << k << " doc " << d;
      EXPECT_EQ(got[d].first_match, want.first_match)
          << "K=" << k << " doc " << d;
    }
  }
}

TEST(FrozenPartitionDeathTest, EngineRefusesAnIncompletePartition) {
  Workload w(StandardBankQueries(4));
  std::shared_ptr<const FrozenPartition> cold = FrozenPartition::Whole(
      SharedBank::FreezeShared(*w.bank.shared));
  EXPECT_FALSE(cold->complete());
  QueryEngine engine(w.num_symbols);
  EXPECT_DEATH(engine.AddPartition(cold.get()), "complete partitions");
}

}  // namespace
}  // namespace nw
