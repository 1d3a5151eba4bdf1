// Tests for the NWOpt optimizer subsystem: algebraic rewrites, congruence
// minimization, and shared-bank compilation must all be language-preserving
// (checked differentially against the unoptimized compilation and a naive
// tree-walk oracle, over randomized queries and randomized well-formed AND
// malformed documents), plus a regression pinning the state-count win on a
// `not`-heavy query family and the engine's match-position tap.
#include "opt/pipeline.h"

#include <gtest/gtest.h>

#include <functional>

#include "obs/stats.h"
#include "opt/bank.h"
#include "opt/minimize.h"
#include "opt/rewrite.h"
#include "query/compile.h"
#include "query/engine.h"
#include "query/nwquery.h"
#include "support/rng.h"
#include "xml/xml.h"

namespace nw {
namespace {

// ---------------------------------------------------------------------------
// Naive oracle (same contract as tests/query_test.cc, extended to the
// optimizer's kPathSet atom): one pass over the tagged stream maintaining
// the chain of open element names; nothing automaton-shaped.
// ---------------------------------------------------------------------------

bool PathChainMatches(const std::vector<PathStep>& steps,
                      const std::vector<Symbol>& chain) {
  std::function<bool(size_t, size_t)> match = [&](size_t i, size_t j) {
    if (i == steps.size()) return j == chain.size();
    if (j == chain.size()) return false;
    const PathStep& s = steps[i];
    auto name_ok = [&](size_t jj) {
      return s.name == Alphabet::kNoSymbol || chain[jj] == s.name;
    };
    if (s.axis == Axis::kChild) {
      return name_ok(j) && match(i + 1, j + 1);
    }
    for (size_t jj = j; jj < chain.size(); ++jj) {
      if (name_ok(jj) && match(i + 1, jj + 1)) return true;
    }
    return false;
  };
  return match(0, 0);
}

bool AnyPathMatches(const Query& q, const std::vector<Symbol>& chain) {
  if (q.op() == Query::Op::kPath) return PathChainMatches(q.steps(), chain);
  for (const auto& steps : q.step_sets()) {
    if (PathChainMatches(steps, chain)) return true;
  }
  return false;
}

bool OracleEval(const Query& q, const NestedWord& doc) {
  switch (q.op()) {
    case Query::Op::kAnd:
      return OracleEval(q.left(), doc) && OracleEval(q.right(), doc);
    case Query::Op::kOr:
      return OracleEval(q.left(), doc) || OracleEval(q.right(), doc);
    case Query::Op::kNot:
      return !OracleEval(q.left(), doc);
    default:
      break;
  }
  std::vector<Symbol> chain;
  bool path_hit = false;
  size_t order_progress = 0;
  size_t max_depth = 0;
  for (const TaggedSymbol& t : doc.tagged()) {
    switch (t.kind) {
      case Kind::kCall:
        chain.push_back(t.symbol);
        max_depth = std::max(max_depth, chain.size());
        if ((q.op() == Query::Op::kPath || q.op() == Query::Op::kPathSet) &&
            !path_hit) {
          path_hit = AnyPathMatches(q, chain);
        }
        if (q.op() == Query::Op::kOrder &&
            order_progress < q.names().size() &&
            t.symbol == q.names()[order_progress]) {
          ++order_progress;
        }
        break;
      case Kind::kReturn:
        if (!chain.empty()) chain.pop_back();
        break;
      case Kind::kInternal:
        break;
    }
  }
  switch (q.op()) {
    case Query::Op::kPath:
    case Query::Op::kPathSet:
      return path_hit;
    case Query::Op::kOrder:
      return order_progress == q.names().size();
    case Query::Op::kMinDepth:
      return max_depth >= q.min_depth();
    default:
      return false;  // unreachable
  }
}

/// Randomly corrupts a well-formed document: drops close tags and injects
/// stray ones, producing pending calls and pending returns.
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
    if (doc[i] == '<' && rng->Chance(1, 12)) {
      out += "</zz>";
    }
    out += doc[i++];
  }
  return out;
}

Alphabet QueryAlphabet() {
  Alphabet a;
  a.Intern("a");
  a.Intern("b");
  a.Intern("c");
  a.Intern("d");
  a.Intern("#text");
  a.Intern("zz");  // appears only via Corrupt()'s stray closes
  return a;
}

/// Query shapes stressing every pass: boolean nests for the rewriter and
/// the minimizer, sibling paths for the fusion pass.
const char* kShapes[] = {
    "/a",
    "//b",
    "/a/b or /a/c",
    "/a//b/* or //c or /a/b",
    "not //b",
    "not (not //b)",
    "not (/a and not //b)",
    "not (/a/b and not (//c and not /a))",
    "not (/a and not //b) or not (//c and not /a/b)",
    "(a then b) and not (/a/b or /a/c)",
    "depth >= 3 or not (a then b then c)",
    "not (//a and //b and //c)",
};

/// Random query tree over the first `names` symbols, ≤ `depth` connectives.
Query RandomQuery(Rng* rng, const std::vector<Symbol>& names, int depth) {
  if (depth == 0 || rng->Chance(2, 5)) {
    switch (rng->Below(3)) {
      case 0: {
        std::vector<PathStep> steps;
        size_t len = 1 + rng->Below(3);
        for (size_t i = 0; i < len; ++i) {
          steps.push_back(
              {rng->Chance(1, 2) ? Axis::kChild : Axis::kDescendant,
               rng->Chance(1, 5) ? Alphabet::kNoSymbol
                                 : names[rng->Below(names.size())]});
        }
        return Query::Path(std::move(steps));
      }
      case 1:
        return Query::Order({names[rng->Below(names.size())],
                             names[rng->Below(names.size())]});
      default:
        return Query::MinDepth(1 + rng->Below(4));
    }
  }
  switch (rng->Below(3)) {
    case 0:
      return Query::And(RandomQuery(rng, names, depth - 1),
                        RandomQuery(rng, names, depth - 1));
    case 1:
      return Query::Or(RandomQuery(rng, names, depth - 1),
                       RandomQuery(rng, names, depth - 1));
    default:
      return Query::Not(RandomQuery(rng, names, depth - 1));
  }
}

/// The kShapes queries compiled UNoptimized, once per test binary — the
/// PR-1 compiler is the slow path under test here (that blow-up is the
/// optimizer's whole reason to exist), so the differential tests share
/// one compilation instead of each paying for it.
const std::vector<Nwa>& CompiledShapes(const Alphabet& sigma) {
  static const std::vector<Nwa>* cache = [&sigma] {
    auto* out = new std::vector<Nwa>();
    Alphabet local = sigma;
    for (const char* text : kShapes) {
      out->push_back(
          CompileQuery(ParseQuery(text, &local).Take(), sigma.size()));
    }
    return out;
  }();
  return *cache;
}

/// A batch of random (possibly corrupted) documents over {a,b,c,d}.
std::vector<NestedWord> RandomDocs(Rng* rng, const Alphabet& sigma,
                                   size_t count) {
  Alphabet gen;
  gen.Intern("a");
  gen.Intern("b");
  gen.Intern("c");
  gen.Intern("d");
  std::vector<NestedWord> docs;
  for (size_t i = 0; i < count; ++i) {
    std::string doc =
        RandomXmlDocument(rng, gen, 10 + rng->Below(80), 1 + rng->Below(7));
    if (rng->Chance(1, 2)) doc = Corrupt(rng, doc);
    Alphabet local = sigma;
    docs.push_back(XmlToNestedWord(doc, &local));
    EXPECT_LE(local.size(), sigma.size()) << doc;
  }
  return docs;
}

// ---------------------------------------------------------------------------
// Rewrite pass
// ---------------------------------------------------------------------------

std::string RewriteToText(const char* text, Alphabet* sigma) {
  Query q = ParseQuery(text, sigma).Take();
  return FormatQuery(RewriteQuery(q), *sigma);
}

TEST(OptRewrite, PushesNotInwardViaDeMorgan) {
  Alphabet sigma = QueryAlphabet();
  EXPECT_EQ(RewriteToText("not (/a and //b)", &sigma), "not /a or not //b");
  EXPECT_EQ(RewriteToText("not (/a or //b)", &sigma), "not /a and not //b");
  EXPECT_EQ(RewriteToText("not (not //b)", &sigma), "//b");
  EXPECT_EQ(RewriteToText("not (not (not //b))", &sigma), "not //b");
  // De Morgan recurses through alternating connectives.
  EXPECT_EQ(RewriteToText("not (/a and (depth >= 2 or not //b))", &sigma),
            "not /a or not depth >= 2 and //b");
}

TEST(OptRewrite, FlattensAndDedups) {
  Alphabet sigma = QueryAlphabet();
  EXPECT_EQ(RewriteToText("/a and /a", &sigma), "/a");
  EXPECT_EQ(RewriteToText("//b or //b or //b", &sigma), "//b");
  EXPECT_EQ(RewriteToText("(/a and //b) and /a", &sigma), "/a and //b");
  EXPECT_EQ(RewriteToText("depth >= 2 or (depth >= 2 or depth >= 2)", &sigma),
            "depth >= 2");
}

TEST(OptRewrite, FusesSiblingPathsUnderOrOnly) {
  Alphabet sigma = QueryAlphabet();
  Query fused = RewriteQuery(ParseQuery("/a/b or /a/c", &sigma).Take());
  ASSERT_EQ(fused.op(), Query::Op::kPathSet);
  EXPECT_EQ(fused.step_sets().size(), 2u);
  // The fused atom formats as the equivalent `or` chain and re-parses.
  std::string printed = FormatQuery(fused, sigma);
  EXPECT_EQ(printed, "/a/b or /a/c");
  EXPECT_TRUE(ParseQuery(printed, &sigma).ok());

  // Mixed children: the path atoms fuse, the rest stay.
  Query mixed = RewriteQuery(
      ParseQuery("/a/b or depth >= 2 or /a/c or //d", &sigma).Take());
  ASSERT_EQ(mixed.op(), Query::Op::kOr);
  EXPECT_EQ(mixed.left().op(), Query::Op::kPathSet);
  EXPECT_EQ(mixed.left().step_sets().size(), 3u);
  EXPECT_EQ(mixed.right().op(), Query::Op::kMinDepth);

  // No fusion under `and`: the matching elements may differ.
  Query conj = RewriteQuery(ParseQuery("/a/b and /a/c", &sigma).Take());
  ASSERT_EQ(conj.op(), Query::Op::kAnd);
  EXPECT_EQ(conj.left().op(), Query::Op::kPath);
  EXPECT_EQ(conj.right().op(), Query::Op::kPath);
}

TEST(OptRewrite, IsIdempotent) {
  Alphabet sigma = QueryAlphabet();
  Rng rng(99);
  std::vector<Query> queries;
  for (const char* text : kShapes) {
    queries.push_back(ParseQuery(text, &sigma).Take());
  }
  std::vector<Symbol> names = {sigma.Find("a"), sigma.Find("b"),
                               sigma.Find("c")};
  for (int i = 0; i < 20; ++i) queries.push_back(RandomQuery(&rng, names, 2));
  for (const Query& q : queries) {
    Query once = RewriteQuery(q);
    EXPECT_TRUE(RewriteQuery(once) == once) << FormatQuery(q, sigma);
  }
}

TEST(OptRewrite, PreservesTheLanguage) {
  // The oracle carries the ORIGINAL query's semantics, so compiling only
  // the rewritten form still proves the rewrite changed nothing (the
  // unrewritten compilation is validated against the same oracle by
  // tests/query_test.cc and by CompiledShapes-based tests below).
  Alphabet sigma = QueryAlphabet();
  Rng rng(4321);
  std::vector<Query> queries;
  for (const char* text : kShapes) {
    queries.push_back(ParseQuery(text, &sigma).Take());
  }
  std::vector<Symbol> names = {sigma.Find("a"), sigma.Find("b"),
                               sigma.Find("c")};
  for (int i = 0; i < 15; ++i) queries.push_back(RandomQuery(&rng, names, 2));
  std::vector<NestedWord> docs = RandomDocs(&rng, sigma, 25);
  for (const Query& q : queries) {
    Query r = RewriteQuery(q);
    Nwa rewritten = CompileQuery(r, sigma.size());
    for (const NestedWord& doc : docs) {
      EXPECT_EQ(rewritten.Accepts(doc), OracleEval(q, doc))
          << FormatQuery(q, sigma) << " rewritten to " << FormatQuery(r, sigma);
    }
  }
}

// ---------------------------------------------------------------------------
// kPathSet compilation
// ---------------------------------------------------------------------------

TEST(OptPathSet, CompilesTheUnionLanguage) {
  Alphabet sigma = QueryAlphabet();
  Symbol a = sigma.Find("a"), b = sigma.Find("b"), c = sigma.Find("c");
  std::vector<std::vector<PathStep>> sets = {
      {{Axis::kChild, a}, {Axis::kChild, b}},
      {{Axis::kChild, a}, {Axis::kDescendant, c}},
      {{Axis::kDescendant, b}, {Axis::kChild, Alphabet::kNoSymbol}},
  };
  Nwa fused = CompilePathSetNwa(sets, sigma.size());
  std::vector<Nwa> parts;
  for (const auto& steps : sets) {
    parts.push_back(CompilePathNwa(steps, sigma.size()));
  }
  Rng rng(7);
  for (const NestedWord& doc : RandomDocs(&rng, sigma, 40)) {
    bool any = false;
    for (const Nwa& p : parts) any = any || p.Accepts(doc);
    EXPECT_EQ(fused.Accepts(doc), any);
  }
}

// ---------------------------------------------------------------------------
// Minimization
// ---------------------------------------------------------------------------

TEST(OptMinimize, PreservesTheLanguageDifferentially) {
  Alphabet sigma = QueryAlphabet();
  Rng rng(2026);
  const std::vector<Nwa>& compiled = CompiledShapes(sigma);
  std::vector<Query> queries;
  Alphabet scratch = sigma;
  for (const char* text : kShapes) {
    queries.push_back(ParseQuery(text, &scratch).Take());
  }
  std::vector<NestedWord> docs = RandomDocs(&rng, sigma, 25);
  for (size_t i = 0; i < queries.size(); ++i) {
    MinimizeResult m = MinimizeNwa(compiled[i]);
    EXPECT_EQ(m.states_before, compiled[i].num_states());
    EXPECT_LE(m.states_after, m.states_before) << kShapes[i];
    for (const NestedWord& doc : docs) {
      EXPECT_EQ(m.nwa.Accepts(doc), OracleEval(queries[i], doc))
          << kShapes[i];
    }
  }
  // Random queries go through the rewriter first (the unrewritten
  // compilation of random `not` nests is the blow-up under optimization,
  // not a test fixture worth minutes of CPU); minimization must preserve
  // whatever automaton it is handed.
  std::vector<Symbol> names = {sigma.Find("a"), sigma.Find("b"),
                               sigma.Find("c")};
  for (int i = 0; i < 15; ++i) {
    Query q = RandomQuery(&rng, names, 2);
    Nwa a = CompileQuery(RewriteQuery(q), sigma.size());
    MinimizeResult m = MinimizeNwa(a);
    EXPECT_LE(m.states_after, a.num_states());
    for (const NestedWord& doc : docs) {
      EXPECT_EQ(m.nwa.Accepts(doc), OracleEval(q, doc))
          << FormatQuery(q, sigma);
    }
  }
}

TEST(OptMinimize, IsIdempotentOnItsOwnOutput) {
  Alphabet sigma = QueryAlphabet();
  for (const Nwa& compiled : CompiledShapes(sigma)) {
    MinimizeResult once = MinimizeNwa(compiled);
    MinimizeResult twice = MinimizeNwa(once.nwa);
    EXPECT_EQ(twice.states_after, once.states_after);
  }
}

TEST(OptMinimize, CollapsesTheEmptyLanguage) {
  // No final state at all: everything is dead-equivalent.
  Nwa empty(2);
  StateId q0 = empty.AddState(false);
  StateId q1 = empty.AddState(false);
  empty.set_initial(q0);
  empty.SetInternal(q0, 0, q1);
  empty.SetInternal(q1, 1, q0);
  MinimizeResult m = MinimizeNwa(empty);
  EXPECT_EQ(m.states_after, 1u);
  EXPECT_FALSE(m.nwa.Accepts(NestedWord{}));
  EXPECT_FALSE(m.nwa.Accepts(NestedWord{Internal(0)}));

  // Final states exist but are unreachable: same collapse.
  Nwa unreachable(2);
  StateId r0 = unreachable.AddState(false);
  unreachable.AddState(true);  // never targeted
  unreachable.set_initial(r0);
  EXPECT_EQ(MinimizeNwa(unreachable).states_after, 1u);
}

TEST(OptMinimize, NotHeavyFamilyShrinksAtLeastFiveFold) {
  // Regression for the optimizer's headline claim (ROADMAP item 1): the
  // compiler's Nnwa-closure round trips blow `not`-heavy queries up to
  // hundreds of states; congruence minimization alone must win back ≥5×
  // on this family. The family is also exercised (with throughput) by
  // bench/bench_query_optimizer.cc.
  const char* family[] = {
      "not //b",
      "not (/a/b or /a/c)",
      "not (//b or (a then b))",
      "not (/a/b and not //c) and not //d",
  };
  Alphabet sigma = QueryAlphabet();
  size_t before = 0, after = 0;
  for (const char* text : family) {
    Nwa compiled =
        CompileQuery(ParseQuery(text, &sigma).Take(), sigma.size());
    MinimizeResult m = MinimizeNwa(compiled);
    before += m.states_before;
    after += m.states_after;
  }
  EXPECT_GE(before, 5 * after)
      << "not-heavy family: " << before << " -> " << after;
  // And the simplest member pins its exact minimal size: `not //b` needs
  // one latch-ish live state plus small bookkeeping, not the compiler's 25.
  Nwa nb = CompileQuery(ParseQuery("not //b", &sigma).Take(), sigma.size());
  EXPECT_EQ(MinimizeNwa(nb).states_after, 5u);
}

// ---------------------------------------------------------------------------
// Shared bank + engine integration
// ---------------------------------------------------------------------------

TEST(OptBank, MatchesTheSoAPathExactly) {
  // The product is built over the EXACT same automata the SoA engine
  // steps, so any divergence is the bank's fault alone.
  Alphabet sigma = QueryAlphabet();
  const std::vector<Nwa>& compiled = CompiledShapes(sigma);
  std::vector<const Nwa*> autos;
  for (const Nwa& a : compiled) autos.push_back(&a);
  SharedBank shared(autos);

  QueryEngine soa(sigma.size());
  QueryEngine bank(sigma.size());
  soa.set_track_matches(true);
  bank.set_track_matches(true);
  for (const Nwa& a : compiled) soa.Add(&a);
  bank.AddBank(&shared);
  ASSERT_EQ(bank.num_queries(), compiled.size());
  const size_t num_queries = compiled.size();

  Rng rng(55);
  for (const NestedWord& doc : RandomDocs(&rng, sigma, 30)) {
    std::vector<bool> a = soa.RunAll(doc);
    std::vector<bool> b = bank.RunAll(doc);
    EXPECT_EQ(a, b);
    for (size_t i = 0; i < num_queries; ++i) {
      EXPECT_EQ(soa.first_match(i), bank.first_match(i))
          << "query " << i << ": " << kShapes[i];
      EXPECT_EQ(soa.dead(i), bank.dead(i)) << i;
    }
    // The bank path's resident state is depth-bounded and K-free: one
    // product state plus one StateId per pending-call frame.
    EXPECT_EQ(bank.ResidentStates(), 1 + bank.MaxStackDepth());
  }
  EXPECT_EQ(soa.traversals(), bank.traversals());
}

TEST(OptBank, FullPipelineMatchesTheOracle) {
  Alphabet sigma = QueryAlphabet();
  Rng rng(777);
  std::vector<Query> queries;
  for (const char* text : kShapes) {
    queries.push_back(ParseQuery(text, &sigma).Take());
  }
  std::vector<Symbol> names = {sigma.Find("a"), sigma.Find("b"),
                               sigma.Find("c")};
  for (int i = 0; i < 4; ++i) queries.push_back(RandomQuery(&rng, names, 2));
  OptimizedBank bank = OptimizeBank(queries, sigma.size(), OptOptions::All());
  ASSERT_NE(bank.shared, nullptr);
  EXPECT_LE(bank.states_final(), bank.states_compiled());
  QueryEngine engine(sigma.size());
  bank.Register(&engine);
  for (const NestedWord& doc : RandomDocs(&rng, sigma, 30)) {
    std::vector<bool> got = engine.RunAll(doc);
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[i], OracleEval(queries[i], doc))
          << FormatQuery(queries[i], sigma);
    }
  }
}

TEST(OptBank, StreamsXmlTextWithCatchAllRemapping) {
  Alphabet sigma;
  sigma.Intern("a");
  Symbol other = sigma.Intern("%other");
  std::vector<Query> queries = {ParseQuery("/a", &sigma).Take(),
                                ParseQuery("/*/*", &sigma).Take()};
  OptimizedBank bank = OptimizeBank(queries, sigma.size(), OptOptions::All());
  QueryEngine engine(sigma.size());
  engine.set_other_symbol(other);
  bank.Register(&engine);
  Alphabet local = sigma;
  std::vector<bool> r = engine.RunAll("<mystery><deep/></mystery>", &local);
  EXPECT_FALSE(r[0]);  // the unknown root is not named 'a'
  EXPECT_TRUE(r[1]);   // but it does have structural depth 2
}

TEST(OptBank, LiveCountDropsAsComponentsDie) {
  Alphabet sigma;
  sigma.Intern("a");
  Nwa dead(sigma.size());
  dead.set_initial(dead.AddState(true));  // no transitions: dies on input
  Nwa alive = CompileQuery(ParseQuery("//a", &sigma).Take(), sigma.size());
  std::vector<const Nwa*> autos = {&dead, &alive};
  SharedBank bank(autos);
  QueryEngine engine(sigma.size());
  engine.AddBank(&bank);
  engine.BeginStream();
  EXPECT_EQ(engine.Feed(Call(0)), 1u);  // the empty automaton died
  EXPECT_TRUE(engine.dead(0));
  EXPECT_FALSE(engine.dead(1));
  EXPECT_TRUE(engine.Accepting(1));
  EXPECT_FALSE(engine.Accepting(0));
}

// The `states_interned` stat counts every product state, the initial
// tuple the constructor interns before any sink can be attached included.
TEST(OptBank, StatesInternedStatEqualsTheStateCount) {
  Alphabet sigma;
  sigma.Intern("a");
  sigma.Intern("b");
  Nwa first = CompileQuery(ParseQuery("//a", &sigma).Take(), sigma.size());
  Nwa second = CompileQuery(ParseQuery("a then b", &sigma).Take(),
                            sigma.size());
  SharedBank bank({&first, &second});
  StatsSink sink;
  bank.set_stats(&sink);
  EXPECT_EQ(sink.bank_states.value(), bank.num_states());
  ASSERT_TRUE(bank.ExploreAll(1024));
  ASSERT_GT(bank.num_states(), 1u);
  EXPECT_EQ(sink.bank_states.value(), bank.num_states());
}

// The bank's component return rows answer every product return exactly
// as the components' own Nwa::StepReturn: a pending frame reads each
// component's hier_initial, a sink absorbs missing rules, and a dead
// component stays dead.
TEST(OptBank, ComponentReturnRowsMatchEveryComponentStep) {
  Nwa sinked(3);
  const StateId q0 = sinked.AddState();
  const StateId q1 = sinked.AddState(/*is_final=*/true);
  const StateId bottom = sinked.AddState();  // pending frames read this
  sinked.set_initial(q0);
  sinked.set_hier_initial(bottom);
  sinked.SetInternal(q0, 0, q1);
  sinked.SetInternal(q1, 1, q0);
  sinked.SetCall(q0, 0, q0, q1);
  sinked.SetCall(q1, 2, q1, q0);
  sinked.SetReturn(q0, q1, 0, q1);
  sinked.SetReturn(q1, q0, 2, q0);
  sinked.SetReturn(q0, bottom, 1, q1);
  sinked.SetReturn(q1, bottom, 2, q0);
  sinked.Totalize();  // every other step falls into the sink
  Nwa dying(3);  // partial, no sink: dies on any symbol but 0
  const StateId d0 = dying.AddState(/*is_final=*/true);
  dying.set_initial(d0);
  dying.SetInternal(d0, 0, d0);
  dying.SetCall(d0, 0, d0, d0);
  dying.SetReturn(d0, d0, 0, d0);

  SharedBank bank({&sinked, &dying});
  ASSERT_TRUE(bank.ExploreAll(1024));
  const size_t n = bank.num_states();
  size_t dead_frames = 0;
  for (StateId h = 0; h < n; ++h) {
    dead_frames += bank.component(h, 1) == kNoState;
  }
  ASSERT_GT(dead_frames, 0u);  // the second automaton died somewhere
  std::vector<StateId> frames = {kNoState};
  for (StateId h = 0; h < n; ++h) frames.push_back(h);
  for (StateId q = 0; q < n; ++q) {
    for (StateId h : frames) {
      for (Symbol a = 0; a < 3; ++a) {
        const StateId t = bank.StepReturn(q, h, a);
        for (size_t i = 0; i < 2; ++i) {
          const StateId hi = h == kNoState ? kNoState : bank.component(h, i);
          EXPECT_EQ(bank.component(t, i),
                    bank.autos()[i]->StepReturn(bank.component(q, i), hi, a))
              << "q=" << q << " h=" << h << " a=" << a << " component " << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Match positions
// ---------------------------------------------------------------------------

TEST(OptMatchPositions, ReportWhereTheAcceptStateFirstLatched) {
  Alphabet sigma = QueryAlphabet();
  std::vector<Query> queries = {
      ParseQuery("/a", &sigma).Take(),
      ParseQuery("//b", &sigma).Take(),
      ParseQuery("not //b", &sigma).Take(),
      ParseQuery("//c", &sigma).Take(),
  };
  for (bool use_bank : {false, true}) {
    OptimizedBank bank = OptimizeBank(queries, sigma.size(), [&] {
      OptOptions o = OptOptions::All();
      o.bank = use_bank;
      return o;
    }());
    QueryEngine engine(sigma.size());
    engine.set_track_matches(true);
    bank.Register(&engine);
    Alphabet local = sigma;
    // Positions:            1     2    3   4    5     6
    NestedWord doc = XmlToNestedWord("<d/><a><b/></a>", &local);
    std::vector<bool> r = engine.RunAll(doc);
    EXPECT_TRUE(r[0]);
    EXPECT_EQ(engine.first_match(0), 3) << "bank=" << use_bank;  // <a>
    EXPECT_TRUE(r[1]);
    EXPECT_EQ(engine.first_match(1), 4) << "bank=" << use_bank;  // <b>
    // `not //b` accepted the empty prefix, then stopped accepting: the
    // tap keeps the FIRST observation even though the final answer is no.
    EXPECT_FALSE(r[2]);
    EXPECT_EQ(engine.first_match(2), 0) << "bank=" << use_bank;
    EXPECT_FALSE(r[3]);
    EXPECT_EQ(engine.first_match(3), -1) << "bank=" << use_bank;
  }
}

// ---------------------------------------------------------------------------
// Pipeline driver + engine guardrails
// ---------------------------------------------------------------------------

TEST(OptPipeline, ParsesEveryLevel) {
  OptOptions o;
  ASSERT_TRUE(ParseOptLevel("none", &o));
  EXPECT_TRUE(!o.rewrite && !o.minimize && !o.bank);
  ASSERT_TRUE(ParseOptLevel("rewrite", &o));
  EXPECT_TRUE(o.rewrite && !o.minimize && !o.bank);
  ASSERT_TRUE(ParseOptLevel("min", &o));
  EXPECT_TRUE(!o.rewrite && o.minimize && !o.bank);
  ASSERT_TRUE(ParseOptLevel("bank", &o));
  EXPECT_TRUE(!o.rewrite && !o.minimize && o.bank);
  ASSERT_TRUE(ParseOptLevel("all", &o));
  EXPECT_TRUE(o.rewrite && o.minimize && o.bank);
  OptOptions before = o;
  EXPECT_FALSE(ParseOptLevel("max", &o));
  EXPECT_TRUE(o.rewrite == before.rewrite && o.minimize == before.minimize &&
              o.bank == before.bank);
}

TEST(OptEngineDeathTest, RejectsOutOfRangeCatchAllSymbol) {
  QueryEngine engine(3);
  EXPECT_DEATH(engine.set_other_symbol(3), "out of range");
  EXPECT_DEATH(engine.set_other_symbol(Alphabet::kNoSymbol), "out of range");
}

}  // namespace
}  // namespace nw
