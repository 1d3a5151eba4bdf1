// Tests for the parallel serving layer (src/serve): frozen snapshots of a
// pre-explored shared bank must answer exactly like the live bank, the
// mutex-guarded overflow path must make correctness independent of
// training coverage, and sharded evaluation at any thread count must
// produce results identical to the single-stream engine — acceptance,
// first-match positions, and per-document position counts — over
// well-formed AND malformed documents.
#include "serve/sharded.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/stats.h"
#include "opt/pipeline.h"
#include "query/engine.h"
#include "query/nwquery.h"
#include "serve/frozen_bank.h"
#include "stream/tree_gen.h"
#include "support/rng.h"
#include "xml/xml.h"

namespace nw {
namespace {

// A bank mixing every atom kind plus `not`-heavy members (the ones whose
// product states churn the most under streaming). The tests below freeze
// it after little or no training — exactly the case the overflow
// fallback exists for.
std::vector<std::string> RichQueryTexts() {
  return {
      "/a",
      "//b",
      "/a/b or /a/c or //d",
      "a then c",
      "depth >= 3",
      "not //e",
      "not (/a and not //b)",
      "//a/*/b",
  };
}

// A small bank whose reachable product closes in well under a
// millisecond; a completed ExploreAll guarantees a miss-free snapshot.
std::vector<std::string> SmallQueryTexts() {
  return {"/a", "//b", "a then c", "depth >= 3"};
}

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

struct Workload {
  Alphabet alphabet;
  std::vector<Query> queries;
  Symbol other = Alphabet::kNoSymbol;
  size_t num_symbols = 0;
  OptimizedBank bank;  ///< rewrite+min automata plus the shared product

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
    if (doc[i] == '<' && rng->Chance(1, 12)) out += "</stray>";
    out += doc[i++];
  }
  return out;
}

/// `n` random documents of varying size and depth; every third one is
/// corrupted (malformed-document shards are part of the contract).
std::vector<std::string> MakeCorpus(size_t n, uint64_t seed) {
  Alphabet gen;
  for (const char* name : {"a", "b", "c", "d", "e", "unlisted"}) {
    gen.Intern(name);
  }
  Rng rng(seed);
  std::vector<std::string> corpus;
  for (size_t i = 0; i < n; ++i) {
    std::string doc =
        RandomXmlDocument(&rng, gen, 150 + (i % 5) * 120, 3 + i % 9);
    if (i % 3 == 2) doc = Corrupt(&rng, doc);
    corpus.push_back(std::move(doc));
  }
  return corpus;
}

/// Single-stream reference: the SoA engine (independent of the shared
/// bank, so freezing/exploring the product cannot contaminate it).
std::vector<DocResult> ReferenceResults(const Workload& w,
                                        const std::vector<std::string>& docs) {
  QueryEngine engine(w.num_symbols);
  engine.set_other_symbol(w.other);
  engine.set_track_matches(true);
  for (const OptimizedQuery& q : w.bank.queries) engine.Add(&q.nwa);
  Alphabet local = w.alphabet;
  std::vector<DocResult> out(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    size_t before = engine.positions();
    out[i].accept = engine.RunAll(docs[i], &local);
    out[i].positions = engine.positions() - before;
    out[i].first_match.resize(engine.num_queries());
    for (size_t q = 0; q < engine.num_queries(); ++q) {
      out[i].first_match[q] = engine.first_match(q);
    }
  }
  return out;
}

void ExpectSameResults(const std::vector<DocResult>& want,
                       const std::vector<DocResult>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].accept, got[i].accept) << "doc " << i;
    EXPECT_EQ(want[i].first_match, got[i].first_match) << "doc " << i;
    EXPECT_EQ(want[i].positions, got[i].positions) << "doc " << i;
  }
}

TEST(FrozenBank, SnapshotAnswersLikeTheLiveBank) {
  Workload w(SmallQueryTexts());
  SharedBank* shared = w.bank.shared.get();
  ASSERT_TRUE(shared->ExploreAll(1u << 20));
  FrozenBank frozen = FrozenBank::Freeze(*shared);
  ASSERT_EQ(frozen.num_states(), shared->num_states());
  EXPECT_EQ(frozen.initial(), shared->initial());
  for (StateId q = 0; q < frozen.num_states(); ++q) {
    EXPECT_EQ(frozen.live(q), shared->live(q));
    for (size_t id = 0; id < frozen.num_queries(); ++id) {
      EXPECT_EQ(frozen.accepting(q, id), shared->accepting(q, id));
      EXPECT_EQ(frozen.component(q, id), shared->component(q, id));
    }
    for (Symbol a = 0; a < frozen.num_symbols(); ++a) {
      EXPECT_EQ(frozen.PeekInternal(q, a), shared->PeekInternal(q, a));
      EXPECT_EQ(frozen.PeekCallLinear(q, a), shared->PeekCallLinear(q, a));
      EXPECT_EQ(frozen.PeekCallHier(q, a), shared->PeekCallHier(q, a));
    }
    EXPECT_EQ(frozen.FindTuple(frozen.tuple(q)), q);
  }
  for (const SharedBank::MemoReturn& r : shared->MemoizedReturns()) {
    EXPECT_EQ(frozen.Return(r.from, r.hier, r.symbol), r.target);
  }
}

// A snapshot of a bank trained by streaming has partial return rows: it
// must answer every memoized return, miss (kNoState) on every step the
// training never took, and still serve exactly what a cold snapshot does.
TEST(FrozenBank, TrainedSnapshotHasPartialRowsAndServesLikeACold) {
  Workload trained(RichQueryTexts());
  SharedBank* shared = trained.bank.shared.get();
  QueryEngine trainer(trained.num_symbols);
  trainer.set_other_symbol(trained.other);
  trainer.AddBank(shared);
  Alphabet train_alpha = trained.alphabet;
  for (const std::string& doc : MakeCorpus(12, 41)) {
    trainer.RunAll(doc, &train_alpha);
  }
  FrozenBank frozen = FrozenBank::Freeze(*shared);
  ASSERT_EQ(frozen.num_states(), shared->num_states());
  for (StateId q = 0; q < frozen.num_states(); ++q) {
    EXPECT_EQ(frozen.FindTuple(frozen.tuple(q)), q);
  }

  const std::vector<SharedBank::MemoReturn> memo = shared->MemoizedReturns();
  ASSERT_FALSE(memo.empty());
  std::set<std::tuple<StateId, StateId, Symbol>> taken;
  std::set<std::pair<StateId, StateId>> contexts;
  for (const SharedBank::MemoReturn& r : memo) {
    EXPECT_EQ(frozen.Return(r.from, r.hier, r.symbol), r.target);
    taken.emplace(r.from, r.hier, r.symbol);
    contexts.emplace(r.from, r.hier);
  }
  size_t untaken = 0;
  for (const auto& [q, h] : contexts) {
    for (Symbol a = 0; a < frozen.num_symbols(); ++a) {
      if (taken.count({q, h, a}) != 0) continue;
      EXPECT_EQ(frozen.Return(q, h, a), kNoState);
      ++untaken;
    }
  }
  EXPECT_GT(untaken, 0u);  // training left some rows partial
  size_t never = 0;
  for (StateId q = 0; q < frozen.num_states(); ++q) {
    for (StateId h = 0; h < frozen.num_states(); ++h) {
      if (contexts.count({q, h}) != 0) continue;
      for (Symbol a = 0; a < frozen.num_symbols(); ++a) {
        EXPECT_EQ(frozen.Return(q, h, a), kNoState);
      }
      ++never;
    }
  }
  EXPECT_GT(never, 0u);

  Workload cold(RichQueryTexts());
  FrozenBank cold_frozen = FrozenBank::Freeze(*cold.bank.shared);
  std::vector<std::string> docs = MakeCorpus(36, 43);
  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ShardedEvaluator want_ev(&cold_frozen, cold.num_symbols, cold.other,
                             threads);
    ShardedEvaluator got_ev(&frozen, trained.num_symbols, trained.other,
                            threads);
    ExpectSameResults(want_ev.EvaluateCorpus(docs, cold.alphabet, true),
                      got_ev.EvaluateCorpus(docs, trained.alphabet, true));
    EXPECT_GT(got_ev.stats().frozen_hits, 0u);
    EXPECT_GT(got_ev.stats().frozen_misses, 0u);
  }
}

// Everything a snapshot answers, read through its const lookups.
struct SnapshotAnswers {
  size_t num_states = 0;
  std::vector<uint64_t> accepts;
  std::vector<StateId> steps;  ///< internal, call-linear, call-hier cells
  std::vector<StateId> returns;  ///< every (q, h ∈ {pending} ∪ states, a)
  std::vector<StateId> found;  ///< FindTuple of each state's own tuple

  explicit SnapshotAnswers(const SharedBank& b) : num_states(b.num_states()) {
    const StateId n = static_cast<StateId>(b.num_states());
    const Symbol sigma = static_cast<Symbol>(b.num_symbols());
    for (StateId q = 0; q < n; ++q) {
      accepts.insert(accepts.end(), b.accepts(q),
                     b.accepts(q) + b.accept_words());
      for (Symbol a = 0; a < sigma; ++a) {
        steps.push_back(b.PeekInternal(q, a));
        steps.push_back(b.PeekCallLinear(q, a));
        steps.push_back(b.PeekCallHier(q, a));
        returns.push_back(b.Return(q, kNoState, a));
        for (StateId h = 0; h < n; ++h) returns.push_back(b.Return(q, h, a));
      }
      found.push_back(b.FindTuple(b.tuple(q)));
    }
  }
  bool operator==(const SnapshotAnswers&) const = default;
};

// The daemon refreshes its live bank while shards serve the previous
// epoch's snapshot, so a snapshot must own its tables: training and
// exploring the live bank after the freeze must change no answer of it.
TEST(FrozenBank, SnapshotIsIndependentOfTheLiveBank) {
  Workload w(SmallQueryTexts());
  SharedBank* live = w.bank.shared.get();
  QueryEngine trainer(w.num_symbols);
  trainer.set_other_symbol(w.other);
  trainer.AddBank(live);
  Alphabet alpha = w.alphabet;
  trainer.RunAll(MakeCorpus(1, 17)[0], &alpha);
  std::shared_ptr<const FrozenBank> frozen = FrozenBank::FreezeShared(*live);
  const SnapshotAnswers at_freeze(*frozen);
  EXPECT_EQ(at_freeze.found.size(), at_freeze.num_states);
  for (size_t q = 0; q < at_freeze.found.size(); ++q) {
    EXPECT_EQ(at_freeze.found[q], q);
  }

  for (const std::string& doc : MakeCorpus(12, 19)) {
    trainer.RunAll(doc, &alpha);
  }
  ASSERT_TRUE(live->ExploreAll(1u << 20));
  ASSERT_GT(live->num_states(), at_freeze.num_states);
  // A tuple the live bank interned after the freeze stays unknown.
  EXPECT_EQ(frozen->FindTuple(live->tuple(live->num_states() - 1)), kNoState);
  EXPECT_TRUE(SnapshotAnswers(*frozen) == at_freeze);
}

std::string Render(const std::vector<TreeNode>& forest, InputFormat format) {
  switch (format) {
    case InputFormat::kJson: return RenderJson(forest);
    case InputFormat::kTrace: return RenderTrace(forest);
    default: return RenderXml(forest);
  }
}

/// Corrupts a rendered document in its own syntax: drops about one
/// closer in five and injects stray closers, so every front end streams
/// pending calls and pending returns.
std::string CorruptRendered(Rng* rng, const std::string& doc,
                            InputFormat format) {
  if (format == InputFormat::kXml) return Corrupt(rng, doc);
  std::string out;
  if (format == InputFormat::kJson) {
    for (char c : doc) {
      if ((c == '}' || c == ']') && rng->Chance(1, 5)) continue;
      if (c == '"' && rng->Chance(1, 12)) out += '}';
      out += c;
    }
    return out;
  }
  // Trace: space-separated tokens; `x>` closes frame x.
  size_t i = 0;
  while (i < doc.size()) {
    size_t end = doc.find(' ', i);
    if (end == std::string::npos) end = doc.size();
    const std::string token = doc.substr(i, end - i);
    i = end + 1;
    if (rng->Chance(1, 12)) out += "h> ";
    const bool closer = token.size() > 1 && token.back() == '>' &&
                        token.front() != '<';
    if (closer && rng->Chance(1, 5)) continue;
    out += token;
    out += ' ';
  }
  return out;
}

TEST(FrozenBank, ExhaustiveExplorationNeverMisses) {
  Workload w(SmallQueryTexts());
  ASSERT_TRUE(w.bank.shared->ExploreAll(1u << 20));
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  ShardedEvaluator evaluator(&frozen, w.num_symbols, w.other, 2);
  std::vector<std::string> corpus = MakeCorpus(24, 99);
  evaluator.EvaluateCorpus(corpus, w.alphabet, true);
  EXPECT_EQ(evaluator.stats().frozen_misses, 0u);
  EXPECT_EQ(evaluator.stats().hit_rate(), 1.0);
  EXPECT_GT(evaluator.stats().frozen_hits, 0u);

  // Prefixes of the standard bank over corrupted documents in all three
  // formats: the reachable-context closure must cover every step any
  // stream takes, and serve exactly what a cold snapshot (every step an
  // overflow) computes.
  const std::vector<std::string> names = {"a", "b", "c", "d", "e",
                                          "f", "g", "h", "item"};
  for (size_t k : {4u, 6u, 8u}) {
    Workload explored(StandardBankQueries(k));
    Workload cold(StandardBankQueries(k));
    ASSERT_TRUE(explored.bank.shared->ExploreAll(1u << 20));
    if (k == 6) {
      // Size pin: the reachable part is 141 states and 3,241 returns;
      // pairing every state with every frame would take 3,096 states and
      // 22.4M returns.
      EXPECT_LE(explored.bank.shared->num_states(), 256u);
      EXPECT_LE(explored.bank.shared->MemoizedReturns().size(), 8192u);
    }
    FrozenBank complete = FrozenBank::Freeze(*explored.bank.shared);
    FrozenBank cold_frozen = FrozenBank::Freeze(*cold.bank.shared);
    for (InputFormat format :
         {InputFormat::kXml, InputFormat::kJson, InputFormat::kTrace}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " format=" +
                   InputFormatName(format));
      Rng rng(300 + k);
      std::vector<std::string> docs;
      for (size_t i = 0; i < 30; ++i) {
        std::string doc = Render(RandomForest(&rng, names, 60 + i * 20,
                                              2 + i % 10),
                                 format);
        if (i % 5 == 4) doc = CorruptRendered(&rng, doc, format);
        docs.push_back(std::move(doc));
      }
      ShardedEvaluator want_ev(&cold_frozen, cold.num_symbols, cold.other,
                               2, format);
      ShardedEvaluator got_ev(&complete, explored.num_symbols,
                              explored.other, 2, format);
      std::vector<DocResult> want =
          want_ev.EvaluateCorpus(docs, cold.alphabet, true);
      std::vector<DocResult> got =
          got_ev.EvaluateCorpus(docs, explored.alphabet, true);
      ExpectSameResults(want, got);
      EXPECT_EQ(got_ev.stats().frozen_misses, 0u);
      EXPECT_GT(got_ev.stats().frozen_hits, 0u);
    }
  }
}

// A state that only a pending return reaches: a return at top level reads
// the hier_initial frame, and the closure must go on from its target.
TEST(FrozenBank, ExplorationContinuesAfterPendingReturns) {
  Nwa nwa(1);
  const StateId q0 = nwa.AddState();
  const StateId frame = nwa.AddState();
  const StateId pending = nwa.AddState();  // read by pending returns only
  const StateId after = nwa.AddState(/*is_final=*/true);
  nwa.set_initial(q0);
  nwa.set_hier_initial(pending);
  for (StateId q : {q0, after}) {
    nwa.SetInternal(q, 0, q);
    nwa.SetCall(q, 0, q, frame);
    nwa.SetReturn(q, frame, 0, q);
    nwa.SetReturn(q, pending, 0, after);
  }
  SharedBank bank({&nwa});
  ASSERT_TRUE(bank.ExploreAll(64));
  FrozenBank frozen = FrozenBank::Freeze(bank);
  const StateId t = frozen.Return(frozen.initial(), kNoState, 0);
  ASSERT_NE(t, kNoState);
  EXPECT_TRUE(frozen.accepting(t, 0));
  EXPECT_NE(frozen.PeekInternal(t, 0), kNoState);
  EXPECT_NE(frozen.PeekCallLinear(t, 0), kNoState);
  EXPECT_NE(frozen.Return(t, frozen.PeekCallHier(t, 0), 0), kNoState);
}

TEST(FrozenBank, OverflowMapsBackIntoFrozenSpace) {
  Workload w(SmallQueryTexts());
  ASSERT_TRUE(w.bank.shared->ExploreAll(1u << 20));
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  // The snapshot covers every step a run can take, so every overflow
  // step from a reachable context lands on a tuple that exists in frozen
  // space and must come back as an untagged frozen id equal to the
  // snapshot's own answer.
  OverflowBank overflow(&frozen);
  StateId q = frozen.initial();
  for (Symbol a = 0; a < frozen.num_symbols(); ++a) {
    StateId via_overflow = overflow.StepInternal(q, a);
    EXPECT_FALSE(OverflowBank::IsOverflowId(via_overflow));
    EXPECT_EQ(via_overflow, frozen.PeekInternal(q, a));
    StateId h1, h2;
    StateId lin = overflow.StepCall(q, a, &h1);
    EXPECT_EQ(lin, frozen.PeekCallLinear(q, a));
    h2 = frozen.PeekCallHier(q, a);
    EXPECT_EQ(h1, h2);
    // The call just entered `lin` under frame `h2`: returning from there
    // is a step runs take, so the snapshot holds it.
    ASSERT_NE(frozen.Return(lin, h2, a), kNoState);
    EXPECT_EQ(overflow.StepReturn(lin, h2, a), frozen.Return(lin, h2, a));
  }
  EXPECT_GT(overflow.steps(), 0u);
}

// The tentpole differential: sharded evaluation at N ∈ {1, 2, 8} threads
// must equal the single-stream engine bit for bit.
TEST(ShardedEvaluator, MatchesSingleStreamAtEveryThreadCount) {
  Workload w(SmallQueryTexts());
  std::vector<std::string> corpus = MakeCorpus(64, 7);
  std::vector<DocResult> want = ReferenceResults(w, corpus);
  ASSERT_TRUE(w.bank.shared->ExploreAll(1u << 20));
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  for (size_t threads : {1u, 2u, 8u}) {
    ShardedEvaluator evaluator(&frozen, w.num_symbols, w.other, threads);
    std::vector<DocResult> got =
        evaluator.EvaluateCorpus(corpus, w.alphabet, true);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameResults(want, got);
  }
}

// Freeze on a training corpus that misses most of what evaluation sees:
// the overflow fallback must keep results identical while the stats
// report real misses.
TEST(ShardedEvaluator, OverflowFallbackKeepsResultsIdentical) {
  Workload w(RichQueryTexts());
  std::vector<std::string> corpus = MakeCorpus(48, 21);
  std::vector<DocResult> want = ReferenceResults(w, corpus);
  // Train on two tiny shallow documents only.
  QueryEngine trainer(w.num_symbols);
  trainer.set_other_symbol(w.other);
  trainer.AddBank(w.bank.shared.get());
  Alphabet train_alpha = w.alphabet;
  for (const std::string& doc : {std::string("<a><b>x</b></a>"),
                                 std::string("<c/>")}) {
    trainer.RunAll(doc, &train_alpha);
  }
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  for (size_t threads : {1u, 2u, 8u}) {
    ShardedEvaluator evaluator(&frozen, w.num_symbols, w.other, threads);
    std::vector<DocResult> got =
        evaluator.EvaluateCorpus(corpus, w.alphabet, true);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameResults(want, got);
    EXPECT_GT(evaluator.stats().frozen_misses, 0u);
    EXPECT_LT(evaluator.stats().hit_rate(), 1.0);
  }
}

// The extreme coverage gap: freeze a bank nothing was ever streamed
// through — only the initial state is frozen, every step overflows.
TEST(ShardedEvaluator, UntrainedFreezeStillCorrect) {
  Workload w(RichQueryTexts());
  std::vector<std::string> corpus = MakeCorpus(16, 5);
  std::vector<DocResult> want = ReferenceResults(w, corpus);
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  ASSERT_EQ(frozen.num_states(), 1u);
  ShardedEvaluator evaluator(&frozen, w.num_symbols, w.other, 4);
  std::vector<DocResult> got =
      evaluator.EvaluateCorpus(corpus, w.alphabet, true);
  ExpectSameResults(want, got);
  EXPECT_EQ(evaluator.stats().frozen_hits, 0u);
}

TEST(ShardedEvaluator, EmptyCorpus) {
  Workload w(SmallQueryTexts());
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  ShardedEvaluator evaluator(&frozen, w.num_symbols, w.other, 4);
  std::vector<DocResult> got =
      evaluator.EvaluateCorpus({}, w.alphabet, true);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(evaluator.stats().documents, 0u);
  EXPECT_EQ(evaluator.stats().hit_rate(), 1.0);
}

TEST(SplitTopLevel, ChunksConcatenateToTheInput) {
  const std::string doc =
      "<!-- preamble --><a><b>x</b></a>stray text<c/><d><e/>"
      "<!-- <f> inside comment --></d></weird><g><unclosed>";
  std::vector<std::string> chunks = SplitTopLevel(doc);
  std::string joined;
  for (const std::string& c : chunks) joined += c;
  EXPECT_EQ(joined, doc);
  // <a>…</a> (with the preamble comment), <c/> (with the stray text),
  // <d>…</d>, the stray </weird>, and the trailing unclosed spill.
  ASSERT_EQ(chunks.size(), 5u);
  EXPECT_EQ(chunks[0], "<!-- preamble --><a><b>x</b></a>");
  EXPECT_EQ(chunks[1], "stray text<c/>");
  EXPECT_EQ(chunks[2], "<d><e/><!-- <f> inside comment --></d>");
  EXPECT_EQ(chunks[3], "</weird>");
  EXPECT_EQ(chunks[4], "<g><unclosed>");
}

TEST(SplitTopLevel, RecordStreamShardsLikeACorpus) {
  // One huge record-stream document splits into records; evaluating the
  // records as a sharded corpus equals evaluating each alone.
  std::string doc;
  for (int i = 0; i < 12; ++i) {
    doc += i % 2 == 0 ? "<a><b>x</b></a>" : "<c><d/></c>";
  }
  std::vector<std::string> records = SplitTopLevel(doc);
  ASSERT_EQ(records.size(), 12u);
  Workload w(SmallQueryTexts());
  std::vector<DocResult> want = ReferenceResults(w, records);
  ASSERT_TRUE(w.bank.shared->ExploreAll(1u << 20));
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  ShardedEvaluator evaluator(&frozen, w.num_symbols, w.other, 8);
  ExpectSameResults(want,
                    evaluator.EvaluateCorpus(records, w.alphabet, true));
}

TEST(SplitTopLevel, UnstructuredInputIsOneChunk) {
  EXPECT_EQ(SplitTopLevel("just text, no tags"),
            std::vector<std::string>{"just text, no tags"});
  EXPECT_EQ(SplitTopLevel(""), std::vector<std::string>{""});
}

TEST(ShardedEvaluator, AttachedRegistryAccountsForTheWholeCorpus) {
  Workload w(RichQueryTexts());
  std::vector<std::string> corpus = MakeCorpus(24, 99);
  std::vector<DocResult> want = ReferenceResults(w, corpus);
  FrozenBank frozen = FrozenBank::Freeze(*w.bank.shared);
  ShardedEvaluator evaluator(&frozen, w.num_symbols, w.other, 4);
  StatsRegistry registry;
  evaluator.AttachStats(&registry);
  std::vector<DocResult> got =
      evaluator.EvaluateCorpus(corpus, w.alphabet, true);
  ExpectSameResults(want, got);  // instrumentation never changes results
  // Per-shard tallies must account for every document and byte exactly.
  StatsSink agg;
  registry.Aggregate(&agg);
  size_t total_bytes = 0;
  for (const std::string& doc : corpus) total_bytes += doc.size();
  EXPECT_EQ(agg.shard_docs.value(), corpus.size());
  EXPECT_EQ(agg.shard_bytes.value(), total_bytes);
  EXPECT_GT(agg.shard_positions.value(), 0u);
  // The registry's frozen counters agree with the legacy ServeStats.
  ServeStats stats = evaluator.stats();
  EXPECT_EQ(agg.frozen_hits.value(), stats.frozen_hits);
  EXPECT_EQ(agg.frozen_misses.value(), stats.frozen_misses);
  // Utilization of every shard renders as a number in [0, 1].
  std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"label\":\"shard/0\""), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"shard/3\""), std::string::npos);
  // A second corpus pass keeps accumulating into the same sinks.
  evaluator.EvaluateCorpus(corpus, w.alphabet, true);
  StatsSink agg2;
  registry.Aggregate(&agg2);
  EXPECT_EQ(agg2.shard_docs.value(), 2 * corpus.size());
  EXPECT_EQ(agg2.frozen_hits.value() + agg2.frozen_misses.value(),
            2 * (stats.frozen_hits + stats.frozen_misses));
}

}  // namespace
}  // namespace nw
