// E-DAEMON — the resident daemon's serving economics: what online
// admission costs, what the cold epoch's overflow detour costs, and how
// completely the background refresh restores snapshot coverage.
//
//   * lifecycle — one ADMIT against a standing K-query bank: the cold
//     epoch serves immediately (hit rate 0 — every step takes the
//     overflow path, correct but slow), the refresh explores a complete
//     partition, and the refreshed epoch serves the same corpus at hit
//     rate 1.0. The cold/refreshed hit rates are
//     structural (bench_diff fails on drift); the phase walls are
//     timing.
//   * dispatch overhead — the same corpus through the daemon's
//     queue/promise submit path vs a direct ShardedEvaluator pass on
//     the same snapshot: the price of the resident front door.
//
// Acceptance bar (full runs): refreshed hit rate is exactly 1.0 — the
// refreshed partition is complete, so no step can miss.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "daemon/daemon.h"
#include "obs/bench_report.h"
#include "obs/pulse.h"
#include "opt/pipeline.h"
#include "query/nwquery.h"
#include "serve/frozen_bank.h"
#include "serve/sharded.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "support/table.h"
#include "xml/xml.h"

namespace {

using namespace nw;

/// Same query family as bench_sharded_eval's bank.
std::vector<std::string> BankQueries(size_t k) {
  const char* names[] = {"a", "b", "c", "d", "e", "f", "g", "h"};
  constexpr size_t n = sizeof(names) / sizeof(names[0]);
  std::vector<std::string> out;
  for (size_t i = 0; out.size() < k; ++i) {
    const std::string x = names[i % n];
    const std::string y = names[(i + 1 + i / n) % n];
    switch (i % 4) {
      case 0: out.push_back("/" + x); break;
      case 1: out.push_back("//" + y); break;
      case 2: out.push_back("/" + x + "/" + y); break;
      default: out.push_back("/" + x + "//" + y); break;
    }
  }
  return out;
}

std::vector<std::string> MakeCorpus(size_t docs, size_t positions) {
  Alphabet gen;
  for (const char* n : {"a", "b", "c", "d", "e", "f", "g", "h"}) {
    gen.Intern(n);
  }
  Rng rng(23);
  std::vector<std::string> corpus;
  for (size_t d = 0; d < docs; ++d) {
    corpus.push_back(RandomXmlDocument(&rng, gen, positions, 12));
  }
  return corpus;
}

struct HitDelta {
  uint64_t hits = 0;
  uint64_t misses = 0;
  double rate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

double SubmitCorpus(DaemonCore* core, const std::vector<std::string>& corpus) {
  Stopwatch sw;
  for (const std::string& doc : corpus) {
    (void)core->Submit(doc, InputFormat::kXml).Take();
  }
  return sw.ElapsedMs();
}

HitDelta FrozenDelta(const StatsSnapshot& a, const StatsSnapshot& b) {
  SinkSnapshot agg = SnapshotDelta(a, b).Aggregate();
  return {agg.counter("frozen_hits"), agg.counter("frozen_misses")};
}

/// Streams the corpus while the background refresher races: per-document
/// snapshot deltas are attributed to `cold` only when that document was
/// served by a still-unrefreshed epoch (the refresher writes no frozen
/// counters, so the delta is the document's own steps). Returns
/// how many documents landed cold — the refresher usually publishes
/// mid-corpus, and the whole point is to measure only the overflow-path
/// documents.
size_t ColdPass(DaemonCore* core, const std::vector<std::string>& corpus,
                HitDelta* cold, double* wall_ms) {
  size_t cold_docs = 0;
  Stopwatch sw;
  for (const std::string& doc : corpus) {
    StatsSnapshot before = CaptureSnapshot(core->registry());
    SubmitOutcome outcome = core->Submit(doc, InputFormat::kXml).Take();
    StatsSnapshot after = CaptureSnapshot(core->registry());
    if (!outcome.epoch->refreshed) {
      HitDelta d = FrozenDelta(before, after);
      cold->hits += d.hits;
      cold->misses += d.misses;
      ++cold_docs;
    }
  }
  *wall_ms = sw.ElapsedMs();
  return cold_docs;
}

void LifecycleTable(const BenchConfig& cfg, BenchReport* report) {
  const size_t kQueries = 8;
  const size_t kDocs = cfg.quick ? 16 : 32;
  const size_t kPositions = cfg.quick ? 1u << 10 : 1u << 12;
  const size_t kThreads = 4;

  DaemonOptions options;
  options.threads = kThreads;
  Stopwatch startup_sw;
  DaemonCore core(BankQueries(kQueries), options);
  NW_CHECK(core.ok());
  core.Start();
  double startup_ms = startup_sw.ElapsedMs();

  std::vector<std::string> corpus = MakeCorpus(kDocs, kPositions);

  // Steady state: the standing bank serves its traffic (and fills the
  // replay reservoir the upcoming refresh will train on).
  double steady_ms = SubmitCorpus(&core, corpus);

  // Online admission (the compile-bound control op), then the corpus
  // against the cold epoch. The refresher publishes concurrently, so
  // ColdPass attributes per-document; if it publishes before even the
  // FIRST document (possible on an oversubscribed host), retire the
  // query and re-admit so `admitted_queries` stays deterministic.
  double admit_ms = 0;
  double cold_ms = 0;
  HitDelta cold;
  size_t cold_docs = 0;
  for (int attempt = 0; attempt < 5 && cold_docs == 0; ++attempt) {
    Stopwatch admit_sw;
    Result<uint64_t> qid = core.Admit("//g/admitted");
    NW_CHECK(qid.ok());
    admit_ms = admit_sw.ElapsedMs();
    cold = HitDelta();
    cold_docs = ColdPass(&core, corpus, &cold, &cold_ms);
    if (cold_docs == 0) {
      NW_CHECK(core.Retire(*qid).ok());
      core.AwaitRefresh();
    }
  }
  NW_CHECK_MSG(cold_docs > 0, "refresher beat every cold document 5 times");

  // Background refresh, then the same corpus against the new snapshot.
  Stopwatch refresh_sw;
  core.AwaitRefresh();
  double refresh_ms = refresh_sw.ElapsedMs();
  StatsSnapshot before = CaptureSnapshot(core.registry());
  double refreshed_ms = SubmitCorpus(&core, corpus);
  StatsSnapshot after = CaptureSnapshot(core.registry());
  HitDelta warm = FrozenDelta(before, after);

  EpochMetrics metrics = core.Metrics();
  core.DrainAndStop();

  Table t("E-DAEMON: admission lifecycle (K=" + std::to_string(kQueries) +
          "+1, " + std::to_string(kDocs) + " docs, threads=" +
          std::to_string(kThreads) + ")");
  t.Header({"phase", "wall_ms", "hit_rate"});
  t.Row({"startup (compile+warm freeze)", Table::Dbl(startup_ms, 1), "-"});
  t.Row({"steady serve", Table::Dbl(steady_ms, 1), "-"});
  t.Row({"admit (cold publish)", Table::Dbl(admit_ms, 1), "-"});
  t.Row({"cold serve (overflow path)", Table::Dbl(cold_ms, 1),
         Table::Dbl(cold.rate(), 4)});
  t.Row({"refresh (replay + explore)", Table::Dbl(refresh_ms, 1), "-"});
  t.Row({"refreshed serve", Table::Dbl(refreshed_ms, 1),
         Table::Dbl(warm.rate(), 4)});
  if (cfg.print()) t.Print();

  report->Metric("startup_ms", startup_ms);
  report->Metric("admit_ms", admit_ms);
  report->Metric("refresh_ms", refresh_ms);
  report->Metric("cold_serve_ms", cold_ms);
  report->Metric("refreshed_serve_ms", refreshed_ms);
  // Structural: the cold snapshot holds only the initial state (every
  // step overflows), the refresh must restore total coverage of the
  // replayed traffic.
  report->Metric("cold_hit_rate", cold.rate());
  report->Metric("refreshed_hit_rate", warm.rate());
  report->Metric("admitted_queries", static_cast<double>(metrics.queries));
  if (!cfg.quick) {
    NW_CHECK(warm.rate() == 1.0);
    NW_CHECK(cold.rate() == 0.0);
  }
}

void OverheadTable(const BenchConfig& cfg, BenchReport* report) {
  const size_t kQueries = 8;
  const size_t kDocs = cfg.quick ? 16 : 32;
  const size_t kPositions = cfg.quick ? 1u << 10 : 1u << 12;
  const size_t kThreads = 4;
  const int kReps = cfg.quick ? 2 : 4;

  DaemonOptions options;
  options.threads = kThreads;
  DaemonCore core(BankQueries(kQueries), options);
  NW_CHECK(core.ok());
  core.Start();
  std::vector<std::string> corpus = MakeCorpus(kDocs, kPositions);

  // Refresh so both paths serve a complete partition and measure
  // dispatch, not overflow.
  SubmitCorpus(&core, corpus);
  core.AwaitRefresh();

  double daemon_ms = 0;
  for (int r = 0; r < kReps; ++r) {
    daemon_ms += SubmitCorpus(&core, corpus);
  }
  daemon_ms /= kReps;

  // Direct pass over the SAME epoch snapshot — no queue, no promises.
  std::shared_ptr<const DaemonEpoch> epoch = core.current_epoch();
  ShardedEvaluator direct(epoch->frozen.get(), epoch->num_symbols,
                          epoch->alphabet.Find("%other"), kThreads);
  direct.EvaluateCorpus(corpus, epoch->alphabet, true);  // warm-up
  Stopwatch sw;
  for (int r = 0; r < kReps; ++r) {
    benchmark::DoNotOptimize(
        direct.EvaluateCorpus(corpus, epoch->alphabet, true));
  }
  double direct_ms = sw.ElapsedMs() / kReps;
  core.DrainAndStop();

  double overhead = daemon_ms / direct_ms;
  Table t("E-DAEMON: dispatch overhead — daemon submit path vs direct "
          "sharded pass over the same snapshot");
  t.Header({"path", "corpus_ms", "ratio"});
  t.Row({"direct ShardedEvaluator", Table::Dbl(direct_ms, 2),
         Table::Dbl(1.0, 2)});
  t.Row({"daemon submit (one-doc batches)", Table::Dbl(daemon_ms, 2),
         Table::Dbl(overhead, 2)});
  if (cfg.print()) t.Print();
  report->Metric("daemon_overhead", overhead);
}

void BM_DaemonSubmit(benchmark::State& state) {
  static DaemonCore* core = [] {
    DaemonOptions options;
    options.threads = 4;
    auto* c = new DaemonCore(BankQueries(8), options);
    NW_CHECK(c->ok());
    c->Start();
    return c;
  }();
  static std::vector<std::string> corpus = [] {
    std::vector<std::string> docs = MakeCorpus(16, 1u << 11);
    for (const std::string& doc : docs) {
      (void)core->Submit(doc, InputFormat::kXml);
    }
    core->AwaitRefresh();
    return docs;
  }();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core->Submit(corpus[i++ % corpus.size()], InputFormat::kXml));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DaemonSubmit)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = ParseBenchConfig(&argc, argv);
  BenchReport report("bench_daemon");
  LifecycleTable(cfg, &report);
  OverheadTable(cfg, &report);
  if (cfg.report_json) {
    std::printf("%s\n", report.ToJson(cfg.quick).c_str());
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
