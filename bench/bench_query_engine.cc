// E-QUERY — the batched query engine's scaling story: K compiled queries
// evaluated over one SAX stream in a single pass versus re-streaming the
// document once per query, plus the §3.2 depth-bounded-memory witness for
// the shared run state. The headline table reports the batched/sequential
// throughput ratio; the acceptance bar is ≥ 2× at K = 16.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "json/json.h"
#include "obs/bench_report.h"
#include "obs/prof.h"
#include "obs/pulse.h"
#include "obs/stats.h"
#include "query/compile.h"
#include "query/engine.h"
#include "query/nwquery.h"
#include "stream/token_stream.h"
#include "stream/tree_gen.h"
#include "support/stopwatch.h"
#include "support/table.h"
#include "trace/trace.h"
#include "xml/xml.h"

namespace {

using namespace nw;

// 16 query shapes covering every grammar production.
const char* kQueries[] = {
    "/a",
    "//b",
    "/a/b",
    "/a//b",
    "//a/*/b",
    "/*",
    "//c/d",
    "a then b",
    "a then b then c",
    "c then a",
    "depth >= 3",
    "depth >= 6",
    "/a and //b",
    "//a or //c",
    "not //b",
    "(/a or /c) and not depth >= 5",
};
constexpr size_t kNumQueries = sizeof(kQueries) / sizeof(kQueries[0]);

struct Workload {
  Alphabet alphabet;
  Symbol other;
  std::vector<Nwa> compiled;
  std::string doc;

  explicit Workload(size_t positions, size_t depth = 24) {
    std::vector<Query> queries;
    for (const char* text : kQueries) {
      queries.push_back(ParseQuery(text, &alphabet).Take());
    }
    alphabet.Intern("#text");
    other = alphabet.Intern("%other");
    for (const Query& q : queries) {
      compiled.push_back(CompileQuery(q, alphabet.size()));
    }
    Alphabet gen;
    gen.Intern("a");
    gen.Intern("b");
    gen.Intern("c");
    gen.Intern("d");
    Rng rng(7);
    doc = RandomXmlDocument(&rng, gen, positions, depth);
  }
};

/// Sequential baseline: each query re-streams (re-tokenizes + re-runs)
/// the document — K traversals, as a system without the batched engine
/// would evaluate a bank of standing queries.
size_t RunSequentially(const Workload& w, size_t num_queries) {
  size_t matched = 0;
  for (size_t i = 0; i < num_queries; ++i) {
    Alphabet local = w.alphabet;
    XmlTokenStream stream(w.doc, &local);
    NwaRunner r(w.compiled[i]);
    TaggedSymbol t;
    while (stream.Next(&t)) {
      if (t.symbol >= w.alphabet.size()) t.symbol = w.other;
      if (!r.Feed(t)) break;
    }
    matched += r.Accepting();
  }
  return matched;
}

/// Batched: one tokenizer pass drives all K queries.
size_t RunBatched(const Workload& w, QueryEngine* engine) {
  Alphabet local = w.alphabet;
  std::vector<bool> results = engine->RunAll(w.doc, &local);
  size_t matched = 0;
  for (bool hit : results) matched += hit;
  return matched;
}

void BM_RunEachQuerySeparately(benchmark::State& state) {
  Workload w(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunSequentially(w, kNumQueries));
  }
  state.SetBytesProcessed(state.iterations() * w.doc.size() * kNumQueries);
}
BENCHMARK(BM_RunEachQuerySeparately)->Range(1 << 12, 1 << 16);

void BM_BatchedEngine(benchmark::State& state) {
  Workload w(static_cast<size_t>(state.range(0)));
  QueryEngine engine(w.alphabet.size());
  engine.set_other_symbol(w.other);
  for (const Nwa& a : w.compiled) engine.Add(&a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunBatched(w, &engine));
  }
  state.SetBytesProcessed(state.iterations() * w.doc.size());
}
BENCHMARK(BM_BatchedEngine)->Range(1 << 12, 1 << 16);

/// Headline comparison: K queries, one traversal vs. K traversals.
void SpeedupTable(const BenchConfig& cfg, BenchReport* report) {
  Table t("E-QUERY: batched single-pass vs per-query re-streaming (K = " +
          std::to_string(kNumQueries) + ")");
  t.Header({"positions", "sequential_ms", "batched_ms", "speedup",
            "traversals"});
  std::vector<size_t> sizes{1u << 12, 1u << 14, 1u << 16};
  if (cfg.quick) sizes = {1u << 12};
  for (size_t positions : sizes) {
    Workload w(positions);
    QueryEngine engine(w.alphabet.size());
    engine.set_other_symbol(w.other);
    for (const Nwa& a : w.compiled) engine.Add(&a);
    // Warm up, then time a few repetitions of each strategy.
    size_t m1 = RunSequentially(w, kNumQueries);
    size_t m2 = RunBatched(w, &engine);
    NW_CHECK(m1 == m2);
    const int kReps = cfg.quick ? 2 : 5;
    Stopwatch sw;
    for (int i = 0; i < kReps; ++i) {
      benchmark::DoNotOptimize(RunSequentially(w, kNumQueries));
    }
    double seq_ms = sw.ElapsedMs() / kReps;
    size_t traversals_before = engine.traversals();
    sw.Reset();
    for (int i = 0; i < kReps; ++i) {
      benchmark::DoNotOptimize(RunBatched(w, &engine));
    }
    double bat_ms = sw.ElapsedMs() / kReps;
    t.Row({Table::Num(positions), Table::Dbl(seq_ms), Table::Dbl(bat_ms),
           Table::Dbl(seq_ms / bat_ms, 2),
           Table::Num((engine.traversals() - traversals_before) / kReps)});
    report->Metric("batched_speedup@" + std::to_string(positions),
                   seq_ms / bat_ms);
    report->Metric("batched_ms@" + std::to_string(positions), bat_ms);
  }
  if (cfg.print()) t.Print();
}

/// Median of `v` (sorted in place).
double Median(std::vector<double>* v) {
  std::sort(v->begin(), v->end());
  const size_t n = v->size();
  return n % 2 == 1 ? (*v)[n / 2] : ((*v)[n / 2 - 1] + (*v)[n / 2]) / 2;
}

/// NWStats acceptance bar: attaching a sink must cost < 3% throughput —
/// now with the NWProf attribution table attached too, so the bar covers
/// the full observability stack, not just the aggregate counters — and
/// being scraped by an NWPulse sampler must stay inside the same bar.
/// Each rep times stats off and on pass by pass, in turn, until each
/// has run >= 100 ms, so the host's drift between time windows falls on
/// both alike; then the same again under a running sampler. The gate is
/// the median of the per-rep ratios; their range is printed beside it.
void StatsOverheadTable(const BenchConfig& cfg, BenchReport* report) {
  Table t("E-QUERY: NWStats overhead — batched engine, stats off vs on");
  t.Header({"positions", "passes", "off_ms", "on_ms", "overhead",
            "overhead_range"});
  const size_t positions = cfg.quick ? 1u << 13 : 1u << 16;
  Workload w(positions);
  QueryEngine off(w.alphabet.size());
  off.set_other_symbol(w.other);
  for (const Nwa& a : w.compiled) off.Add(&a);
  QueryEngine on(w.alphabet.size());
  on.set_other_symbol(w.other);
  for (const Nwa& a : w.compiled) on.Add(&a);
  StatsSink sink;
  on.set_stats(&sink);
  QueryAttribution attr(kNumQueries);
  on.set_attribution(&attr);
  // Differential witness: stats on/off must not change any result.
  NW_CHECK(RunBatched(w, &off) == RunBatched(w, &on));
  // Passes per rep: one pass is ~10 ms at full size, well inside the
  // host's drift, so a rep strings passes together.
  const double rep_ms = cfg.quick ? 5 : 100;
  Stopwatch calibrate;
  benchmark::DoNotOptimize(RunBatched(w, &off));
  const int passes = std::max(
      1, static_cast<int>(std::ceil(rep_ms / calibrate.ElapsedMs())));
  auto time_pass = [&](QueryEngine* engine) {
    Stopwatch sw;
    benchmark::DoNotOptimize(RunBatched(w, engine));
    return sw.ElapsedMs();
  };
  // Alternates off and on pass by pass (the order flipping each pass)
  // until each has run `passes` times; returns the two sums.
  auto time_pair = [&](double* off_sum, double* on_sum) {
    *off_sum = *on_sum = 0;
    for (int p = 0; p < passes; ++p) {
      if (p % 2 == 0) {
        *off_sum += time_pass(&off);
        *on_sum += time_pass(&on);
      } else {
        *on_sum += time_pass(&on);
        *off_sum += time_pass(&off);
      }
    }
  };
  // The sampled half: the same pair while an NWPulse sampler scrapes the
  // registry every few ms onto a temp file — the writer-side cost of
  // being watched. The scraper's own thread is free: it runs under both
  // engines alike, so what the ratio prices is the cache-line traffic on
  // the sink the instrumented writer is hammering.
  StatsRegistry registry;
  registry.Register("main", &sink);
  registry.RegisterAttribution(&attr);
  std::FILE* pulse_tmp = std::tmpfile();
  uint64_t pulse_ticks = 0;
  const int kReps = cfg.quick ? 3 : 15;
  std::vector<double> off_ms, on_ms, stats_ratios, pulse_ratios;
  for (int r = 0; r < kReps; ++r) {
    double off_sum, on_sum;
    time_pair(&off_sum, &on_sum);
    off_ms.push_back(off_sum / passes);
    on_ms.push_back(on_sum / passes);
    stats_ratios.push_back(on_sum / off_sum);
    PulseSampler::Options po;
    po.interval_ms = 2;
    po.jsonl = pulse_tmp;
    PulseSampler sampler(&registry, po);
    sampler.Start();
    time_pair(&off_sum, &on_sum);
    sampler.Stop();
    pulse_ticks += sampler.ticks();
    pulse_ratios.push_back(on_sum / off_sum);
  }
  if (pulse_tmp != nullptr) std::fclose(pulse_tmp);
  const double overhead = Median(&stats_ratios);
  const double pulse_overhead = Median(&pulse_ratios);
  auto range = [](const std::vector<double>& sorted) {
    return Table::Dbl(sorted.front(), 4) + "-" + Table::Dbl(sorted.back(), 4);
  };
  t.Row({Table::Num(positions), Table::Num(passes),
         Table::Dbl(Median(&off_ms), 3), Table::Dbl(Median(&on_ms), 3),
         Table::Dbl(overhead, 4), range(stats_ratios)});
  if (cfg.print()) {
    t.Print();
    std::printf("NWPulse sampler-on: ratio %.4f (median of %d reps, range "
                "%s, %llu ticks)\n",
                pulse_overhead, kReps, range(pulse_ratios).c_str(),
                static_cast<unsigned long long>(pulse_ticks));
  }
  report->Metric("stats_overhead_ratio", overhead);
  report->Metric("pulse_overhead_ratio", pulse_overhead);
  // The sink really saw the traffic (oracle: one engine, all documents),
  // and the attribution table's totals are pinned to it.
  NW_CHECK(sink.engine_docs.value() >= 1);
  NW_CHECK(sink.engine_positions.value() > 0);
  NW_CHECK(attr.docs.value() == sink.engine_docs.value());
  NW_CHECK(attr.positions.value() == sink.engine_positions.value());
  NW_CHECK(pulse_ticks >= 1);  // the sampler really ran (>= the Stop tick)
  if (!cfg.quick) {
    NW_CHECK(overhead < 1.03);        // the NWStats tentpole bar (PR 6)
    NW_CHECK(pulse_overhead < 1.03);  // being scraped must stay inside it
  }
}

/// §3.2 witness: resident run state scales with document depth, not
/// document length (positions fixed, depth swept — and vice versa).
void MemoryTable(const BenchConfig& cfg, BenchReport* report) {
  Table t("E-QUERY: resident state = K*(depth+1) StateIds, length-free");
  t.Header({"positions", "max_depth", "stack_frames_hw", "resident_states"});
  std::vector<std::pair<size_t, size_t>> shapes{
      {1u << 13, 4}, {1u << 13, 64}, {1u << 17, 4}, {1u << 17, 64}};
  if (cfg.quick) shapes = {{1u << 13, 4}, {1u << 13, 64}};
  for (auto [positions, depth] : shapes) {
    Workload w(positions, depth);
    QueryEngine engine(w.alphabet.size());
    engine.set_other_symbol(w.other);
    for (const Nwa& a : w.compiled) engine.Add(&a);
    RunBatched(w, &engine);
    t.Row({Table::Num(positions), Table::Num(depth),
           Table::Num(engine.MaxStackDepth()),
           Table::Num(engine.ResidentStates())});
    report->Metric("resident_states@" + std::to_string(positions) + "x" +
                       std::to_string(depth),
                   static_cast<double>(engine.ResidentStates()));
  }
  if (cfg.print()) t.Print();
}

/// One tokenizer pass over a document, counting tokens. The local
/// alphabet copy mirrors what QueryEngine::RunAll does per document,
/// so the measured cost includes the interning traffic a real
/// ingestion pays.
template <typename Stream>
size_t CountTokens(const std::string& text, const Alphabet& base) {
  Alphabet local = base;
  Stream stream(text, &local);
  TaggedSymbol t;
  size_t n = 0;
  while (stream.Next(&t)) ++n;
  return n;
}

/// NWMulti front-end comparison: one random forest rendered as XML,
/// JSON, and a program trace, tokenized by each front end. The three
/// renderings produce byte-for-byte identical token streams (that is
/// the differential-test invariant), so the token counts must agree —
/// reported as format_token_parity, a structural metric the bench
/// watchdog hard-checks. The per-format timings are host-dependent
/// and ride along warn-only.
void IngestTable(const BenchConfig& cfg, BenchReport* report) {
  Table t("E-QUERY: ingestion throughput — one forest, three front ends");
  t.Header({"positions", "format", "bytes", "tokens", "ingest_ms", "MB/s"});
  std::vector<size_t> sizes{1u << 12, 1u << 16};
  if (cfg.quick) sizes = {1u << 12};
  Alphabet base;
  base.Intern("a");
  base.Intern("b");
  base.Intern("c");
  base.Intern("d");
  bool parity = true;
  for (size_t positions : sizes) {
    Rng rng(11);
    std::vector<TreeNode> forest =
        RandomForest(&rng, {"a", "b", "c", "d"}, positions, 24);
    struct Rendering {
      const char* label;
      std::string text;
      size_t (*count)(const std::string&, const Alphabet&);
    };
    const Rendering renderings[] = {
        {"xml", RenderXml(forest), &CountTokens<XmlTokenStream>},
        {"json", RenderJson(forest), &CountTokens<JsonTokenStream>},
        {"trace", RenderTrace(forest), &CountTokens<TraceTokenStream>},
    };
    const int kReps = cfg.quick ? 3 : 9;
    size_t xml_tokens = 0;
    double xml_ms = 0;
    for (const Rendering& r : renderings) {
      size_t tokens = r.count(r.text, base);
      double best_ms = 1e300;
      for (int i = 0; i < kReps; ++i) {
        Stopwatch sw;
        benchmark::DoNotOptimize(r.count(r.text, base));
        best_ms = std::min(best_ms, sw.ElapsedMs());
      }
      double mbs = best_ms > 0
                       ? r.text.size() / (best_ms * 1e3)  // bytes/us == MB/s
                       : 0.0;
      t.Row({Table::Num(positions), r.label, Table::Num(r.text.size()),
             Table::Num(tokens), Table::Dbl(best_ms, 3), Table::Dbl(mbs, 1)});
      std::string suffix = "@" + std::to_string(positions);
      report->Metric(std::string(r.label) + "_ingest_ms" + suffix, best_ms);
      if (r.label == renderings[0].label) {
        xml_tokens = tokens;
        xml_ms = best_ms;
      } else {
        parity = parity && tokens == xml_tokens;
        if (std::string(r.label) == "json") {
          report->Metric("json_vs_xml_ingest_speedup" + suffix,
                         best_ms > 0 ? xml_ms / best_ms : 0.0);
        }
      }
      // The forest is seeded, so the token count is a build-independent
      // structural metric: any front-end mapping change shows up here.
      if (r.label == renderings[0].label) {
        report->Metric("ingest_tokens" + suffix,
                       static_cast<double>(tokens));
      }
    }
  }
  NW_CHECK_MSG(parity, "front ends disagree on the shared forest");
  report->Metric("format_token_parity", parity ? 1.0 : 0.0);
  if (cfg.print()) t.Print();
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = ParseBenchConfig(&argc, argv);
  BenchReport report("bench_query_engine");
  SpeedupTable(cfg, &report);
  IngestTable(cfg, &report);
  MemoryTable(cfg, &report);
  StatsOverheadTable(cfg, &report);
  if (cfg.report_json) {
    // The tables' measurements ARE the report; the google-benchmark pass
    // would only slow CI down and write to stdout in its own format.
    std::printf("%s\n", report.ToJson(cfg.quick).c_str());
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
