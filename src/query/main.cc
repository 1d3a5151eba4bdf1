// nwquery — streaming NWQuery evaluation over XML, JSON, or program-trace
// documents.
//
//   nwquery [options] <query-file> [doc-file ...]
//
// The query file holds one NWQuery per line ('#' starts a comment). All
// queries are compiled to deterministic NWAs up front, run through the
// NWOpt optimizer pipeline (rewrite → minimize → shared bank, see
// opt/pipeline.h), then every document — files and/or generated random
// documents — is streamed exactly once through the batched QueryEngine.
// A matching query reports WHERE it matched: the number of stream
// positions consumed when its accept state first latched.
//
// Options:
//   --opt LEVEL     optimizer level: none | rewrite | min | bank | all
//                   (default all; --opt=LEVEL also accepted)
//   --format F      input front end: xml (default) | json | trace — the
//                   tokenizer is the ONLY thing the flag changes; query
//                   compilation, the optimizer, sharding, and stats are
//                   format-blind (stream/token_stream.h)
//   --threads N     shard the documents across N worker threads over a
//                   frozen bank (implies --freeze; requires an --opt level
//                   that builds the shared bank: bank or all)
//   --freeze[=F,..] pre-explore the bank and serve an immutable
//                   snapshot: with no value, every step a run over the
//                   query alphabet can reach, explored as a partition of
//                   small per-group products (opt/bank.h); with a
//                   comma-separated list of XML files, by training the
//                   one shared product on those documents (steps the
//                   training never saw fall back to a per-shard overflow
//                   bank)
//   --random N      also evaluate over N generated random documents
//   --positions P   approximate positions per random document (default 2000)
//   --depth D       maximum depth of random documents (default 16)
//   --seed S        random document seed (default 42)
//   --stats         print compile-stage state counts and per-document
//                   traversal / memory statistics (plus, when serving
//                   frozen, the aggregate serve stats with the frozen-
//                   bank hit rate), then the NWStats registry dump —
//                   per-layer counters, the per-document latency
//                   histogram, the per-shard skew view, and the NWProf
//                   views: per-query cost attribution (match docs,
//                   accept observations, overflow escalations) and the
//                   compile-phase timeline (parse → rewrite → lower →
//                   minimize → bank_build → explore → freeze)
//   --stats=json    same instrumentation, rendered as one stable JSON
//                   object on the last stdout line (match lines are
//                   unchanged; the per-document text stats are folded
//                   into the JSON instead of printed)
//   --stats=prom    same instrumentation, rendered as a Prometheus/
//                   OpenMetrics text exposition on stdout (the scrape a
//                   daemon would serve; name/label scheme in
//                   docs/OBSERVABILITY.md)
//   --stats-interval=MS
//                   NWPulse: sample the stats registry every MS
//                   milliseconds on a background thread while documents
//                   stream, appending one self-describing JSONL record
//                   per tick — interval deltas, rates, interval latency
//                   percentiles, per-shard utilization (implies --stats)
//   --pulse-file F  JSONL destination for --stats-interval ("-" or
//                   default: stderr; under --watch a file must be named
//                   explicitly — the live frame owns stderr)
//   --watch         live terminal view, re-rendered every interval on
//                   stderr: run progress, docs/s, MB/s, interval
//                   p50/p99, frozen hit rate, per-shard utilization
//                   (implies --stats-interval=500 unless set)
//   --quiet         suppress per-query match lines
//
// Setting the NWQUERY_TRACE environment variable to a file path ("-" for
// stderr) additionally writes one trace event per document streamed:
// JSON lines by default, or — with NWQUERY_TRACE_FORMAT=chrome — a
// Chrome Trace Event Format array loadable in Perfetto, with one track
// per shard and per-shard counter series (see obs/trace.h and
// docs/OBSERVABILITY.md).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/prof.h"
#include "obs/pulse.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "opt/pipeline.h"
#include "query/engine.h"
#include "query/nwquery.h"
#include "serve/sharded.h"
#include "stream/token_stream.h"
#include "stream/tree_gen.h"
#include "support/parse_uint.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "xml/xml.h"

namespace {

using namespace nw;

struct Options {
  std::string query_file;
  std::vector<std::string> xml_files;
  OptOptions opt = OptOptions::All();
  std::string opt_level = "all";
  InputFormat format = InputFormat::kXml;
  size_t threads = 1;
  bool freeze = false;
  std::vector<std::string> freeze_files;
  size_t random_docs = 0;
  size_t positions = 2000;
  size_t depth = 16;
  uint64_t seed = 42;
  bool stats = false;
  bool stats_json = false;
  bool stats_prom = false;
  uint64_t stats_interval_ms = 0;  ///< 0 = no NWPulse sampler
  std::string pulse_file;
  bool watch = false;
  bool quiet = false;

  /// True when the per-document/serve text stat lines should print —
  /// the machine renderings (json, prom) fold them into the final dump.
  bool stats_text() const { return stats && !stats_json && !stats_prom; }
};

int Usage() {
  std::fprintf(stderr,
               "usage: nwquery [--opt none|rewrite|min|bank|all] "
               "[--format xml|json|trace] "
               "[--threads N] [--freeze[=train.xml,...]] [--random N] "
               "[--positions P] [--depth D] [--seed S] "
               "[--stats[=json|prom]] [--stats-interval MS] "
               "[--pulse-file F] [--watch] "
               "[--quiet] <query-file> [xml-file ...]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](uint64_t* out) {
      const char* v = i + 1 < argc ? argv[++i] : nullptr;
      if (ParseUint(v, out)) return true;
      std::fprintf(stderr, "nwquery: %s needs a numeric value\n",
                   arg.c_str());
      return false;
    };
    uint64_t v = 0;
    if (arg == "--opt" || arg.rfind("--opt=", 0) == 0) {
      std::string level;
      if (arg == "--opt") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "nwquery: --opt needs a level\n");
          return false;
        }
        level = argv[++i];
      } else {
        level = arg.substr(std::strlen("--opt="));
      }
      if (!ParseOptLevel(level, &opt->opt)) {
        std::fprintf(stderr,
                     "nwquery: unknown --opt level '%s' (want none, rewrite, "
                     "min, bank, or all)\n",
                     level.c_str());
        return false;
      }
      opt->opt_level = level;
    } else if (arg == "--format" || arg.rfind("--format=", 0) == 0) {
      std::string name;
      if (arg == "--format") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "nwquery: --format needs a value\n");
          return false;
        }
        name = argv[++i];
      } else {
        name = arg.substr(std::strlen("--format="));
      }
      if (!ParseInputFormat(name, &opt->format)) {
        std::fprintf(stderr,
                     "nwquery: unknown --format '%s' (want xml, json, or "
                     "trace)\n",
                     name.c_str());
        return false;
      }
    } else if (arg == "--threads") {
      if (!value(&v)) return false;
      if (v == 0) {
        std::fprintf(stderr, "nwquery: --threads must be >= 1\n");
        return false;
      }
      opt->threads = v;
    } else if (arg == "--freeze") {
      opt->freeze = true;
    } else if (arg.rfind("--freeze=", 0) == 0) {
      opt->freeze = true;
      std::string list = arg.substr(std::strlen("--freeze="));
      size_t start = 0;
      while (start <= list.size()) {
        size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        if (comma > start) {
          opt->freeze_files.push_back(list.substr(start, comma - start));
        }
        start = comma + 1;
      }
      if (opt->freeze_files.empty()) {
        std::fprintf(stderr, "nwquery: --freeze= needs at least one file\n");
        return false;
      }
    } else if (arg == "--random") {
      if (!value(&v)) return false;
      opt->random_docs = v;
    } else if (arg == "--positions") {
      if (!value(&v)) return false;
      opt->positions = v;
    } else if (arg == "--depth") {
      if (!value(&v)) return false;
      opt->depth = v;
    } else if (arg == "--seed") {
      if (!value(&v)) return false;
      opt->seed = v;
    } else if (arg == "--stats" || arg == "--stats=text") {
      opt->stats = true;
    } else if (arg == "--stats=json") {
      opt->stats = true;
      opt->stats_json = true;
    } else if (arg == "--stats=prom") {
      opt->stats = true;
      opt->stats_prom = true;
    } else if (arg.rfind("--stats=", 0) == 0) {
      // Catch the enum typo here, not in the generic unknown-option
      // branch: "--stats=promm" should say what the valid modes are, not
      // pretend the whole flag doesn't exist.
      std::fprintf(stderr,
                   "nwquery: unknown --stats mode '%s' (want text, json, "
                   "or prom)\n",
                   arg.c_str() + std::strlen("--stats="));
      return false;
    } else if (arg == "--stats-interval" ||
               arg.rfind("--stats-interval=", 0) == 0) {
      if (arg == "--stats-interval") {
        if (!value(&v)) return false;
      } else if (!ParseUint(arg.c_str() + std::strlen("--stats-interval="),
                            &v)) {
        std::fprintf(stderr,
                     "nwquery: --stats-interval needs a numeric value\n");
        return false;
      }
      if (v == 0) {
        std::fprintf(stderr, "nwquery: --stats-interval must be >= 1 ms\n");
        return false;
      }
      opt->stats_interval_ms = v;
      opt->stats = true;
    } else if (arg == "--pulse-file" || arg.rfind("--pulse-file=", 0) == 0) {
      if (arg == "--pulse-file") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "nwquery: --pulse-file needs a path\n");
          return false;
        }
        opt->pulse_file = argv[++i];
      } else {
        opt->pulse_file = arg.substr(std::strlen("--pulse-file="));
      }
      if (opt->pulse_file.empty()) {
        std::fprintf(stderr, "nwquery: --pulse-file needs a path\n");
        return false;
      }
    } else if (arg == "--watch") {
      opt->watch = true;
      opt->stats = true;
    } else if (arg == "--quiet") {
      opt->quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "nwquery: unknown option %s\n", arg.c_str());
      return false;
    } else {
      positional.push_back(std::move(arg));
    }
  }
  // --watch and --pulse-file are sampler consumers: arm the sampler at
  // its default cadence when no interval was given explicitly.
  if ((opt->watch || !opt->pulse_file.empty()) &&
      opt->stats_interval_ms == 0) {
    opt->stats_interval_ms = 500;
  }
  // Sharding needs the immutable snapshot (a lazily-memoized SharedBank
  // mutates while streaming and cannot back concurrent engines).
  if (opt->threads > 1) opt->freeze = true;
  if (opt->freeze && !opt->opt.bank) {
    std::fprintf(stderr,
                 "nwquery: --freeze/--threads need the shared bank; use "
                 "--opt bank or --opt all\n");
    return false;
  }
  if (opt->random_docs > 0 && opt->depth == 0) {
    std::fprintf(stderr,
                 "nwquery: --depth must be >= 1 (documents need a root)\n");
    return false;
  }
  if (positional.empty()) return false;
  opt->query_file = positional[0];
  opt->xml_files.assign(positional.begin() + 1, positional.end());
  return opt->random_docs > 0 || !opt->xml_files.empty();
}

/// Reads a whole file; false (with a message) when it cannot be opened.
/// A regular file is read with one sized fread straight into `*out`; a
/// stream that cannot seek (a pipe) is read in chunks.
bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "nwquery: cannot open %s\n", path.c_str());
    return false;
  }
  out->clear();
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long size = std::ftell(f);
    std::rewind(f);
    if (size > 0) {
      out->resize(static_cast<size_t>(size));
      out->resize(std::fread(out->data(), 1, out->size(), f));
    }
  }
  char chunk[1 << 16];
  for (size_t got; (got = std::fread(chunk, 1, sizeof(chunk), f)) > 0;) {
    out->append(chunk, got);
  }
  std::fclose(f);
  return true;
}

/// The NWPulse JSONL destination, closed on scope exit when owned (an
/// explicit --pulse-file; "-" and the default map to stderr, not owned).
struct PulseOutput {
  std::FILE* f = nullptr;
  bool owned = false;
  ~PulseOutput() {
    if (owned && f != nullptr) std::fclose(f);
  }
};

bool OpenPulseOutput(const Options& opt, PulseOutput* out) {
  if (!opt.pulse_file.empty() && opt.pulse_file != "-") {
    out->f = std::fopen(opt.pulse_file.c_str(), "w");
    if (out->f == nullptr) {
      std::fprintf(stderr, "nwquery: cannot open %s\n",
                   opt.pulse_file.c_str());
      return false;
    }
    out->owned = true;
    return true;
  }
  // Default destination is stderr — except under --watch, whose live
  // frame owns the terminal; there JSONL needs an explicit file.
  if (!opt.pulse_file.empty() || !opt.watch) out->f = stderr;
  return true;
}

/// Arms the NWPulse background sampler when --stats-interval is set. The
/// registry must be fully registered (sinks and attribution tables) —
/// registration mutates the lists the scraper iterates.
std::unique_ptr<PulseSampler> StartSampler(const Options& opt,
                                           const StatsRegistry& registry,
                                           PulseOutput* pulse_out,
                                           const PulseProgress* progress) {
  if (opt.stats_interval_ms == 0) return nullptr;
  PulseSampler::Options po;
  po.interval_ms = opt.stats_interval_ms;
  po.jsonl = pulse_out->f;
  po.watch = opt.watch;
  po.progress = progress;
  auto sampler = std::make_unique<PulseSampler>(&registry, po);
  sampler->Start();
  return sampler;
}

/// Builds the random-document generator alphabet: the element names the
/// queries mention (skipping the pseudo-symbols) plus one name the
/// queries do not know, so the catch-all remapping path is exercised.
Alphabet GeneratorAlphabet(const Alphabet& alphabet, size_t num_symbols) {
  Alphabet gen;
  for (Symbol s = 0; s < num_symbols; ++s) {
    const std::string& name = alphabet.Name(s);
    if (name != "#text" && name != "%other") gen.Intern(name);
  }
  gen.Intern("unlisted");
  return gen;
}

/// One random document in the chosen front end's concrete syntax. XML
/// keeps the established RandomXmlDocument generator (its byte stream is
/// pinned by baselines); JSON and traces render a random format-agnostic
/// tree (stream/tree_gen.h).
std::string RandomDocument(Rng* rng, const Alphabet& gen, const Options& opt) {
  if (opt.format == InputFormat::kXml) {
    return RandomXmlDocument(rng, gen, opt.positions, opt.depth);
  }
  std::vector<std::string> names;
  for (Symbol s = 0; s < gen.size(); ++s) names.push_back(gen.Name(s));
  std::vector<TreeNode> forest =
      RandomForest(rng, names, opt.positions, opt.depth);
  return opt.format == InputFormat::kJson ? RenderJson(forest)
                                          : RenderTrace(forest);
}

/// Per-query match lines for one document (shared by the single-stream
/// and sharded paths so their outputs stay byte-identical).
void PrintMatchLines(const std::string& label, const std::vector<bool>& hits,
                     const std::vector<int64_t>& first_match,
                     const std::vector<std::string>& query_texts) {
  for (size_t i = 0; i < hits.size(); ++i) {
    // A match reports WHERE: the position at which the query's accept
    // state first latched (tagged positions consumed; 0 = accepting
    // before any input). Non-monotone queries (e.g. `not //b`) may latch
    // early and stop accepting later, so the position is the FIRST
    // observation.
    std::string verdict = "no-match";
    if (hits[i]) verdict = "MATCH@" + std::to_string(first_match[i]);
    std::printf("%s\t%s\tquery[%zu]\t%s\n", label.c_str(), verdict.c_str(),
                i, query_texts[i].c_str());
  }
}

/// Streams one document through the engine and reports results.
void EvaluateDocument(const std::string& label, const std::string& text,
                      const std::vector<std::string>& query_texts,
                      Alphabet* alphabet, QueryEngine* engine,
                      const Options& opt, Tracer* tracer) {
  TraceSpan span(tracer, "doc", label);
  size_t positions_before = engine->positions();
  std::vector<bool> results = engine->RunAll(text, alphabet, opt.format);
  size_t doc_positions = engine->positions() - positions_before;
  size_t matched = 0;
  for (bool hit : results) matched += hit;
  span.Note("positions", doc_positions);
  span.Note("bytes", text.size());
  span.Note("matched", matched);
  if (!opt.quiet) {
    std::vector<int64_t> first_match(results.size());
    for (size_t i = 0; i < results.size(); ++i) {
      first_match[i] = engine->first_match(i);
    }
    PrintMatchLines(label, results, first_match, query_texts);
  }
  if (opt.stats_text()) {
    std::printf(
        "%s\tstats\tpositions=%zu matched=%zu/%zu max_depth=%zu "
        "resident_states=%zu traversals=%zu\n",
        label.c_str(), doc_positions, matched, engine->num_queries(),
        engine->MaxStackDepth(), engine->ResidentStates(),
        engine->traversals());
  }
}

/// Final NWStats dump: one stable JSON object (--stats=json), the
/// Prometheus text exposition (--stats=prom), or the aligned text
/// rendering appended after the per-document lines.
void RenderStats(const StatsRegistry& registry, const Options& opt) {
  if (!opt.stats) return;
  if (opt.stats_json) {
    std::printf("%s\n", registry.RenderJson().c_str());
  } else if (opt.stats_prom) {
    std::fputs(registry.RenderProm().c_str(), stdout);
  } else {
    std::fputs(registry.RenderText().c_str(), stdout);
  }
}

/// The --freeze/--threads path: explore the bank as a complete partition
/// (or train the shared product on --freeze files and snapshot it), and
/// shard the whole corpus across worker threads. Output (match lines,
/// per-document order) is byte-identical to the single-stream path at
/// any thread count.
int ServeFrozen(const Options& opt, OptimizedBank* bank, Alphabet* alphabet,
                size_t num_symbols, Symbol other,
                const std::vector<std::string>& query_texts,
                StatsRegistry* registry, Tracer* tracer,
                CompileTimeline* timeline) {
  SharedBank* shared = bank->shared.get();
  // The exploration/training sink: product states interned and memo
  // traffic while building the snapshot land under the "main" label; the
  // serving traffic lands in the per-shard sinks below.
  StatsSink main_sink;
  if (opt.stats) registry->Register("main", &main_sink);
  std::shared_ptr<const FrozenPartition> frozen;
  if (!opt.freeze_files.empty()) {
    if (opt.stats) shared->set_stats(&main_sink);
    // Train: stream the training corpus through a single-stream engine
    // over the shared bank; its memoization IS the exploration.
    Stopwatch explore_sw;
    const size_t states_before = shared->num_states();
    QueryEngine trainer(num_symbols);
    trainer.set_other_symbol(other);
    trainer.AddBank(shared);
    for (const std::string& path : opt.freeze_files) {
      std::string text;
      if (!ReadFile(path, &text)) return 1;
      trainer.RunAll(text, alphabet, opt.format);
    }
    if (timeline != nullptr) {
      timeline->Record("explore",
                       static_cast<uint64_t>(explore_sw.ElapsedUs()),
                       states_before, shared->num_states());
    }
    frozen = FrozenPartition::Whole(SharedBank::FreezeShared(*shared,
                                                             timeline));
  } else {
    frozen = FrozenPartition::Explore(shared->autos(),
                                      FrozenPartition::kBudget, timeline,
                                      opt.stats ? &main_sink : nullptr);
  }

  // Materialize the corpus — same documents, same labels, same order as
  // the single-stream path.
  std::vector<std::string> labels;
  std::vector<std::string> corpus;
  for (const std::string& path : opt.xml_files) {
    std::string text;
    if (!ReadFile(path, &text)) return 1;
    labels.push_back(path);
    corpus.push_back(std::move(text));
  }
  if (opt.random_docs > 0) {
    Alphabet gen = GeneratorAlphabet(*alphabet, num_symbols);
    Rng rng(opt.seed);
    for (size_t d = 0; d < opt.random_docs; ++d) {
      labels.push_back("random[" + std::to_string(d) + "]");
      corpus.push_back(RandomDocument(&rng, gen, opt));
    }
  }

  ShardedEvaluator evaluator(frozen.get(), num_symbols, other, opt.threads,
                             opt.format);
  if (opt.stats) evaluator.AttachStats(registry);
  evaluator.set_tracer(tracer);
  // NWPulse: sample while the corpus streams. Registration (main sink,
  // shard sinks, attribution tables) is complete at this point; the
  // evaluator's progress cells feed the live --watch view.
  PulseOutput pulse_out;
  if (opt.stats_interval_ms > 0 && !OpenPulseOutput(opt, &pulse_out)) {
    return 1;
  }
  std::unique_ptr<PulseSampler> sampler =
      StartSampler(opt, *registry, &pulse_out, &evaluator.progress());
  std::vector<DocResult> results =
      evaluator.EvaluateCorpus(corpus, *alphabet, !opt.quiet);
  if (sampler != nullptr) sampler->Stop();
  for (size_t d = 0; d < results.size(); ++d) {
    size_t matched = 0;
    for (bool hit : results[d].accept) matched += hit;
    if (!opt.quiet) {
      PrintMatchLines(labels[d], results[d].accept, results[d].first_match,
                      query_texts);
    }
    if (opt.stats_text()) {
      std::printf("%s\tstats\tpositions=%zu matched=%zu/%zu\n",
                  labels[d].c_str(), results[d].positions, matched,
                  results[d].accept.size());
    }
  }
  if (opt.stats) {
    const ServeStats& s = evaluator.stats();
    registry->SetMetaNum("frozen_states", frozen->num_states());
    if (opt.stats_text()) {
      // A corpus that never stepped the bank (e.g. zero documents) has
      // no meaningful hit rate; print n/a instead of a vacuous 1.0.
      char rate[32];
      if (s.has_traffic()) {
        std::snprintf(rate, sizeof(rate), "%.4f", s.hit_rate());
      } else {
        std::snprintf(rate, sizeof(rate), "n/a");
      }
      std::printf(
          "serve\tstats\tthreads=%zu docs=%zu positions=%zu "
          "frozen_states=%zu frozen_hits=%zu frozen_misses=%zu "
          "hit_rate=%s\n",
          s.threads, s.documents, s.positions, frozen->num_states(),
          s.frozen_hits, s.frozen_misses, rate);
    }
  }
  RenderStats(*registry, opt);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return Usage();

  std::ifstream qf(opt.query_file);
  if (!qf) {
    std::fprintf(stderr, "nwquery: cannot open %s\n", opt.query_file.c_str());
    return 1;
  }

  // NWProf compile timeline: phases record into it from parse through
  // freeze; rendered as the stats "compile" section. Cheap enough to
  // fill unconditionally for the parse phase, attached to the optimizer
  // only under --stats (ParseOptLevel resets OptOptions wholesale, so
  // the pointer must be set after flag parsing — which ParseArgs above
  // has already finished).
  CompileTimeline timeline;
  Stopwatch parse_sw;

  // Phase 1: parse every query, interning element names.
  Alphabet alphabet;
  std::vector<Query> queries;
  std::vector<std::string> query_texts;
  std::string line;
  size_t lineno = 0;
  while (std::getline(qf, line)) {
    ++lineno;
    std::string stripped = line.substr(0, line.find('#'));
    if (stripped.find_first_not_of(" \t\r") == std::string::npos) continue;
    Result<Query> q = ParseQuery(stripped, &alphabet);
    if (!q.ok()) {
      std::fprintf(stderr, "nwquery: %s:%zu: %s\n", opt.query_file.c_str(),
                   lineno, q.status().message().c_str());
      return 1;
    }
    queries.push_back(q.Take());
    query_texts.push_back(FormatQuery(queries.back(), alphabet));
  }
  if (queries.empty()) {
    std::fprintf(stderr, "nwquery: %s holds no queries\n",
                 opt.query_file.c_str());
    return 1;
  }
  timeline.Record("parse", static_cast<uint64_t>(parse_sw.ElapsedUs()), 0, 0);
  if (opt.stats) opt.opt.timeline = &timeline;

  // Phase 2: fix the symbol space — query names, the text pseudo-symbol,
  // and a catch-all for element names first seen inside documents — and
  // run every query through the optimizer pipeline over it.
  alphabet.Intern("#text");
  Symbol other = alphabet.Intern("%other");
  const size_t num_symbols = alphabet.size();
  OptimizedBank bank = OptimizeBank(queries, num_symbols, opt.opt);
  if (opt.stats_text()) {
    std::printf("compile\tstats\topt=%s queries=%zu states_compiled=%zu "
                "states_final=%zu shared_bank=%s\n",
                opt.opt_level.c_str(), bank.queries.size(),
                bank.states_compiled(), bank.states_final(),
                bank.shared != nullptr ? "yes" : "no");
  }

  // NWStats: the registry outlives every sink render; the tracer is
  // enabled only by the environment (NWQUERY_TRACE=file).
  StatsRegistry registry;
  std::unique_ptr<Tracer> tracer = Tracer::FromEnv();
  // NWProf per-query attribution: the CLI's own table carries the
  // per-query compile-size gauges; runtime counters land here on the
  // single-stream path and in the evaluator's per-shard tables on the
  // frozen path (the registry render merges all registered tables).
  QueryAttribution attribution(queries.size());
  if (opt.stats) {
    registry.SetMeta("mode", opt.freeze ? "frozen" : "single");
    registry.SetMeta("opt", opt.opt_level);
    registry.SetMeta("format", InputFormatName(opt.format));
    registry.SetMetaNum("queries", bank.queries.size());
    registry.SetMetaNum("threads", opt.threads);
    registry.SetMetaNum("states_compiled", bank.states_compiled());
    registry.SetMetaNum("states_final", bank.states_final());
    for (size_t i = 0; i < bank.queries.size(); ++i) {
      attribution.query(i).states_compiled.Set(
          bank.queries[i].states_compiled);
      attribution.query(i).states_final.Set(bank.queries[i].states_final);
    }
    registry.RegisterAttribution(&attribution);
    registry.SetQueryLabels(query_texts);
    registry.SetTimeline(&timeline);
  }

  // Phase 3a: frozen serving — pre-explore, snapshot, shard.
  if (opt.freeze) {
    return ServeFrozen(opt, &bank, &alphabet, num_symbols, other,
                       query_texts, &registry, tracer.get(),
                       opt.stats ? &timeline : nullptr);
  }

  // Phase 3b: single stream — every document once through the whole bank.
  QueryEngine engine(num_symbols);
  engine.set_other_symbol(other);
  // first_match() feeds the per-query MATCH@pos lines; a --quiet run never
  // prints them, so it skips the per-position acceptance scan too.
  engine.set_track_matches(!opt.quiet);
  bank.Register(&engine);
  StatsSink main_sink;
  if (opt.stats) {
    registry.Register("main", &main_sink);
    engine.set_stats(&main_sink);
    engine.set_attribution(&attribution);
    if (bank.shared != nullptr) bank.shared->set_stats(&main_sink);
  }
  // NWPulse on the single-stream path: no corpus cursor to report, but
  // the same per-interval counter/latency series (progress = null).
  PulseOutput pulse_out;
  if (opt.stats_interval_ms > 0 && !OpenPulseOutput(opt, &pulse_out)) {
    return 1;
  }
  std::unique_ptr<PulseSampler> sampler =
      StartSampler(opt, registry, &pulse_out, nullptr);

  for (const std::string& path : opt.xml_files) {
    std::string text;
    if (!ReadFile(path, &text)) return 1;
    EvaluateDocument(path, text, query_texts, &alphabet, &engine, opt,
                     tracer.get());
  }

  if (opt.random_docs > 0) {
    Alphabet gen = GeneratorAlphabet(alphabet, num_symbols);
    Rng rng(opt.seed);
    for (size_t d = 0; d < opt.random_docs; ++d) {
      std::string text = RandomDocument(&rng, gen, opt);
      EvaluateDocument("random[" + std::to_string(d) + "]", text,
                       query_texts, &alphabet, &engine, opt, tracer.get());
    }
  }
  if (sampler != nullptr) sampler->Stop();
  RenderStats(registry, opt);
  return 0;
}
