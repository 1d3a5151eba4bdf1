// `nwbench_tool layers`: the traced per-layer replay.
//
//   nwbench_tool layers --workload W --seed N --spans FILE
//
// Regenerates the workload's inputs (GenerateWorkload: the same bytes the
// end-to-end run feeds nwquery/nwqueryd) and replays them through the
// public functions of each serving-path layer: the stream front ends
// (xml/json/trace), query, opt, serve, daemon and obs. Every call into a
// layer is wrapped in a span (name, start, end, parent, request id =
// document index); spans stay in memory and are written to FILE as JSON
// lines at the end. The last stdout line is one JSON object with the
// per-layer metrics, the consistency checks, and how many result
// comparisons were attempted and failed.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "daemon/daemon.h"
#include "daemon/protocol.h"
#include "daemon/server.h"
#include "json/json.h"
#include "obs/stats.h"
#include "opt/pipeline.h"
#include "query/engine.h"
#include "query/nwquery.h"
#include "serve/frozen_bank.h"
#include "serve/sharded.h"
#include "trace/trace.h"
#include "xml/xml.h"

namespace nwbench {

namespace {

using nw::InputFormat;

constexpr size_t kSampleDocs = 32;   ///< tokenizer / step corpus per format
constexpr size_t kDaemonDocs = 64;   ///< documents for the daemon probes
constexpr int kReps = 3;

/// In-memory span log, recorded from the replay's (single) thread.
class SpanLog {
 public:
  struct Span {
    uint64_t id;
    uint64_t parent;  ///< 0 = root
    const char* name;
    int64_t start;
    int64_t end;
    int64_t request;  ///< document index, -1 when the span is not per-doc
  };

  bool enabled = true;

  uint64_t Begin(const char* name, int64_t request) {
    if (!enabled) return 0;
    Span s{spans_.size() + 1, stack_.empty() ? 0 : stack_.back(), name,
           NowNs(), 0, request};
    spans_.push_back(s);
    stack_.push_back(s.id);
    return s.id;
  }

  void End(uint64_t id) {
    if (id == 0) return;
    spans_[id - 1].end = NowNs();
    stack_.pop_back();
  }

  bool Write(const std::string& path) const {
    std::string out;
    for (const Span& s : spans_) {
      out += "{\"id\":" + std::to_string(s.id) +
             ",\"parent\":" + std::to_string(s.parent) + ",\"name\":\"" +
             s.name + "\",\"start\":" + std::to_string(s.start) +
             ",\"end\":" + std::to_string(s.end) +
             ",\"request\":" + std::to_string(s.request) + "}\n";
    }
    return WriteFile(path, out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<uint64_t> stack_;
};

class Scope {
 public:
  Scope(SpanLog* log, const char* name, int64_t request = -1)
      : log_(log), id_(log->Begin(name, request)) {}
  ~Scope() { log_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  uint64_t id_;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Wall ms of one call.
double TimeMs(const std::function<void()>& f) {
  int64_t t0 = NowNs();
  f();
  return (NowNs() - t0) / 1e6;
}

/// Median wall ms of `reps` calls.
double MedianMs(int reps, const std::function<void()>& f) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) ms.push_back(TimeMs(f));
  return Median(ms);
}

const char* TokenizeSpan(InputFormat f) {
  switch (f) {
    case InputFormat::kJson: return "json.tokenize";
    case InputFormat::kTrace: return "trace.tokenize";
    default: return "xml.tokenize";
  }
}

template <class Stream>
size_t CountTokens(const std::string& text, nw::Alphabet* alphabet) {
  Stream stream(text, alphabet);
  nw::TaggedSymbol t;
  size_t n = 0;
  while (stream.Next(&t)) ++n;
  return n;
}

size_t Tokenize(InputFormat f, const std::string& text,
                nw::Alphabet* alphabet) {
  switch (f) {
    case InputFormat::kJson:
      return CountTokens<nw::JsonTokenStream>(text, alphabet);
    case InputFormat::kTrace:
      return CountTokens<nw::TraceTokenStream>(text, alphabet);
    default:
      return CountTokens<nw::XmlTokenStream>(text, alphabet);
  }
}

/// A query bank through the optimizer pipeline over its own alphabet,
/// the way nwquery and nwqueryd compile it.
struct Compiled {
  nw::Alphabet alphabet;
  nw::Symbol other = nw::Alphabet::kNoSymbol;
  size_t num_symbols = 0;
  std::vector<nw::Query> queries;
  nw::OptimizedBank bank;
};

std::unique_ptr<Compiled> Compile(const std::vector<std::string>& texts) {
  auto c = std::make_unique<Compiled>();
  for (const std::string& q : texts) {
    c->queries.push_back(nw::ParseQuery(q, &c->alphabet).Take());
  }
  c->alphabet.Intern("#text");
  c->other = c->alphabet.Intern("%other");
  c->num_symbols = c->alphabet.size();
  c->bank = nw::OptimizeBank(c->queries, c->num_symbols,
                             nw::OptOptions::All());
  return c;
}

bool SameResult(const nw::DocResult& a, const nw::DocResult& b) {
  return a.accept == b.accept && a.first_match == b.first_match;
}

/// The metrics, checks and comparison tallies of one replay.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::string checks;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::pair<std::string, size_t>> failures;

  void Metric(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Tallies one result comparison; failures are counted per `what`.
  void Compare(const char* what, bool same) {
    ++attempted;
    if (same) return;
    ++failed;
    for (auto& [name, count] : failures) {
      if (name == what) {
        ++count;
        return;
      }
    }
    failures.push_back({what, 1});
  }
  void Check(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    checks += (checks.empty() ? "\"" : ",\"") + name + "\":" + buf;
  }
  std::string Json() const {
    std::string out = "{\"attempted\":" + std::to_string(attempted) +
                      ",\"failed\":" + std::to_string(failed) +
                      ",\"failures\":{";
    for (size_t i = 0; i < failures.size(); ++i) {
      out += (i > 0 ? ",\"" : "\"") + failures[i].first +
             "\":" + std::to_string(failures[i].second);
    }
    out += "},\"checks\":{" + checks + "},\"metrics\":{";
    for (size_t i = 0; i < metrics.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", metrics[i].second.first);
      out += (i > 0 ? ",\"" : "\"") + metrics[i].first +
             "\":{\"value\":" + buf + ",\"unit\":\"" +
             metrics[i].second.second + "\"}";
    }
    return out + "}}";
  }
};

/// The workload's documents split per format (EvaluateCorpus streams one
/// format per call, as the daemon's dispatcher does).
struct Corpora {
  std::vector<std::string> text[3];
};

/// One pass of the whole workload corpus through `ev`, format by format.
std::vector<nw::DocResult> EvaluateAll(nw::ShardedEvaluator* ev,
                                       const Corpora& c,
                                       const nw::Alphabet& alphabet,
                                       nw::ServeStats* stats = nullptr) {
  std::vector<nw::DocResult> out;
  for (int f = 0; f < 3; ++f) {
    if (c.text[f].empty()) continue;
    ev->set_format(static_cast<InputFormat>(f));
    std::vector<nw::DocResult> part =
        ev->EvaluateCorpus(c.text[f], alphabet, true);
    if (stats != nullptr) {
      stats->frozen_hits += ev->stats().frozen_hits;
      stats->frozen_misses += ev->stats().frozen_misses;
      stats->positions += ev->stats().positions;
    }
    for (nw::DocResult& r : part) out.push_back(std::move(r));
  }
  return out;
}

/// Stream-layer metrics: tokenizer ns/position per format over the
/// sample documents rendered in that format.
void TokenizerLayer(const Workload& w, const Compiled& c, SpanLog* log,
                    Report* rep, double* xml_ns_per_pos) {
  for (int f = 0; f < 3; ++f) {
    const InputFormat format = static_cast<InputFormat>(f);
    size_t positions = 0;
    double ms = MedianMs(kReps, [&] {
      nw::Alphabet alphabet = c.alphabet;
      positions = 0;
      for (size_t d = 0; d < w.samples[f].size(); ++d) {
        Scope s(log, TokenizeSpan(format), static_cast<int64_t>(d));
        positions += Tokenize(format, w.samples[f][d], &alphabet);
      }
    });
    double ns = ms * 1e6 / std::max<size_t>(1, positions);
    if (format == InputFormat::kXml) *xml_ns_per_pos = ns;
    rep->Metric(std::string(TokenizeSpan(format)) + "_ns_per_pos", ns,
                "ns/pos");
  }
}

/// query-layer metrics on the frozen path: stepping a materialized
/// NestedWord vs streaming the text (tokenize + step) over the XML
/// samples, plus the consistency and tracing-overhead checks.
void QueryLayer(const Workload& w, const Compiled& c,
                const nw::FrozenBank& frozen, SpanLog* log, Report* rep,
                double xml_ns_per_pos) {
  const std::vector<std::string>& xml = w.samples[0];
  nw::Alphabet alphabet = c.alphabet;
  std::vector<nw::NestedWord> words;
  for (const std::string& text : xml) {
    words.push_back(nw::XmlToNestedWord(text, &alphabet));
  }
  nw::OverflowBank overflow(&frozen);
  nw::QueryEngine engine(c.num_symbols);
  engine.set_other_symbol(c.other);
  engine.AddFrozen(&frozen, &overflow);
  size_t positions = 0;
  double step_ms = MedianMs(kReps, [&] {
    size_t before = engine.positions();
    for (size_t d = 0; d < words.size(); ++d) {
      Scope s(log, "query.step", static_cast<int64_t>(d));
      engine.RunAll(words[d]);
    }
    positions = engine.positions() - before;
  });
  double stream_ms = MedianMs(kReps, [&] {
    for (size_t d = 0; d < xml.size(); ++d) {
      Scope s(log, "query.stream", static_cast<int64_t>(d));
      engine.RunAll(xml[d], &alphabet, InputFormat::kXml);
    }
  });
  double step = step_ms * 1e6 / std::max<size_t>(1, positions);
  double stream = stream_ms * 1e6 / std::max<size_t>(1, positions);
  rep->Metric("query.step_ns_per_pos", step, "ns/pos");
  rep->Metric("query.stream_ns_per_pos", stream, "ns/pos");
  // Consistency: the two halves measured apart should add up to the
  // whole measured at once.
  double sum_ratio = (xml_ns_per_pos + step) / stream;
  rep->Metric("nwbench.layer_sum_ratio", sum_ratio, "ratio");
  rep->Check("layer_sum_within_20pct",
             sum_ratio > 0.8 && sum_ratio < 1.2 ? 1 : 0);

  // Tracing overhead: the same data-plane replay (tokenize + stream)
  // with span recording off and on, interleaved.
  std::vector<double> ratios;
  for (int r = 0; r < kReps; ++r) {
    double t[2];
    for (int traced = 0; traced < 2; ++traced) {
      log->enabled = traced == 1;
      t[traced] = TimeMs([&] {
        for (size_t d = 0; d < xml.size(); ++d) {
          Scope s(log, "xml.tokenize", static_cast<int64_t>(d));
          nw::Alphabet a = c.alphabet;
          Tokenize(InputFormat::kXml, xml[d], &a);
        }
        for (size_t d = 0; d < xml.size(); ++d) {
          Scope s(log, "query.stream", static_cast<int64_t>(d));
          engine.RunAll(xml[d], &alphabet, InputFormat::kXml);
        }
      });
    }
    log->enabled = true;
    ratios.push_back(t[1] / t[0]);
  }
  rep->Metric("nwbench.trace_overhead_ratio", Median(ratios), "ratio");
}

/// serve- and obs-layer metrics over the serving snapshot.
void ServeLayer(const Workload& w, const Compiled& c,
                const nw::FrozenBank& frozen, const Corpora& corpora,
                SpanLog* log, Report* rep) {
  // Hit rate and overflow traffic of one pass; its results are the
  // reference the other thread counts must reproduce.
  nw::ServeStats stats;
  std::vector<nw::DocResult> reference;
  {
    Scope s(log, "serve.evaluate");
    nw::ShardedEvaluator ev(&frozen, c.num_symbols, c.other, 1);
    reference = EvaluateAll(&ev, corpora, c.alphabet, &stats);
  }
  rep->Metric("serve.hit_rate", stats.hit_rate(), "ratio");
  rep->Metric("serve.overflow_steps", static_cast<double>(stats.frozen_misses),
              "count");

  // Sharding efficiency at 1, 2 and 4 threads.
  double ms[3];
  const size_t threads[3] = {1, 2, 4};
  const char* names[3] = {"serve.corpus_t1", "serve.corpus_t2",
                          "serve.corpus_t4"};
  for (int i = 0; i < 3; ++i) {
    nw::ShardedEvaluator ev(&frozen, c.num_symbols, c.other, threads[i]);
    ms[i] = MedianMs(kReps, [&] {
      Scope s(log, names[i]);
      std::vector<nw::DocResult> got = EvaluateAll(&ev, corpora, c.alphabet);
      for (size_t d = 0; d < got.size(); ++d) {
        rep->Compare("serve.threads", SameResult(got[d], reference[d]));
      }
    });
  }
  rep->Metric("serve.speedup_t2", ms[0] / ms[1], "x");
  rep->Metric("serve.speedup_t4", ms[0] / ms[2], "x");

  // obs: the stats sinks' cost, interleaved plain/stats passes; the
  // stats-attached evaluator also yields the per-shard busy times.
  nw::StatsRegistry registry;
  nw::ShardedEvaluator plain(&frozen, c.num_symbols, c.other, 4);
  nw::ShardedEvaluator with_stats(&frozen, c.num_symbols, c.other, 4);
  with_stats.AttachStats(&registry, false);
  std::vector<double> ratios;
  for (int r = 0; r < kReps + 2; ++r) {
    double off = TimeMs([&] {
      Scope s(log, "serve.corpus_t4");
      EvaluateAll(&plain, corpora, c.alphabet);
    });
    double on = TimeMs([&] {
      Scope s(log, "obs.corpus_t4_stats");
      EvaluateAll(&with_stats, corpora, c.alphabet);
    });
    ratios.push_back(on / off);
  }
  rep->Metric("obs.stats_overhead_ratio", Median(ratios), "ratio");
  double busy_max = 0, busy_sum = 0;
  size_t shards = 0;
  for (const auto& [label, sink] : registry.sinks()) {
    if (label.rfind("shard/", 0) != 0) continue;
    double busy = static_cast<double>(sink->shard_busy_us.value());
    busy_max = std::max(busy_max, busy);
    busy_sum += busy;
    ++shards;
  }
  rep->Metric("serve.shard_skew",
              busy_sum > 0 ? busy_max * shards / busy_sum : 1.0, "ratio");

  // Overflow step cost: a cold snapshot (initial state only: every step
  // misses) against the serving snapshot, one thread, XML samples.
  {
    std::unique_ptr<Compiled> cold = Compile(w.bank);
    nw::FrozenBank cold_frozen = nw::FrozenBank::Freeze(*cold->bank.shared);
    const std::vector<std::string>& xml = w.samples[0];
    nw::ShardedEvaluator warm_ev(&frozen, c.num_symbols, c.other, 1);
    nw::ShardedEvaluator cold_ev(&cold_frozen, cold->num_symbols,
                                 cold->other, 1);
    double warm_ms = MedianMs(kReps, [&] {
      Scope s(log, "serve.warm_pass");
      warm_ev.EvaluateCorpus(xml, c.alphabet, true);
    });
    double cold_ms = MedianMs(kReps, [&] {
      Scope s(log, "serve.cold_pass");
      cold_ev.EvaluateCorpus(xml, cold->alphabet, true);
    });
    double extra = static_cast<double>(cold_ev.stats().frozen_misses) -
                   static_cast<double>(warm_ev.stats().frozen_misses);
    rep->Metric("serve.overflow_ns_per_step",
                extra > 0 ? (cold_ms - warm_ms) * 1e6 / extra : 0.0,
                "ns/step");
  }

  // Fixed cost of one EvaluateCorpus call (threads spawned per call).
  const std::vector<std::string> tiny = {"<a></a>"};
  for (size_t t : {1, 4}) {
    nw::ShardedEvaluator ev(&frozen, c.num_symbols, c.other, t);
    std::vector<double> us;
    for (int r = 0; r < 200; ++r) {
      Scope s(log, "serve.tiny_call");
      us.push_back(TimeMs([&] { ev.EvaluateCorpus(tiny, c.alphabet, true); }) *
                   1e3);
    }
    rep->Metric("serve.call_overhead_us_t" + std::to_string(t), Median(us),
                "us");
  }
}

int Connect(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One request/response round trip on a blocking socket.
bool RoundTrip(int fd, const std::string& line, std::string* buf) {
  size_t off = 0;
  while (off < line.size()) {
    ssize_t n = ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  buf->clear();
  char chunk[1 << 16];
  while (buf->find('\n') == std::string::npos) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buf->append(chunk, static_cast<size_t>(n));
  }
  return true;
}

/// daemon-layer metrics: request parsing, dispatch vs direct evaluation,
/// the socket round trip, over a daemon serving the workload's bank.
void DaemonLayer(const Workload& w, SpanLog* log, Report* rep) {
  const size_t n = std::min(kDaemonDocs, w.docs.size());
  std::vector<std::string> lines;
  size_t bytes = 0;
  for (size_t d = 0; d < n; ++d) {
    lines.push_back(SubmitLine(w.docs[d], d));
    lines.back().pop_back();  // the server parses the line without '\n'
    bytes += lines.back().size();
  }
  double parse_ms = MedianMs(kReps, [&] {
    for (size_t d = 0; d < n; ++d) {
      Scope s(log, "daemon.parse", static_cast<int64_t>(d));
      rep->Compare("daemon.parse", nw::ParseDaemonRequest(lines[d]).ok());
    }
  });
  rep->Metric("daemon.parse_ns_per_byte", parse_ms * 1e6 / bytes, "ns/B");

  nw::DaemonOptions options;
  options.threads = 2;
  std::unique_ptr<nw::DaemonCore> core;
  {
    Scope s(log, "daemon.start");
    core = std::make_unique<nw::DaemonCore>(w.bank, options);
  }
  if (!core->ok()) {
    rep->Compare("daemon.start", false);
    return;
  }
  core->Start();
  std::shared_ptr<const nw::DaemonEpoch> epoch = core->current_epoch();
  nw::ShardedEvaluator direct(epoch->frozen.get(), epoch->num_symbols,
                              epoch->alphabet.Find("%other"), 2);
  std::vector<double> submit_us(n), direct_us(n);
  for (int r = 0; r < kReps; ++r) {
    for (size_t d = 0; d < n; ++d) {
      std::vector<nw::DocResult> want;
      double dus = TimeMs([&] {
        Scope s(log, "serve.direct", static_cast<int64_t>(d));
        direct.set_format(w.docs[d].format);
        want = direct.EvaluateCorpus({w.docs[d].text}, epoch->alphabet, true);
      }) * 1e3;
      std::optional<nw::Result<nw::SubmitOutcome>> got;
      double sus = TimeMs([&] {
        Scope s(log, "daemon.submit", static_cast<int64_t>(d));
        got.emplace(core->Submit(w.docs[d].text, w.docs[d].format));
      }) * 1e3;
      rep->Compare("daemon.submit",
                   got->ok() && SameResult((**got).result, want[0]));
      if (r == 0 || dus < direct_us[d]) direct_us[d] = dus;
      if (r == 0 || sus < submit_us[d]) submit_us[d] = sus;
    }
  }
  double submit_total = 0, direct_total = 0;
  for (size_t d = 0; d < n; ++d) {
    submit_total += submit_us[d];
    direct_total += direct_us[d];
  }
  rep->Metric("daemon.dispatch_overhead_ratio", submit_total / direct_total,
              "ratio");

  // Socket round trip: the same documents through an in-process server.
  nw::ServerOptions server_options;
  server_options.socket_path = "layers.sock";
  nw::DaemonServer server(core.get(), server_options);
  if (!server.Start().ok()) {
    rep->Compare("daemon.socket", false);
  } else {
    std::thread serving([&] { server.Run(); });
    // Each document alternates between the two paths; the fastest of
    // kReps tries on each side is compared.
    int fd = Connect(server_options.socket_path);
    std::vector<double> rtt_us(n), local_us(n);
    std::string buf;
    for (int r = 0; r < kReps && fd >= 0; ++r) {
      for (size_t d = 0; d < n; ++d) {
        double lus = TimeMs([&] {
          Scope s(log, "daemon.submit", static_cast<int64_t>(d));
          core->Submit(w.docs[d].text, w.docs[d].format);
        }) * 1e3;
        bool ok = false;
        double us = TimeMs([&] {
          Scope s(log, "daemon.socket_submit", static_cast<int64_t>(d));
          ok = RoundTrip(fd, lines[d] + "\n", &buf);
        }) * 1e3;
        rep->Compare("daemon.socket", ok && buf.rfind("{\"ok\":true", 0) == 0);
        if (r == 0 || lus < local_us[d]) local_us[d] = lus;
        if (r == 0 || us < rtt_us[d]) rtt_us[d] = us;
      }
    }
    if (fd < 0) rep->Compare("daemon.socket", false);
    double extra = 0;
    for (size_t d = 0; d < n; ++d) extra += rtt_us[d] - local_us[d];
    rep->Metric("daemon.socket_rtt_us", extra / n, "us");
    if (fd >= 0) ::close(fd);
    server.Stop();
    serving.join();
  }
  core->DrainAndStop();
}

/// Admission metrics on the churn bank (the first four templates): a
/// K=16 bank cannot admit more without exhausting memory (README).
void AdmissionLayer(const Workload& w, SpanLog* log, Report* rep) {
  std::vector<std::string> admit = w.admit;
  if (admit.empty()) admit.push_back(BankQueries(5)[4]);
  nw::DaemonOptions options;
  options.threads = 2;
  nw::DaemonCore core(BankQueries(4), options);
  if (!core.ok()) {
    rep->Compare("daemon.admission", false);
    return;
  }
  core.Start();
  // Recent traffic for the refresh to replay.
  for (size_t d = 0; d < std::min<size_t>(16, w.samples[0].size()); ++d) {
    rep->Compare("daemon.admission",
                 core.Submit(w.samples[0][d], InputFormat::kXml).ok());
  }
  std::vector<double> admit_ms, retire_ms, refresh_ms;
  for (const std::string& q : admit) {
    std::optional<nw::Result<uint64_t>> qid;
    admit_ms.push_back(TimeMs([&] {
      Scope s(log, "daemon.admit");
      qid.emplace(core.Admit(q));
    }));
    rep->Compare("daemon.admission", qid->ok());
    if (!qid->ok()) break;
    refresh_ms.push_back(TimeMs([&] {
      Scope s(log, "daemon.refresh");
      core.AwaitRefresh();
    }));
    bool retired = false;
    retire_ms.push_back(TimeMs([&] {
      Scope s(log, "daemon.retire");
      retired = core.Retire(**qid).ok();
    }));
    rep->Compare("daemon.admission", retired);
    refresh_ms.push_back(TimeMs([&] {
      Scope s(log, "daemon.refresh");
      core.AwaitRefresh();
    }));
  }
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / v.size();
  };
  rep->Metric("daemon.admit_ms", mean(admit_ms), "ms");
  rep->Metric("daemon.retire_ms", mean(retire_ms), "ms");
  rep->Metric("daemon.refresh_ms", mean(refresh_ms), "ms");
  core.DrainAndStop();
}

}  // namespace

int RunLayers(int argc, char** argv) {
  std::string workload, spans_path;
  uint64_t seed = 0;
  for (int i = 0; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    if (flag == "--workload") workload = argv[i + 1];
    if (flag == "--seed") seed = std::strtoull(argv[i + 1], nullptr, 10);
    if (flag == "--spans") spans_path = argv[i + 1];
  }
  Workload w;
  if (spans_path.empty() ||
      !GenerateWorkload(workload, seed, kSampleDocs, &w)) {
    std::fprintf(stderr,
                 "usage: nwbench_tool layers --workload W --seed N "
                 "--spans FILE\n");
    return 2;
  }
  SpanLog log;
  Report rep;
  const uint64_t root = log.Begin("nwbench.layers", -1);

  // query: parse + optimize the bank.
  std::unique_ptr<Compiled> c;
  double compile_ms = MedianMs(kReps, [&] {
    Scope s(&log, "query.compile");
    c = Compile(w.bank);
  });
  rep.Metric("query.compile_ms", compile_ms, "ms");

  // opt: train a lazy bank on the training documents (the held-out set
  // for batch-xml, the first documents otherwise), and explore another
  // exhaustively under nwqueryd's cap.
  std::unique_ptr<Compiled> trained = Compile(w.bank);
  {
    const std::vector<GenDoc>& train =
        w.train.empty()
            ? std::vector<GenDoc>(w.docs.begin(),
                                  w.docs.begin() +
                                      std::min<size_t>(16, w.docs.size()))
            : w.train;
    double ms = TimeMs([&] {
      Scope s(&log, "opt.train");
      nw::QueryEngine trainer(trained->num_symbols);
      trainer.set_other_symbol(trained->other);
      trainer.AddBank(trained->bank.shared.get());
      nw::Alphabet local = trained->alphabet;
      for (size_t d = 0; d < train.size(); ++d) {
        Scope doc(&log, "opt.train_doc", static_cast<int64_t>(d));
        trainer.RunAll(train[d].text, &local, train[d].format);
      }
    });
    rep.Metric("opt.train_ms", ms, "ms");
  }
  std::unique_ptr<Compiled> explored = Compile(w.bank);
  {
    nw::SharedBank* bank = explored->bank.shared.get();
    double ms = TimeMs([&] {
      Scope s(&log, "opt.explore");
      bank->ExploreAll(nw::DaemonOptions().refresh_cap);
    });
    rep.Metric("opt.explore_ms", ms, "ms");
    rep.Metric("opt.explore_states", static_cast<double>(bank->num_states()),
               "count");
    rep.Metric("opt.explore_us_per_state", ms * 1e3 / bank->num_states(),
               "us");
    rep.Metric("opt.explore_returns",
               static_cast<double>(bank->MemoizedReturns().size()), "count");
  }

  // serve: the snapshot the workload is served from — trained for the
  // batch CLI (--freeze=<training docs>), explored for the daemon.
  {
    std::unique_ptr<Compiled> serving =
        w.daemon ? std::move(explored) : std::move(trained);
    explored.reset();
    trained.reset();
    std::shared_ptr<const nw::FrozenBank> frozen;
    double freeze_ms = TimeMs([&] {
      Scope s(&log, "serve.freeze");
      frozen = nw::FrozenBank::FreezeShared(*serving->bank.shared);
    });
    rep.Metric("serve.freeze_ms", freeze_ms, "ms");
    rep.Metric("serve.frozen_states",
               static_cast<double>(frozen->num_states()), "count");

    double xml_ns = 0;
    TokenizerLayer(w, *serving, &log, &rep, &xml_ns);
    QueryLayer(w, *serving, *frozen, &log, &rep, xml_ns);
    Corpora corpora;
    for (size_t d = 0; d < w.docs.size(); ++d) {
      int f = static_cast<int>(w.docs[d].format);
      corpora.text[f].push_back(w.docs[d].text);
    }
    ServeLayer(w, *serving, *frozen, corpora, &log, &rep);
  }

  DaemonLayer(w, &log, &rep);
  AdmissionLayer(w, &log, &rep);
  log.End(root);

  if (!log.Write(spans_path)) return 1;
  std::printf("%s\n", rep.Json().c_str());
  return 0;
}

}  // namespace nwbench
