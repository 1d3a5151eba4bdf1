// NWDaemon core: the resident serving engine behind nwqueryd (ROADMAP:
// NWDaemon). The paper's one-pass/whole-bank guarantee only becomes a
// service when the compiled bank outlives any single document; this
// layer keeps one ShardedEvaluator hot across documents, admits and
// retires queries online, and refreshes the frozen partition epoch-style:
//
//   epoch — an immutable published serving state: the admitted queries,
//     their optimized bank, a frozen partition (opt/bank.h), the
//     alphabet at publish time, and the NWPulse baseline capture
//     per-epoch metrics delta against. Published RCU-fashion as
//     shared_ptr<const DaemonEpoch>: readers (the dispatcher, STATS
//     renders) copy the handle and never block a publisher; a superseded
//     epoch is reclaimed when its last holder drops it.
//
//   admission — ADMIT parses the query against the master alphabet,
//     re-runs the optimizer pipeline over the whole bank, and publishes
//     a COLD epoch (the whole bank's product frozen without exploration:
//     the snapshot holds just the initial state, so every step misses to
//     the overflow banks — correct immediately, slow until refreshed).
//     Admission latency is therefore compile-bound, not
//     exploration-bound.
//
//   refresh — a background thread explores the bank as a complete
//     partition (FrozenPartition::Explore: a few small per-group
//     products under a state budget) and publishes a refreshed epoch
//     sharing the same bank, so the frozen hit rate returns to 1.0 after
//     every admission, with zero reader stalls (serving threads keep
//     streaming over the old epoch until their batch completes).
//     Start-up publishes a refreshed epoch synchronously.
//
// Threading: SUBMITs enqueue to a single dispatcher thread (the
// ShardedEvaluator is not re-entrant — one EvaluateCorpus at a time by
// contract) which batches queued documents per format and fans each
// batch across the shard workers. ADMIT/RETIRE/refresh serialize under
// one admission mutex; epoch publication is a pointer swap under a
// second tiny mutex. All daemon-sink metric writes happen under the
// admission mutex or the dispatcher thread's stats mutex, keeping the
// relaxed-atomic cells single-writer-at-a-time.
#ifndef NW_DAEMON_DAEMON_H_
#define NW_DAEMON_DAEMON_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "nw/alphabet.h"
#include "obs/pulse.h"
#include "obs/stats.h"
#include "opt/pipeline.h"
#include "query/nwquery.h"
#include "serve/sharded.h"
#include "stream/token_stream.h"
#include "support/result.h"

namespace nw {

/// Construction-time knobs for DaemonCore.
struct DaemonOptions {
  /// Shard workers per EvaluateCorpus batch.
  size_t threads = 1;
  /// Front end assumed for SUBMITs that carry no format tag.
  InputFormat default_format = InputFormat::kXml;
  /// Optimizer passes for every (re)compile; bank is forced on — the
  /// daemon's cold epochs serve the shared product.
  OptOptions opt = OptOptions::All();
  /// Unused by the daemon: a refresh explores a complete partition, which
  /// needs no cap. Only the benchmark reads it, as the state cap of its
  /// one-product exploration probe.
  size_t refresh_cap = 1u << 16;
};

/// One published serving state. Immutable after publication; the `bank`
/// is shared with later refreshed epochs of the same admission set.
struct DaemonEpoch {
  uint64_t id = 0;
  /// True when this epoch serves an explored partition rather than a
  /// cold admission freeze.
  bool refreshed = false;
  /// Admission ids, in bank order (= query/result index order).
  std::vector<uint64_t> qids;
  /// Normal-form query texts, parallel to qids.
  std::vector<std::string> query_texts;
  /// Owns the compiled NWAs the frozen partition (and every overflow
  /// bank) aliases into.
  std::shared_ptr<OptimizedBank> bank;
  /// The immutable partition this epoch serves — the RCU unit. Complete
  /// on a refreshed epoch; one cold snapshot of the whole bank otherwise.
  std::shared_ptr<const FrozenPartition> frozen;
  /// Master-alphabet snapshot at publish (workers copy it per batch).
  Alphabet alphabet;
  size_t num_symbols = 0;
  /// Registry capture at publish: per-epoch metrics are
  /// SnapshotDelta(baseline, now).
  StatsSnapshot baseline;
};

/// One SUBMIT's outcome: the document's per-query results plus the
/// epoch that served it (so callers can render query texts and tests
/// can oracle-check against exactly that epoch's bank).
struct SubmitOutcome {
  std::shared_ptr<const DaemonEpoch> epoch;
  DocResult result;
  /// Submit-to-result wall time (queue wait + evaluation), µs.
  uint64_t latency_us = 0;
};

/// Per-epoch serving metrics (the STATS payload), derived from the
/// snapshot delta between the epoch's publish baseline and now.
struct EpochMetrics {
  uint64_t epoch = 0;
  bool refreshed = false;
  size_t queries = 0;
  size_t frozen_states = 0;  ///< over every group of the partition
  size_t num_symbols = 0;
  // -- interval (since this epoch was published) --
  uint64_t documents = 0;
  uint64_t positions = 0;
  uint64_t frozen_hits = 0;
  uint64_t frozen_misses = 0;
  bool has_traffic = false;
  double hit_rate = 0.0;  ///< meaningful only when has_traffic
  uint64_t doc_p50_us = 0;
  uint64_t doc_p99_us = 0;
  // -- lifetime --
  uint64_t total_requests = 0;
  uint64_t total_documents = 0;
  uint64_t admissions = 0;
  uint64_t retirements = 0;
  uint64_t refreshes = 0;
  uint64_t admit_p99_us = 0;
};

/// The resident engine. Construct with at least one query (a SharedBank
/// product needs >= 1 automaton, so a daemon serving zero queries is
/// unrepresentable — RETIRE of the last query is rejected for the same
/// reason), then Start(); Submit/Admit/Retire are safe from any number
/// of connection threads. DrainAndStop() completes every accepted
/// SUBMIT before returning — the graceful-shutdown half of the protocol.
class DaemonCore {
 public:
  /// Parses and compiles `initial_queries` (normal nwquery grammar, one
  /// per entry) and publishes epoch 0 refreshed, so startup serves a
  /// complete partition. Aborts (NW_CHECK) on an empty
  /// list; a query that fails to parse leaves the object unusable with
  /// the message in init_error() — check ok() before Start().
  DaemonCore(const std::vector<std::string>& initial_queries,
             const DaemonOptions& options);
  ~DaemonCore();

  DaemonCore(const DaemonCore&) = delete;
  DaemonCore& operator=(const DaemonCore&) = delete;

  /// False when an initial query failed to parse/compile; the error has
  /// the message. A !ok() core must not be started.
  bool ok() const { return init_error_.ok(); }
  const Status& init_error() const { return init_error_; }

  /// Launches the dispatcher and refresher threads. Call once.
  void Start();

  /// Stops accepting new work, completes every already-accepted SUBMIT,
  /// joins the background threads. Idempotent; the destructor calls it.
  void DrainAndStop();

  /// Evaluates one document against the current epoch. Blocks until the
  /// dispatcher's batch containing it completes. Thread-safe.
  Result<SubmitOutcome> Submit(std::string doc, InputFormat format);

  /// Tallies one accepted protocol request (any op) into the daemon
  /// sink. The server calls this once per parsed request; direct API
  /// users (tests) may skip it. Thread-safe.
  void CountRequest();

  /// Admits one query online: compile + optimize into a fresh bank,
  /// publish a cold epoch, nudge the background refresh. Returns the
  /// new query's admission id. Thread-safe; admissions serialize.
  Result<uint64_t> Admit(const std::string& query_text);

  /// Retires an admitted query by id. Rejects unknown ids and the last
  /// remaining query. Thread-safe.
  Status Retire(uint64_t qid);

  /// Blocks until a refresh published at or after this call completes —
  /// the deterministic spelling the tests and a drain use ("the hit
  /// rate has climbed" needs a refreshed epoch to exist).
  void AwaitRefresh();

  /// The currently-serving epoch (never null after construction).
  std::shared_ptr<const DaemonEpoch> current_epoch() const;

  /// Per-epoch metrics: delta between the current epoch's baseline and
  /// a capture taken now. Thread-safe.
  EpochMetrics Metrics() const;

  /// The STATS response payload: Metrics() as one stable JSON object.
  std::string RenderStatsJson() const;

  /// The registry behind /metrics (RenderProm) and the pulse sampler.
  /// Fully registered by the end of construction — safe to sample.
  const StatsRegistry& registry() const { return registry_; }

  size_t threads() const { return options_.threads; }
  InputFormat default_format() const { return options_.default_format; }

 private:
  struct PendingDoc {
    std::string text;
    InputFormat format;
    uint64_t enqueue_us;
    std::promise<SubmitOutcome> done;
  };

  /// Freezes `bank_` and publishes it as a new epoch: explored as a
  /// complete partition when `refreshed`, else cold (the unexplored
  /// product, served through the overflow banks). Caller holds
  /// admit_mu_.
  void PublishEpochLocked(bool refreshed);

  /// Rebuilds the OptimizedBank from the admitted ASTs. Caller holds
  /// admit_mu_.
  void RebuildBankLocked();

  void DispatcherLoop();
  void RefresherLoop();

  DaemonOptions options_;
  Status init_error_;

  // -- admission state (admit_mu_): the master alphabet, the admitted
  // query list, and the bank under construction. --
  mutable std::mutex admit_mu_;
  Alphabet alphabet_;
  Symbol other_ = Alphabet::kNoSymbol;
  struct Admitted {
    uint64_t qid;
    std::string text;  ///< normal form (FormatQuery)
    Query ast;         ///< pre-rewrite AST, recompiled on every rebuild
  };
  std::vector<Admitted> admitted_;
  uint64_t next_qid_ = 0;
  std::shared_ptr<OptimizedBank> bank_;

  // -- epoch publication (state_mu_): the RCU pointer swap. --
  mutable std::mutex state_mu_;
  std::shared_ptr<const DaemonEpoch> epoch_;
  uint64_t next_epoch_id_ = 0;

  // -- dispatch queue (queue_mu_). --
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<PendingDoc>> queue_;
  bool stopping_ = false;

  // -- refresh signal (refresh_mu_). --
  std::mutex refresh_mu_;
  std::condition_variable refresh_cv_;
  uint64_t refresh_requested_ = 0;  ///< generation counter
  uint64_t refresh_done_ = 0;
  bool refresh_stop_ = false;

  // -- observability. Registration completes in the constructor (the
  // pulse scraper and RenderProm iterate the sink list lock-free). The
  // daemon sink's cells are written under admit_mu_ (control ops) or
  // stats_mu_ (dispatcher + connection-thread request tallies). --
  StatsRegistry registry_;
  StatsSink daemon_sink_;
  mutable std::mutex stats_mu_;

  // -- the evaluator pool: one ShardedEvaluator reused across epochs
  // via Rebind (only the dispatcher thread touches it after Start). --
  std::unique_ptr<ShardedEvaluator> evaluator_;
  uint64_t bound_epoch_ = 0;  ///< epoch id the evaluator last Rebind-ed

  std::thread dispatcher_;
  std::thread refresher_;
  bool started_ = false;
};

}  // namespace nw

#endif  // NW_DAEMON_DAEMON_H_
