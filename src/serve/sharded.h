// Parallel sharded streaming evaluation (ROADMAP: parallel sharded
// streams). One frozen bank backs N worker threads: a complete
// FrozenPartition (opt/bank.h), or a snapshot that can miss (a const
// SharedBank). Each worker owns a private QueryEngine (run state is
// per-stream), a private copy of the alphabet (interning mutates it),
// and, over a snapshot that can miss, a private mutex-guarded
// OverflowBank for its misses. Documents are
// pulled off a shared atomic cursor, so shards load-balance dynamically,
// and every result is written to the document's own slot — the merged
// output is a pure function of the corpus, independent of thread count
// and scheduling (the differential tests in tests/serve_test.cc pin
// byte-identity against the single-stream AddBank path at N ∈ {1, 2, 8}).
#ifndef NW_SERVE_SHARDED_H_
#define NW_SERVE_SHARDED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nw/alphabet.h"
#include "obs/pulse.h"
#include "serve/frozen_bank.h"
#include "stream/token_stream.h"

namespace nw {

class QueryAttribution;
class StatsRegistry;
class Tracer;

/// One document's evaluation, in corpus order.
struct DocResult {
  /// Per-query acceptance of the whole document.
  std::vector<bool> accept;
  /// Per-query first-accept position (−1 = never), present only when
  /// match tracking was requested.
  std::vector<int64_t> first_match;
  /// Tagged positions the document streamed to.
  size_t positions = 0;
};

/// Aggregate counters of one EvaluateCorpus call, summed over shards.
struct ServeStats {
  size_t documents = 0;
  size_t positions = 0;
  /// Steps answered lock-free by the frozen snapshot.
  size_t frozen_hits = 0;
  /// Steps that took a shard's overflow mutex.
  size_t frozen_misses = 0;
  /// Worker threads the corpus was sharded across.
  size_t threads = 0;

  /// True once any step has been classified hit-or-miss. hit_rate() is
  /// only meaningful then; renderers print n/a (or JSON null) otherwise.
  bool has_traffic() const { return frozen_hits + frozen_misses > 0; }

  /// Fraction of steps served lock-free (1.0 on a fully-explored bank,
  /// and — by convention, so ratio tables stay finite — on zero traffic;
  /// gate on has_traffic() where the distinction matters).
  double hit_rate() const {
    size_t total = frozen_hits + frozen_misses;
    return total == 0 ? 1.0 : static_cast<double>(frozen_hits) / total;
  }
};

/// Worker-threaded corpus evaluation over one frozen bank. Each
/// EvaluateCorpus call spawns up to `threads` fresh workers and joins
/// them before returning (no persistent pool — worker state is rebuilt
/// per call).
///
/// Invariants: the frozen snapshot is const, never written, so
/// workers read it without synchronization; all mutable run state
/// (engine, overflow bank, alphabet copy) is shard-private. The
/// evaluator itself is NOT re-entrant — call EvaluateCorpus from one
/// thread at a time.
class ShardedEvaluator {
 public:
  /// `frozen` must outlive the evaluator. `num_symbols` and
  /// `other_symbol` configure each worker engine exactly like the
  /// single-stream CLI path (out-of-space stream symbols remap to the
  /// catch-all). `threads` >= 1. `format` selects the tokenizer front
  /// end each worker streams documents through (stream/token_stream.h) —
  /// the ONLY thing that varies by format; sharding, stepping, stats,
  /// and attribution are format-blind. The snapshot may miss: each
  /// worker routes its misses to a private overflow bank.
  ShardedEvaluator(const SharedBank* frozen, size_t num_symbols,
                   Symbol other_symbol, size_t threads,
                   InputFormat format = InputFormat::kXml);

  /// The same over a partition (opt/bank.h): a complete one is stepped
  /// group by group with no overflow bank; an incomplete one
  /// (FrozenPartition::Whole) is served like the snapshot it holds.
  ShardedEvaluator(const FrozenPartition* frozen, size_t num_symbols,
                   Symbol other_symbol, size_t threads,
                   InputFormat format = InputFormat::kXml);

  /// Streams every document of `corpus` through the whole query bank,
  /// sharded across the worker threads, and returns per-document results
  /// in corpus order. `alphabet` is copied per worker (streaming interns
  /// new element names); the caller's instance is not touched. With
  /// `track_matches`, per-query first-accept positions are recorded
  /// (costs an accept-bitset diff per position).
  std::vector<DocResult> EvaluateCorpus(const std::vector<std::string>& corpus,
                                        const Alphabet& alphabet,
                                        bool track_matches);

  /// Epoch swap API (NWDaemon): re-points the evaluator at a new frozen
  /// partition between EvaluateCorpus calls. The evaluator keeps the
  /// handle alive, so the previous epoch's snapshot may be released by
  /// its publisher the moment the swap returns — workers are rebuilt per
  /// EvaluateCorpus call and never hold the old pointer across calls.
  /// `num_symbols` may grow across epochs (online admission interns new
  /// element names); the catch-all symbol id is fixed at construction
  /// and must stay in range. NOT safe concurrently with EvaluateCorpus
  /// (the evaluator is single-dispatcher by contract); per-shard stats
  /// sinks persist across swaps so per-epoch metrics fall out of NWPulse
  /// snapshot deltas. If attribution tables were attached, the new bank
  /// must keep the same query count (tables are sized to K and the
  /// registry holds them by pointer) — attach with `with_attribution =
  /// false` when serving a bank that admits or retires queries online.
  void Rebind(std::shared_ptr<const FrozenPartition> frozen,
              size_t num_symbols);

  /// Selects the tokenizer front end for subsequent EvaluateCorpus calls
  /// (a daemon batch is one format; mixed traffic is dispatched as one
  /// call per format). Same non-concurrency contract as Rebind.
  void set_format(InputFormat format) { format_ = format; }

  /// Counters of the most recent EvaluateCorpus call.
  const ServeStats& stats() const { return stats_; }

  /// Attaches NWStats: the evaluator creates one private StatsSink per
  /// worker shard, registers each with `registry` as "shard/N", and from
  /// then on every EvaluateCorpus wires each worker's engine, tokenizer,
  /// and overflow bank to its shard's sink and additionally records the
  /// shard-loop metrics (documents and bytes pulled, busy vs. queue-wait
  /// time). Also creates one NWProf QueryAttribution table per shard and
  /// registers each with the registry, so per-query match/accept/
  /// escalation costs are attributed on the frozen path too (the
  /// registry's render merges the shard tables). Sinks and tables are
  /// cumulative across calls and owned by the evaluator, which must
  /// therefore outlive any registry render. Call once, before the first
  /// EvaluateCorpus. `with_attribution = false` skips the per-query
  /// tables — required when the evaluator will be Rebind()-ed across
  /// banks of different sizes (online admission changes K; the sinks
  /// are K-free and carry over, the tables are not).
  void AttachStats(StatsRegistry* registry, bool with_attribution = true);

  /// Live in-flight progress of the current EvaluateCorpus call (corpus
  /// cursor, documents/bytes completed), readable mid-run by an NWPulse
  /// sampler while the shards write. Re-armed at the start of each call;
  /// `active` drops to false when the call returns.
  const PulseProgress& progress() const { return progress_; }

  /// Attaches an opt-in span tracer (obs/trace.h): each document then
  /// writes one "doc" span (shard, corpus index, positions, bytes).
  /// nullptr (the default) disables tracing. `tracer` must outlive the
  /// evaluator's EvaluateCorpus calls.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  /// What the workers step; a caller-owned snapshot is wrapped as a
  /// one-group incomplete partition.
  const FrozenPartition* frozen_;
  /// Keeps a Rebind()-ed epoch's partition, or the wrapper of a
  /// caller-owned snapshot, alive; null when the evaluator serves a
  /// caller-owned partition (the one-shot CLI path).
  std::shared_ptr<const FrozenPartition> frozen_handle_;
  size_t num_symbols_;
  Symbol other_;
  size_t threads_;
  InputFormat format_;
  ServeStats stats_;
  /// One sink per shard (see AttachStats); empty when stats are off.
  std::vector<std::unique_ptr<StatsSink>> sinks_;
  /// One NWProf attribution table per shard, parallel to sinks_.
  std::vector<std::unique_ptr<QueryAttribution>> attrs_;
  /// Multi-writer progress cells (shards fetch_add per document) — the
  /// one place the serve loop deviates from the single-writer metric
  /// discipline, because a cursor is shared by construction.
  PulseProgress progress_;
  Tracer* tracer_ = nullptr;
};

/// Splits a document at top-level boundaries: each returned chunk is one
/// complete top-level element (with any immediately preceding top-level
/// text/stray markup), cut where a return leaves the stream at depth 0 as
/// `format`'s tokenizer reads it. For JSON a top-level record array's
/// elements become the chunks (the anonymous envelope streams silently —
/// see json/json.h); for traces each top-level frame does. Concatenating
/// the chunks yields the input. Intended for sharding one huge
/// record-stream document (e.g. a <feed> of entries with the envelope
/// stripped) as if each record were its own document — note the
/// semantics change: queries then match per record, not across records
/// (an `a then b` spanning two records no longer matches), and
/// re-tokenizing a chunk that sliced a JSON envelope open can differ from
/// the whole-document stream (the record that lost its envelope gains a
/// `#obj`/`#arr` wrapper). Unclosed opens spill into the trailing chunk;
/// a document with no top-level structure comes back as a single chunk.
/// With a sink, also records the chunk count, the largest chunk, and the
/// chunk-size distribution into `*stats` — the shard-skew early warning
/// (one giant record caps parallel speedup).
std::vector<std::string> SplitTopLevel(const std::string& text,
                                       InputFormat format = InputFormat::kXml,
                                       StatsSink* stats = nullptr);

}  // namespace nw

#endif  // NW_SERVE_SHARDED_H_
