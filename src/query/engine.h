// Batched streaming query evaluation. A QueryEngine registers K compiled
// deterministic NWAs and runs all of them over ONE tagged stream in a
// single pass. Two execution paths share the streaming interface:
//
//  * SoA path (Add): per position the engine advances K linear states
//    stored in a struct-of-arrays bank, and per call position pushes ONE
//    shared stack frame holding the K hierarchical-edge states
//    contiguously. K queries cost one stream traversal instead of K, and
//    the resident run state is K·(depth+1) StateIds — the paper's §3.2
//    depth-bounded-memory guarantee, amortized across the query bank.
//  * Shared-bank path (AddBank): the optimizer's product automaton
//    (opt/bank.h) collapses the whole bank into ONE state machine, so per
//    position the engine steps a single transition table and pushes a
//    single StateId per call frame — per-position work and resident state
//    become independent of K. Per-query acceptance reads the product
//    state's accept bitset. A frozen snapshot of a pre-explored bank
//    (AddFrozen, serve/frozen_bank.h) takes the same path read-only:
//    steps the snapshot covers are lock-free table reads safe under any
//    number of threads (each with its own engine); a miss routes to the
//    engine's mutex-guarded OverflowBank so coverage gaps degrade
//    throughput, never correctness. hit/miss counters feed the serving
//    stats.
//  * Partition path (AddPartition): a bank explored as G complete
//    per-group products (opt/bank.h's FrozenPartition). Per position the
//    engine steps G frozen tables and pushes a frame of G StateIds; a
//    query's result is one bit of its group's state. No step can miss,
//    so there is no overflow bank.
//
// An optional match-position tap records, per query, the number of stream
// positions consumed when the query was first observed accepting — the
// "where did it match" answer the nwquery CLI reports (ROADMAP item 4).
#ifndef NW_QUERY_ENGINE_H_
#define NW_QUERY_ENGINE_H_

#include <string>
#include <vector>

#include "nw/nested_word.h"
#include "nwa/nwa.h"
#include "obs/stats.h"
#include "stream/token_stream.h"
#include "xml/xml.h"

namespace nw {

// The shared-bank product and its partition (opt/bank.h) and the serving
// layer's overflow bank (serve/frozen_bank.h) live layers above; the
// engine only holds pointers to them, so the base query layer's headers
// stay free of upward includes.
class SharedBank;
class FrozenPartition;
class OverflowBank;

class QueryEngine {
 public:
  /// All registered automata must be over the same [0, num_symbols)
  /// symbol space.
  explicit QueryEngine(size_t num_symbols) : num_symbols_(num_symbols) {}

  /// Registers a compiled query; returns its dense id. `a` must outlive
  /// the engine. Registration invalidates any in-progress stream (shared
  /// frames are sized to the bank): call BeginStream() before feeding
  /// more. Results of a completed stream stay readable. Mutually
  /// exclusive with AddBank().
  size_t Add(const Nwa* a);

  /// Registers a shared-bank product automaton compiled from the whole
  /// query bank (opt/bank.h); the engine then takes the shared-step path.
  /// `bank` must outlive the engine and is mutated while streaming (its
  /// transitions memoize on first use). Mutually exclusive with Add(),
  /// and at most one bank.
  void AddBank(SharedBank* bank);

  /// Registers a frozen snapshot of a pre-explored shared bank
  /// (SharedBank::Freeze) plus the overflow bank to route snapshot misses
  /// to (serve/frozen_bank.h). `frozen` is only read and may back any
  /// number of engines concurrently; `overflow` must have been built over
  /// the same `frozen`, is mutated while streaming, and should be private
  /// to this engine's shard (its mutex makes sharing safe, merely slow).
  /// Both must outlive the engine. Mutually exclusive with
  /// Add()/AddBank().
  void AddFrozen(const SharedBank* frozen, OverflowBank* overflow);

  /// Registers a complete frozen partition (FrozenPartition::Explore):
  /// the engine then steps every group per position. `partition` is only
  /// read, may back any number of engines concurrently, and must outlive
  /// the engine. Mutually exclusive with Add()/AddBank()/AddFrozen().
  void AddPartition(const FrozenPartition* partition);

  /// Stream symbols >= num_symbols() (element names interned after the
  /// queries were compiled) are remapped to this in-range catch-all
  /// before stepping. Without one, out-of-range symbols abort.
  void set_other_symbol(Symbol s);

  /// Enables the match-position tap: per position per query, acceptance
  /// is checked so first_match() can answer. Off by default — the check
  /// costs O(K) per position on the SoA path (a bitset diff on the bank
  /// path), which throughput-sensitive callers should not pay unasked.
  void set_track_matches(bool on) { track_matches_ = on; }

  /// Attaches an NWStats sink (obs/stats.h): every completed RunAll then
  /// records the document's latency, positions, and execution path into
  /// it, and the streaming RunAll threads the sink through to the
  /// tokenizer. `sink` must outlive the engine and be this engine's
  /// private instance (single-writer; the serving layer hands each shard
  /// its own). Without a sink only the always-on frozen hit/miss
  /// counters accrue (into an engine-internal sink), so the disabled
  /// path is one branch on a flag that is constant for the stream —
  /// query results are byte-identical either way.
  void set_stats(StatsSink* sink);

  /// Attaches an NWProf per-query attribution table (obs/prof.h): every
  /// completed RunAll then increments the table's doc/position totals
  /// (pinned to the sink's engine_docs/engine_positions) and each
  /// accepted query's match_docs; with set_track_matches(true) the
  /// match-latch pass additionally tallies per-query accept-set
  /// observations (one per position the query was seen accepting, plus
  /// the pre-input check) — identical across the SoA, bank, and frozen
  /// paths. The table must be sized to this engine's bank (attach after
  /// registering queries), outlive the engine, and be this engine's
  /// private single-writer instance, exactly like the stats sink.
  void set_attribution(QueryAttribution* attr);

  size_t num_queries() const;
  size_t num_symbols() const { return num_symbols_; }

  /// Starts a new traversal: resets every query's run state to its
  /// initial state and bumps the traversal counter.
  void BeginStream();

  /// Consumes one position for every query at once. Returns the number
  /// of still-live runs (0 = every query is dead; the caller may stop
  /// early, acceptance can no longer change).
  size_t Feed(TaggedSymbol t);

  /// Would query `id` accept the stream fed so far?
  bool Accepting(size_t id) const;
  bool dead(size_t id) const;

  /// Number of positions consumed in the current stream when query `id`
  /// was first observed accepting (0 = accepting before any input), or
  /// -1 if it has not accepted yet. Requires set_track_matches(true).
  int64_t first_match(size_t id) const { return first_match_[id]; }

  /// Convenience: one traversal of `n`; element [id] of the result is
  /// query id's acceptance.
  std::vector<bool> RunAll(const NestedWord& n);

  /// Streaming form: tokenizes `text` position by position straight
  /// into the bank — no materialized NestedWord, so total memory really
  /// is the O(K·depth) run state. New element names intern into
  /// `*alphabet` (remapped via set_other_symbol when out of range).
  /// `format` selects the front end (stream/token_stream.h); tokenization
  /// is the ONLY thing that varies: past the TokenStream every format
  /// takes the identical SoA/bank/frozen stepping code.
  std::vector<bool> RunAll(const std::string& text, Alphabet* alphabet,
                           InputFormat format = InputFormat::kXml);

  /// Frozen-path steps answered by the immutable snapshot (lock-free);
  /// on the partition path one per position, whatever G is. Lives in the
  /// attached stats sink (the engine-internal one when none was
  /// attached), so the serving layer reads one source of truth.
  size_t frozen_hits() const { return stats_->frozen_hits.value(); }
  /// Frozen-path steps that missed the snapshot and took the overflow
  /// bank's mutex (never on the partition path). hits + misses =
  /// positions fed on the frozen and partition paths.
  size_t frozen_misses() const { return stats_->frozen_misses.value(); }

  /// Number of BeginStream() calls — the "K queries, one traversal"
  /// witness asserted by tests and reported by the benchmarks.
  size_t traversals() const { return traversals_; }
  /// Total positions consumed across all traversals.
  size_t positions() const { return positions_; }

  /// Shared stack frames currently held (= pending calls of the stream).
  size_t StackDepth() const { return stack_.size() / FrameWidth(); }
  /// High-water mark of StackDepth() within the current stream (reset by
  /// BeginStream), so per-document statistics stay per-document.
  size_t MaxStackDepth() const { return max_frames_; }
  /// Peak resident run-state footprint of the current stream, in
  /// StateIds: K linear states plus K per shared stack frame at the
  /// stack's high-water mark — O(K·depth) on the SoA path, O(depth) on
  /// the shared-bank path (one product state per frame), O(G·depth) on
  /// the partition path, independent of stream length every way.
  size_t ResidentStates() const {
    if (product_ != nullptr) return 1 + max_frames_;
    if (partition_ != nullptr) return groups_.size() * (1 + max_frames_);
    return state_.size() + autos_.size() * max_frames_;
  }

 private:
  size_t AtLeastOne() const { return autos_.empty() ? 1 : autos_.size(); }
  /// Registration checks shared by AddBank, AddFrozen and AddPartition.
  void CheckFresh(size_t num_symbols) const;
  /// Registration shared by AddBank and AddFrozen.
  void SetProduct(const SharedBank* product);
  /// Partition path: every group back at its initial state.
  void ResetGroups();
  /// StateIds per shared stack frame: K on the SoA path, 1 on the bank
  /// and frozen paths (a frame is one interned product tuple), G on the
  /// partition path.
  size_t FrameWidth() const {
    if (product_ != nullptr) return 1;
    return partition_ != nullptr ? groups_.size() : AtLeastOne();
  }
  /// Records first-accept positions for queries newly observed accepting.
  void LatchMatches();
  /// NWStats/NWProf per-document record shared by the RunAll overloads:
  /// latency histogram, position/document counters, the path-taken
  /// counter, and (with an attribution table) the per-query match tally
  /// over `results`.
  void RecordDocStats(uint64_t latency_us, size_t doc_positions,
                      const std::vector<bool>& results);
  /// Word-parallel accept diffing shared by the bank, frozen and
  /// partition paths: `acc` holds the accept bits of queries `first`
  /// onward, `seen` the bits of theirs already latched.
  void LatchFromWords(const uint64_t* acc, size_t words, uint64_t* seen,
                      size_t first);
  /// One stream position on the frozen path (split out of Feed).
  size_t FeedFrozen(Kind kind, Symbol s);
  /// One stream position on the partition path (split out of Feed).
  size_t FeedPartition(Kind kind, Symbol s);
  /// The streaming RunAll body, templated over the TokenStream concept
  /// (stream/token_stream.h) — the seam that keeps the engine free of
  /// per-format forks.
  template <typename Stream>
  std::vector<bool> RunStream(const std::string& text, Alphabet* alphabet);
  /// Per-query acceptance of the stream fed so far.
  std::vector<bool> Results() const;

  size_t num_symbols_;
  Symbol other_ = Alphabet::kNoSymbol;
  std::vector<const Nwa*> autos_;
  /// The product automaton on the bank and frozen paths (null on the SoA
  /// path): every per-state fact is read from it.
  const SharedBank* product_ = nullptr;
  /// AddBank: the same bank, writable — single-stream runs memoize into
  /// it. Null on the frozen path.
  SharedBank* memo_ = nullptr;
  /// Frozen path: where steps the snapshot misses go. Null otherwise.
  OverflowBank* overflow_ = nullptr;
  /// Partition path: the partition, its groups, and the current product
  /// state of each group. Null and empty otherwise.
  const FrozenPartition* partition_ = nullptr;
  std::vector<const SharedBank*> groups_;
  std::vector<StateId> group_state_;
  /// Current product state on the shared-bank path; on the frozen path a
  /// mixed-space id (frozen, or overflow-tagged after a snapshot miss).
  StateId bank_state_ = kNoState;
  /// Linear state per query; kNoState = that query's run is dead.
  std::vector<StateId> state_;
  /// Shared hierarchical stack, frame-major: the frame pushed by the
  /// f-th pending call occupies [f*W, (f+1)*W) for W = FrameWidth().
  std::vector<StateId> stack_;
  size_t max_frames_ = 0;
  size_t traversals_ = 0;
  size_t positions_ = 0;
  /// Positions consumed in the current stream (reset by BeginStream).
  size_t stream_pos_ = 0;
  /// Runs not yet dead — maintained incrementally by Feed.
  size_t live_ = 0;
  bool track_matches_ = false;
  std::vector<int64_t> first_match_;
  /// Bank/frozen/partition paths: accept bits already latched
  /// (word-parallel diff; on the partition path group after group).
  std::vector<uint64_t> seen_accepts_;
  /// Frozen path: scratch for an overflow state's accept bitset copy.
  std::vector<uint64_t> scratch_accepts_;
  /// NWStats: `stats_` points at the attached sink, or at `own_stats_`
  /// (which keeps the frozen hit/miss accessors live) when none is.
  /// `stats_enabled_` gates everything beyond those counters — document
  /// latency clocks, path counters, tokenizer tallies.
  StatsSink own_stats_;
  StatsSink* stats_ = &own_stats_;
  bool stats_enabled_ = false;
  /// NWProf per-query attribution, or nullptr when off (the default) —
  /// the same branch-on-a-constant-pointer discipline as the sink.
  QueryAttribution* attr_ = nullptr;
};

}  // namespace nw

#endif  // NW_QUERY_ENGINE_H_
