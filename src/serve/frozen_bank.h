// Frozen shared banks for parallel serving (ROADMAP: parallel sharded
// streams; the "eager/frozen bank" follow-on of the NWOpt bank).
//
// A SharedBank (opt/bank.h) is mutated while streaming — its product
// transitions memoize on first use — so it cannot back more than one
// concurrent stream. The serving layer splits that one object into two
// roles:
//
//  * FrozenBank — an immutable snapshot of everything a SharedBank has
//    explored (after training on a corpus, or after ExploreAll has closed
//    every step a run can reach), copied table for table: dense flat
//    internal/call tables, the return rows with their flat (state, frame)
//    index, the tuple index, accept bitsets and live counts per state.
//    After Freeze() nothing is ever written, so any number of threads may
//    step it lock-free.
//  * OverflowBank — a per-shard, mutex-guarded escape hatch for steps the
//    snapshot never saw. A miss transplants the frozen state's component
//    tuple into a shard-local SharedBank, steps it there, and maps the
//    result BACK into frozen space whenever the resulting tuple is one
//    the snapshot knows — so a transient excursion (one unusual symbol)
//    costs a few locked steps, not a permanently degraded shard.
//    Correctness therefore never depends on training coverage.
//
// Id spaces: frozen ids are the SharedBank ids at snapshot time (dense,
// < num_states()). Overflow ids are shard-local SharedBank ids tagged
// with kOverflowBit so the two spaces cannot collide; kNoState keeps its
// usual meaning ("miss" from frozen lookups, "pending frame" in returns).
#ifndef NW_SERVE_FROZEN_BANK_H_
#define NW_SERVE_FROZEN_BANK_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "opt/bank.h"
#include "support/flat_index.h"

namespace nw {

class QueryAttribution;  // obs/prof.h, held by pointer only

/// Immutable, cache-friendly snapshot of an explored SharedBank.
///
/// Invariant: every member is written once inside Freeze() and never
/// again — concurrent readers need no synchronization. Lookups return
/// kNoState for steps the snapshot does not cover (route those to an
/// OverflowBank); covered steps always return a valid frozen id.
class FrozenBank {
 public:
  /// Snapshots `bank` as explored so far. Train first: either stream a
  /// corpus through a QueryEngine::AddBank engine, or call
  /// bank.ExploreAll() for a snapshot that no stream can miss (when it
  /// completes under its cap). With a timeline (obs/prof.h) the call
  /// records one "freeze" phase: the snapshot's re-layout wall µs over
  /// the bank's state count.
  static FrozenBank Freeze(const SharedBank& bank,
                           CompileTimeline* timeline = nullptr);

  /// Epoch-handle spelling of Freeze for long-lived serving (NWDaemon):
  /// the returned shared_ptr is the RCU unit — a publisher swaps it while
  /// readers finish their stream over the old snapshot, and the old epoch
  /// is reclaimed when its last holder drops the handle. Same snapshot,
  /// same immutability contract, just heap-owned.
  static std::shared_ptr<const FrozenBank> FreezeShared(
      const SharedBank& bank, CompileTimeline* timeline = nullptr);

  size_t num_queries() const { return autos_.size(); }
  size_t num_symbols() const { return num_symbols_; }
  /// Product states in the snapshot (frozen ids are < this).
  size_t num_states() const { return num_states_; }
  /// Frozen id of the interned tuple of component initial states.
  StateId initial() const { return initial_; }
  /// Words per accept bitset (= ceil(num_queries / 64)).
  size_t accept_words() const { return words_; }

  // -- Lock-free lookups (kNoState = not in the snapshot). --

  /// δi on the frozen product.
  StateId Internal(StateId q, Symbol a) const {
    return internal_[q * num_symbols_ + a];
  }
  /// Linear half of δc; a covered call always has both halves.
  StateId CallLinear(StateId q, Symbol a) const {
    return call_lin_[q * num_symbols_ + a];
  }
  /// Hierarchical half of δc (the frame tuple to push).
  StateId CallHier(StateId q, Symbol a) const {
    return call_hier_[q * num_symbols_ + a];
  }
  /// δr; `hier` is a frozen frame id or kNoState for a pending return.
  /// One index probe for the row of (q, hier), then the symbol's cell.
  StateId Return(StateId q, StateId hier, Symbol a) const {
    const uint32_t row =
        return_rows_.Find(SharedBank::PackReturnKey(q, hier, 0));
    return row == FlatIndex::kNone ? kNoState
                                   : return_targets_[row * num_symbols_ + a];
  }

  // -- Per-state facts, snapshot copies of the SharedBank's. --

  /// Accept bitset of state `q` (bit i = query i accepting).
  const uint64_t* accepts(StateId q) const {
    return accept_.data() + q * words_;
  }
  bool accepting(StateId q, size_t id) const {
    return (accepts(q)[id / 64] >> (id % 64)) & 1;
  }
  /// Still-live component runs in state `q`.
  size_t live(StateId q) const { return live_[q]; }
  /// Component query `id`'s state in tuple `q` (kNoState = dead run).
  StateId component(StateId q, size_t id) const {
    return tuples_[q * autos_.size() + id];
  }
  /// Pointer to the K component states of tuple `q`.
  const StateId* tuple(StateId q) const {
    return tuples_.data() + q * autos_.size();
  }

  /// Frozen id of the state with exactly this component tuple, or
  /// kNoState when the snapshot never interned it. This is the overflow
  /// path's way back into lock-free territory.
  StateId FindTuple(const StateId* tuple) const;

  /// The component automata (aliases into the optimizer's bank; they must
  /// outlive the FrozenBank and every OverflowBank built from it).
  const std::vector<const Nwa*>& autos() const { return autos_; }

 private:
  FrozenBank() = default;

  std::vector<const Nwa*> autos_;
  size_t num_symbols_ = 0;
  size_t num_states_ = 0;
  size_t words_ = 0;
  StateId initial_ = kNoState;
  std::vector<StateId> internal_;   ///< dense [q*|Σ|+a]
  std::vector<StateId> call_lin_;   ///< dense [q*|Σ|+a]
  std::vector<StateId> call_hier_;  ///< dense [q*|Σ|+a]
  /// Return rows, |Σ| per (q, hier) context; kNoState = never taken
  /// (trained snapshots have partial rows).
  FlatIndex return_rows_;  ///< PackReturnKey(q, hier, 0) → row number
  std::vector<StateId> return_targets_;
  std::vector<StateId> tuples_;  ///< K per state, state-major
  FlatIndex tuple_index_;        ///< SharedBank::TupleHash → frozen id
  std::vector<uint64_t> accept_;
  std::vector<uint32_t> live_;
};

/// Mutable escape hatch for steps a FrozenBank snapshot does not cover.
///
/// Locking discipline: every public method takes the single internal
/// mutex for its whole duration; no method calls another public method,
/// so the lock is never taken twice. The bank is therefore safe to share
/// between threads, but the intended deployment is ONE OverflowBank per
/// shard (see ShardedEvaluator) so the mutex is uncontended and the
/// frozen fast path never waits on a neighbor shard's miss.
///
/// Ids accepted and returned are mixed-space: frozen ids pass through
/// untagged, shard-local overflow states carry kOverflowBit. Stepping out
/// of a frozen state transplants its component tuple into the local
/// SharedBank; every produced state is mapped back to its frozen twin
/// when one exists.
class OverflowBank {
 public:
  /// Tag bit distinguishing overflow-space ids from frozen ids. Safe:
  /// SharedBank ids stay below 2^24 by construction.
  static constexpr StateId kOverflowBit = 1u << 30;
  /// True for ids living in this bank's local space. `q` must not be
  /// kNoState (which would trivially carry the bit).
  static bool IsOverflowId(StateId q) { return (q & kOverflowBit) != 0; }

  /// `frozen` must outlive the bank.
  explicit OverflowBank(const FrozenBank* frozen);

  /// Attaches an NWStats sink (obs/stats.h): every step then counts into
  /// overflow_steps, and its outcome into overflow_mapbacks (the result
  /// mapped back into frozen space — a transient excursion ended) or
  /// overflow_escalations (the result stayed overflow-tagged). All
  /// increments happen under the bank's own mutex, which also makes the
  /// sink single-writer as long as it is the shard's private one — the
  /// intended deployment. Off (nullptr) by default.
  void set_stats(StatsSink* sink);

  /// Attaches an NWProf attribution table (obs/prof.h): every escalation
  /// (a step whose result stays in overflow space) then increments the
  /// escalations counter of each query whose run is still live in the
  /// escalated state — those queries are what keeps the shard off the
  /// lock-free path. Same single-writer/one-per-shard deployment as the
  /// sink; increments happen under the bank's mutex. Off by default.
  void set_attribution(QueryAttribution* attr);

  // -- Steps, mirroring the engine-facing SharedBank API. `q` (and `hier`)
  // may be frozen or overflow ids; results are frozen ids whenever the
  // target tuple exists in the snapshot. --

  StateId StepInternal(StateId q, Symbol a);
  StateId StepCall(StateId q, Symbol a, StateId* hier_out);
  /// `hier` is a mixed-space frame id or kNoState for a pending return.
  StateId StepReturn(StateId q, StateId hier, Symbol a);

  // -- Per-state facts for OVERFLOW-space ids (frozen ids answer these
  // lock-free from the FrozenBank itself). --

  /// Copies state `q`'s accept bitset into `out[0..accept_words)`.
  void CopyAccepts(StateId q, uint64_t* out);
  bool accepting(StateId q, size_t id);
  size_t live(StateId q);
  StateId component(StateId q, size_t id);

  /// The snapshot this bank overflows for.
  const FrozenBank* frozen() const { return frozen_; }
  /// Steps serviced by this bank (= the shard's frozen misses).
  size_t steps() const { return steps_; }
  /// Local product states materialized by misses so far.
  size_t num_states();

 private:
  /// Resolves a mixed-space id to a local SharedBank id, transplanting a
  /// frozen tuple on first sight. Caller holds mu_.
  StateId ToLocal(StateId q);
  /// Maps a local step result back to its frozen twin when the snapshot
  /// has one, else tags it. Caller holds mu_.
  StateId FromLocal(StateId local);
  /// NWStats tally for one step whose linear result is `result`. Caller
  /// holds mu_; no-op without a sink.
  void CountStep(StateId result);

  const FrozenBank* frozen_;
  std::mutex mu_;
  SharedBank local_;
  size_t steps_ = 0;
  /// NWStats sink, or nullptr when observability is off (see set_stats).
  StatsSink* stats_ = nullptr;
  /// NWProf attribution table, or nullptr (see set_attribution).
  QueryAttribution* attr_ = nullptr;
  std::unordered_map<StateId, StateId> frozen_to_local_;
  /// Lazy local→frozen cache; kNoState entries mean "not probed yet",
  /// probed twins are either a frozen id or kOverflowBit|local.
  std::vector<StateId> local_twin_;
};

}  // namespace nw

#endif  // NW_SERVE_FROZEN_BANK_H_
