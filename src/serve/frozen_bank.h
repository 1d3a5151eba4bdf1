// Frozen shared banks for parallel serving (ROADMAP: parallel sharded
// streams; the "eager/frozen bank" follow-on of the NWOpt bank).
//
// A SharedBank (opt/bank.h) is mutated while streaming — its product
// transitions memoize on first use — so it cannot back more than one
// concurrent stream. The serving layer splits that one object into two
// roles:
//
//  * the frozen snapshot (`FrozenBank`) — SharedBank::Freeze copies the
//    product tables of everything a bank has explored (after training on
//    a corpus, or after ExploreAll has closed every step a run can reach)
//    into a new SharedBank that readers hold const. Nothing writes it, so
//    any number of threads may step it lock-free through its Peek*/
//    Return/FindTuple lookups (kNoState = not in the snapshot).
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
#include <mutex>
#include <unordered_map>
#include <vector>

#include "opt/bank.h"

namespace nw {

class QueryAttribution;  // obs/prof.h, held by pointer only

/// A frozen snapshot is a SharedBank held const (see above).
using FrozenBank = SharedBank;

/// Mutable escape hatch for steps a frozen snapshot does not cover.
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
  explicit OverflowBank(const SharedBank* frozen);

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
  // lock-free from the snapshot itself). --

  /// Copies state `q`'s accept bitset into `out[0..accept_words)`.
  void CopyAccepts(StateId q, uint64_t* out);
  bool accepting(StateId q, size_t id);
  size_t live(StateId q);
  StateId component(StateId q, size_t id);

  /// The snapshot this bank overflows for.
  const SharedBank* frozen() const { return frozen_; }
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

  const SharedBank* frozen_;
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
