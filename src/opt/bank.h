// Shared bank compilation (ROADMAP item 2): K deterministic query
// automata over one alphabet fuse into a single product automaton whose
// states are interned K-tuples of component states, with a per-state
// accept bitset recording which queries accept there. The engine then
// steps ONE transition table per stream position instead of K, and pushes
// ONE StateId per call frame instead of K — both the per-position work and
// the resident run state become independent of the bank size.
//
// The product is explored lazily and memoized: the first time a
// (state, symbol) combination is stepped as an internal or a call, the K
// component transitions run once and the resulting tuple is interned;
// every later visit is a single table lookup. Returns are memoized in
// rows: each (state, frame) context a run returns from owns one |Σ|-wide
// row of product targets, filled from per-component return rows
// δr_i(q_i, h_i, ·) that each component computes once per (q_i, h_i) pair
// seen, so a product return miss costs K row probes, not K automaton
// lookups per symbol. Only the product states a
// real stream reaches are ever materialized, which is what makes the
// construction affordable — the full product is exponential in K, but
// document streams drive the component automata through strongly
// correlated trajectories (they all track the same ancestor chain), so
// the reachable product is small. Eager exploration (ExploreAll) keeps
// to that reachable part too: it walks the (frame, state) contexts some
// run can reach, in the manner of the paper's summary saturation, rather
// than every state against every frame. A hard state cap turns
// pathological blow-ups into a loud failure instead of an OOM; callers
// can always fall back to the per-query SoA path.
//
// The product of K queries can still blow up: the standard 16-query bank
// reaches 35,320 states, and 24 queries pass 65,536. FrozenPartition
// splits a bank into G contiguous groups of queries and explores each
// group's product completely, under a state budget B per group: the next
// query joins the open group unless the widened group's ExploreAll(B)
// fails, in which case it opens a new group. A group of one query
// explores without a cap, since its product is bounded by that query's
// own automaton, so every group completes. The one product (G = 1) and
// the per-query SoA path (G = K) are the two extremes; a partition pays
// one table step per group per position for a product that stays small
// (the 16-query bank splits into a few groups of ~1.4K states in all).
#ifndef NW_OPT_BANK_H_
#define NW_OPT_BANK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nwa/nwa.h"
#include "support/flat_index.h"

namespace nw {

// The NWStats sink (obs/stats.h) and the NWProf timeline (obs/prof.h)
// are held by pointer only, so the opt layer's header stays free of
// observability includes.
struct StatsSink;
class CompileTimeline;

class SharedBank {
 public:
  /// All automata must share one symbol space and have initial states set.
  /// The pointees must outlive the bank. At least one automaton.
  explicit SharedBank(std::vector<const Nwa*> autos);

  /// Number of component query automata K.
  size_t num_queries() const { return autos_.size(); }
  /// Size of the shared symbol space Σ.
  size_t num_symbols() const { return num_symbols_; }
  /// Interned tuple of the component initial states.
  StateId initial() const { return initial_; }
  /// Product states materialized so far (grows as streams explore).
  size_t num_states() const { return live_.size(); }

  /// Attaches an NWStats sink (obs/stats.h): the bank then counts interned
  /// product states and memo hits/misses per step. `sink` must outlive the
  /// bank and be single-writer — banks are already confined to one thread
  /// (they memoize while streaming), so the engine's own sink is the
  /// natural choice. Off (nullptr) by default: the disabled path is one
  /// branch on a pointer constant for the stream. The states interned
  /// before the sink arrives (the constructor's initial tuple, at least)
  /// are counted on attach, so a sink attached once tallies
  /// num_states().
  void set_stats(StatsSink* sink);

  // -- Stepping. Mirrors the Nwa single-position step API, but states are
  // product-tuple ids and the methods memoize (hence non-const). A dead
  // component parks kNoState in its tuple slot; the all-dead tuple is a
  // regular absorbing state, so these never return kNoState.

  /// Internal position: memoized product δi.
  StateId StepInternal(StateId q, Symbol a);
  /// Writes the frame tuple to push to `*hier_out` (one StateId — the
  /// interned tuple of the K hierarchical-edge states).
  StateId StepCall(StateId q, Symbol a, StateId* hier_out);
  /// `hier` is the popped frame tuple, or kNoState for a pending return
  /// (each component then reads its own hier_initial).
  StateId StepReturn(StateId q, StateId hier, Symbol a);

  // -- Exploration + freeze API (serve/frozen_bank.h). The serving layer
  // pre-explores the product, snapshots it with Freeze into a bank that
  // readers hold const, and keeps per-shard SharedBanks as mutable
  // overflow space. --

  /// Memoizes every step some nested word can take from the initial
  /// state. The closure runs breadth-first over reachable contexts
  /// (frame, state): a state q is paired with the frame h on top of the
  /// stack when some run reaches q under h (h = kNoState at top level,
  /// where a return is pending). Each context steps every symbol as an
  /// internal, a call and a return against its own frame, so the return
  /// rows cover exactly the (state, frame) pairs runs can produce — not
  /// every state against every frame. Afterwards a frozen snapshot cannot
  /// miss on any stream whose symbols are in range. Stops early and
  /// returns false once the product exceeds `max_states` (the partial
  /// exploration is kept — breadth-first, so it is the shallow part,
  /// which carries most traffic; a snapshot then serves what was reached
  /// and overflows the rest).
  /// With a timeline (obs/prof.h) the call records one "explore" phase:
  /// wall µs plus the product state count before and after.
  bool ExploreAll(size_t max_states, CompileTimeline* timeline = nullptr);

  /// Snapshots `bank` as explored so far (train it on a corpus, or
  /// ExploreAll for a snapshot no stream can miss): a new bank with copies
  /// of its product tables, an empty component memo and no stats sink.
  /// Held const, any number of threads may read it through the lookups
  /// below while the live bank grows on. With a timeline (obs/prof.h)
  /// the call records one "freeze" phase: the copy's wall µs.
  static SharedBank Freeze(const SharedBank& bank,
                           CompileTimeline* timeline = nullptr);

  /// Epoch-handle spelling of Freeze for long-lived serving (NWDaemon):
  /// the returned shared_ptr is the RCU unit — a publisher swaps it while
  /// readers finish their stream over the old snapshot, and the old epoch
  /// is reclaimed when its last holder drops the handle.
  static std::shared_ptr<const SharedBank> FreezeShared(
      const SharedBank& bank, CompileTimeline* timeline = nullptr);

  /// Interns an externally supplied component tuple (one StateId per
  /// query, kNoState = dead run) and returns its product id. Used by the
  /// overflow path to transplant a frozen state into a fresh bank.
  StateId InternTuple(const std::vector<StateId>& tuple);

  /// The component automata, in query order (aliases, not owned).
  const std::vector<const Nwa*>& autos() const { return autos_; }

  /// Pointer to the K component states of tuple `q` (valid until the next
  /// interning mutation).
  const StateId* tuple(StateId q) const {
    return tuples_.data() + q * autos_.size();
  }

  // -- Non-mutating lookups, kNoState = that step was never taken. A
  // frozen snapshot serves streams through these; a covered step always
  // returns a valid id. --

  /// δi.
  StateId PeekInternal(StateId q, Symbol a) const {
    return internal_[q * num_symbols_ + a];
  }
  /// Linear half of δc; a covered call always has both halves.
  StateId PeekCallLinear(StateId q, Symbol a) const {
    return call_lin_[q * num_symbols_ + a];
  }
  /// Hierarchical half of δc (the frame tuple to push).
  StateId PeekCallHier(StateId q, Symbol a) const {
    return call_hier_[q * num_symbols_ + a];
  }
  /// δr; `hier` is a frame id or kNoState for a pending return. One index
  /// probe for the row of (q, hier), then the symbol's cell.
  StateId Return(StateId q, StateId hier, Symbol a) const {
    const uint32_t row = return_rows_.Find(PackReturnKey(q, hier));
    return row == FlatIndex::kNone ? kNoState
                                   : return_targets_[row * num_symbols_ + a];
  }
  /// Id of the state with exactly this K-component tuple, or kNoState
  /// when it was never interned. The overflow path's way back into a
  /// snapshot, and Intern's own probe.
  StateId FindTuple(const StateId* tuple) const;

  /// One memoized return transition (hier == kNoState for the pending-
  /// return row).
  struct MemoReturn {
    StateId from;
    StateId hier;
    Symbol symbol;
    StateId target;
  };
  /// Every memoized return transition, in unspecified order.
  std::vector<MemoReturn> MemoizedReturns() const;

  // -- Per-state facts, computed once at interning time. --

  /// Accept bitset: bit (w*64+b) of word w = query (w*64+b) accepting.
  const uint64_t* accepts(StateId q) const {
    return accept_.data() + q * words_;
  }
  /// Words per accept bitset (= ceil(num_queries / 64)).
  size_t accept_words() const { return words_; }
  /// Is component query `id` accepting in product state `q`?
  bool accepting(StateId q, size_t id) const {
    return (accepts(q)[id / 64] >> (id % 64)) & 1;
  }
  /// Number of still-live component runs in state `q`.
  size_t live(StateId q) const { return live_[q]; }
  /// Component query `id`'s state in tuple `q` (kNoState = that run died).
  StateId component(StateId q, size_t id) const {
    return tuples_[q * autos_.size() + id];
  }

 private:
  /// Interned product ids must fit the 24-bit return-key packing, with the
  /// top value reserved for "pending" frames.
  static constexpr StateId kMaxStates = (1u << 24) - 1;

  /// FNV-1a over the K components of a tuple — the interning hash.
  uint64_t TupleHash(const StateId* tuple) const;
  /// Keys the return row of context (q, hier) (24-bit states); a pending
  /// frame (hier == kNoState) packs as the reserved all-ones hier value.
  static uint64_t PackReturnKey(StateId q, StateId hier) {
    const uint64_t h = hier == kNoState ? kMaxStates : hier;
    return (uint64_t{q} << 40) | (h << 16);
  }

  /// Interns the K-component tuple at `tuple`.
  StateId Intern(const StateId* tuple);
  /// The |Σ|-wide product return row of context (q, hier), created empty
  /// (all kNoState) on first sight. Valid until the next row is created.
  StateId* ReturnRow(StateId q, StateId hier);
  /// Computes the missing cells [lo, hi) of `row` = ReturnRow(q, hier),
  /// counting a memo hit or miss per symbol. The one return path: both
  /// StepReturn (one symbol) and the explore (whole rows) go through it.
  void FillReturns(StateId q, StateId hier, StateId* row, Symbol lo,
                   Symbol hi);
  /// Component i's return row δr_i(q, h, ·) for its own states q and h
  /// (h = kNoState reads its hier_initial), computed on first sight; a
  /// dead run (q = kNoState) reads the all-dead row.
  const StateId* ComponentReturnRow(size_t i, StateId q, StateId h);
  /// ExploreAll's reachable-context worklist, split out so the public
  /// entry can clock it as one NWProf phase.
  bool ExploreFixpoint(size_t max_states);

  std::vector<const Nwa*> autos_;
  size_t num_symbols_;
  size_t words_;
  StateId initial_;
  std::vector<StateId> tuples_;  ///< K components per state, state-major
  FlatIndex tuple_index_;  ///< TupleHash → product id
  std::vector<uint64_t> accept_;
  std::vector<uint32_t> live_;
  // Memoized transitions; kNoState = not computed yet (a computed result
  // is always a valid interned id, never kNoState).
  std::vector<StateId> internal_;   // [q*|Σ|+a]
  std::vector<StateId> call_lin_;   // [q*|Σ|+a]
  std::vector<StateId> call_hier_;  // [q*|Σ|+a]
  // Return memo in rows: each (state, frame) pair a run has returned from
  // owns a |Σ|-wide row of return_targets_ (kNoState = not computed yet),
  // row number return_rows_[PackReturnKey(q, hier)].
  FlatIndex return_rows_;
  std::vector<StateId> return_targets_;
  size_t num_returns_ = 0;  ///< computed entries of return_targets_
  /// Per component: rows δr_i(q_i, h_i, ·), row number
  /// index[q_i << 32 | h_i]. Always complete (kNoState = dead).
  struct ComponentRows {
    FlatIndex index;
    std::vector<StateId> cells;
  };
  std::vector<ComponentRows> component_rows_;
  std::vector<StateId> dead_row_;  ///< |Σ| × kNoState
  /// 2K slots the memo-miss paths build successor tuples in, and K row
  /// pointers, so a miss allocates nothing unless it interns a new state.
  std::vector<StateId> tuple_buf_;
  std::vector<const StateId*> row_buf_;
  /// NWStats sink, or nullptr when observability is off (see set_stats).
  StatsSink* stats_ = nullptr;
};

/// A query bank explored as G complete per-group products and frozen
/// (see the header comment). Built once, then held const: any number of
/// threads step it lock-free, one product state per group. Query i of
/// the bank is bit slot(i).bit of group slot(i).group's accept bitset;
/// groups are contiguous, so group g serves the group(g).num_queries()
/// queries from first_query(g) on.
class FrozenPartition {
 public:
  /// The per-group state budget B of Explore. Chosen from a sweep over
  /// the standard 16-query bank (docs/ARCHITECTURE.md): larger budgets
  /// buy fewer groups, so a cheaper step per position, for a product
  /// whose explore time grows faster than its group count falls.
  static constexpr size_t kBudget = 512;

  /// Where one query is served.
  struct Slot {
    uint32_t group;
    uint32_t bit;  ///< the query's index within its group
  };

  /// Groups `autos` greedily in order under `budget` states per group,
  /// explores every group completely and freezes it. The automata must
  /// satisfy SharedBank's contract and outlive the partition. With a
  /// timeline (obs/prof.h) records one "explore" phase (every group's
  /// exploration, failed widenings included; states 0 → the partition's
  /// total) and one "freeze" phase. With a sink, every product bank the
  /// grouping builds counts its interned states and memo traffic into it.
  static std::shared_ptr<const FrozenPartition> Explore(
      const std::vector<const Nwa*>& autos, size_t budget = kBudget,
      CompileTimeline* timeline = nullptr, StatsSink* stats = nullptr);

  /// One group holding `snapshot` as it is: a snapshot that may miss
  /// (trained, or frozen cold), so complete() is false and it is served
  /// with overflow banks (serve/frozen_bank.h).
  static std::shared_ptr<const FrozenPartition> Whole(
      std::shared_ptr<const SharedBank> snapshot);

  /// True when every group was explored completely, so no step of a
  /// stream whose symbols are in range can miss.
  bool complete() const { return complete_; }
  size_t num_groups() const { return groups_.size(); }
  const SharedBank& group(size_t g) const { return *groups_[g]; }
  size_t first_query(size_t g) const { return first_[g]; }
  Slot slot(size_t query) const { return slots_[query]; }
  size_t num_queries() const { return slots_.size(); }
  size_t num_symbols() const { return groups_[0]->num_symbols(); }
  /// Product states over all groups.
  size_t num_states() const;

 private:
  void AddGroup(std::shared_ptr<const SharedBank> group);

  std::vector<std::shared_ptr<const SharedBank>> groups_;
  std::vector<size_t> first_;
  std::vector<Slot> slots_;
  bool complete_ = false;
};

}  // namespace nw

#endif  // NW_OPT_BANK_H_
