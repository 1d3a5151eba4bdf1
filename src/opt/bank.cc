#include "opt/bank.h"

#include <algorithm>
#include <utility>

#include "obs/prof.h"
#include "obs/stats.h"
#include "support/check.h"
#include "support/stopwatch.h"

namespace nw {

uint64_t SharedBank::TupleHash(const StateId* tuple) const {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < autos_.size(); ++i) {
    h ^= tuple[i];
    h *= 1099511628211ULL;
  }
  return h;
}

SharedBank::SharedBank(std::vector<const Nwa*> autos)
    : autos_(std::move(autos)) {
  NW_CHECK_MSG(!autos_.empty(), "shared bank needs at least one automaton");
  num_symbols_ = autos_[0]->num_symbols();
  for (const Nwa* a : autos_) {
    NW_CHECK_MSG(a->num_symbols() == num_symbols_,
                 "bank automaton symbol space mismatch");
  }
  NW_CHECK_MSG(num_symbols_ <= (1u << 16),
               "symbol space exceeds the product return-key packing");
  words_ = (autos_.size() + 63) / 64;
  component_rows_.resize(autos_.size());
  dead_row_.assign(num_symbols_, kNoState);
  tuple_buf_.resize(2 * autos_.size());
  row_buf_.resize(autos_.size());
  for (size_t i = 0; i < autos_.size(); ++i) {
    tuple_buf_[i] = autos_[i]->initial();
  }
  initial_ = Intern(tuple_buf_.data());
}

SharedBank SharedBank::Freeze(const SharedBank& bank,
                              CompileTimeline* timeline) {
  Stopwatch sw;
  SharedBank f(bank.autos_);
  f.tuples_ = bank.tuples_;
  f.tuple_index_ = bank.tuple_index_;
  f.accept_ = bank.accept_;
  f.live_ = bank.live_;
  f.internal_ = bank.internal_;
  f.call_lin_ = bank.call_lin_;
  f.call_hier_ = bank.call_hier_;
  f.return_rows_ = bank.return_rows_;
  f.return_targets_ = bank.return_targets_;
  f.num_returns_ = bank.num_returns_;
  if (timeline != nullptr) {
    // Freezing copies, never explores: the state count is flat.
    timeline->Record("freeze", static_cast<uint64_t>(sw.ElapsedUs()),
                     f.num_states(), f.num_states());
  }
  return f;
}

std::shared_ptr<const SharedBank> SharedBank::FreezeShared(
    const SharedBank& bank, CompileTimeline* timeline) {
  return std::make_shared<const SharedBank>(Freeze(bank, timeline));
}

StateId SharedBank::FindTuple(const StateId* tuple) const {
  const size_t k = autos_.size();
  const uint32_t q = tuple_index_.Find(TupleHash(tuple), [&](uint32_t id) {
    return std::equal(tuple, tuple + k, tuples_.begin() + size_t{id} * k);
  });
  return q == FlatIndex::kNone ? kNoState : q;
}

StateId SharedBank::Intern(const StateId* tuple) {
  const StateId found = FindTuple(tuple);
  if (found != kNoState) return found;
  NW_CHECK_MSG(live_.size() < kMaxStates,
               "shared bank product exploded past %u states; use the "
               "per-query SoA engine path for this bank",
               kMaxStates);
  StateId id = static_cast<StateId>(live_.size());
  if (stats_ != nullptr) stats_->bank_states.Inc();
  const size_t k = autos_.size();
  tuple_index_.Insert(TupleHash(tuple), id);
  tuples_.insert(tuples_.end(), tuple, tuple + k);
  accept_.resize(accept_.size() + words_, 0);
  uint32_t live = 0;
  for (size_t i = 0; i < k; ++i) {
    live += tuple[i] != kNoState;
    if (tuple[i] != kNoState && autos_[i]->is_final(tuple[i])) {
      accept_[id * words_ + i / 64] |= uint64_t{1} << (i % 64);
    }
  }
  live_.push_back(live);
  internal_.resize(internal_.size() + num_symbols_, kNoState);
  call_lin_.resize(call_lin_.size() + num_symbols_, kNoState);
  call_hier_.resize(call_hier_.size() + num_symbols_, kNoState);
  return id;
}

StateId SharedBank::InternTuple(const std::vector<StateId>& tuple) {
  NW_CHECK_MSG(tuple.size() == autos_.size(),
               "tuple arity %zu does not match the bank's %zu queries",
               tuple.size(), autos_.size());
  for (size_t i = 0; i < tuple.size(); ++i) {
    NW_CHECK_MSG(tuple[i] == kNoState || tuple[i] < autos_[i]->num_states(),
                 "tuple component %zu out of range", i);
  }
  return Intern(tuple.data());
}

bool SharedBank::ExploreAll(size_t max_states, CompileTimeline* timeline) {
  Stopwatch sw;
  const size_t states_before = num_states();
  bool complete = ExploreFixpoint(max_states);
  if (timeline != nullptr) {
    timeline->Record("explore", static_cast<uint64_t>(sw.ElapsedUs()),
                     states_before, num_states());
  }
  return complete;
}

namespace {

/// Set of dense ids as a bitset that grows on insert.
class IdSet {
 public:
  /// Adds `id`; false if it was already present.
  bool Insert(uint32_t id) {
    const size_t w = id / 64;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const uint64_t bit = uint64_t{1} << (id % 64);
    if (words_[w] & bit) return false;
    words_[w] |= bit;
    return true;
  }

 private:
  std::vector<uint64_t> words_;
};

/// One stack frame's bookkeeping in the reachable-context closure.
struct FrameSlot {
  StateId frame;  ///< product id of the pushed tuple; kNoState = top level
  IdSet contexts;  ///< states q whose context (frame, q) was queued
  std::vector<uint32_t> callers;  ///< slots whose contexts push `frame`
  IdSet caller_set;
  std::vector<StateId> exits;  ///< states a return popping `frame` reaches
  IdSet exit_set;
};

}  // namespace

bool SharedBank::ExploreFixpoint(size_t max_states) {
  // Reachable-context closure, the product analogue of summary saturation
  // (nwa/decision.cc): a context (h, q) is a state q some run reaches with
  // frame h on top of its stack. Each context steps every symbol once as
  // an internal (stays under h), a call (enters the pushed frame h′, and
  // h becomes a caller of h′) and a return against h (an exit of h, which
  // resumes under every caller of h). Exits found before a caller and
  // callers found before an exit are joined from both sides, so the order
  // of discovery does not matter. Frames map to dense slots; the worklist
  // is FIFO so a capped run keeps the shallow contexts, which carry most
  // traffic.
  constexpr uint32_t kNoSlot = ~uint32_t{0};
  std::vector<FrameSlot> slots(1);
  slots[0].frame = kNoState;
  // A return at top level is pending and stays at top level: the
  // top-level slot is its own caller.
  slots[0].callers.push_back(0);
  std::vector<uint32_t> slot_of;  ///< product id → its frame slot
  auto slot_for = [&](StateId h) {
    if (h >= slot_of.size()) slot_of.resize(num_states(), kNoSlot);
    if (slot_of[h] == kNoSlot) {
      slot_of[h] = static_cast<uint32_t>(slots.size());
      slots.emplace_back().frame = h;
    }
    return slot_of[h];
  };
  std::vector<std::pair<uint32_t, StateId>> work;
  auto reach = [&](uint32_t s, StateId q) {
    if (slots[s].contexts.Insert(q)) work.emplace_back(s, q);
  };
  reach(0, initial_);
  for (size_t head = 0; head < work.size(); ++head) {
    if (num_states() > max_states) return false;
    const auto [s, q] = work[head];
    const StateId h = slots[s].frame;
    // The context's return row, completed once; the steps below intern
    // states but create no rows, so the pointer stays valid.
    StateId* exits = ReturnRow(q, h);
    FillReturns(q, h, exits, 0, static_cast<Symbol>(num_symbols_));
    for (Symbol a = 0; a < num_symbols_; ++a) {
      reach(s, StepInternal(q, a));

      StateId pushed;
      const StateId entry = StepCall(q, a, &pushed);
      const uint32_t callee = slot_for(pushed);
      reach(callee, entry);
      if (slots[callee].caller_set.Insert(s)) {
        slots[callee].callers.push_back(s);
        for (size_t i = 0; i < slots[callee].exits.size(); ++i) {
          reach(s, slots[callee].exits[i]);
        }
      }

      const StateId exit = exits[a];
      if (slots[s].exit_set.Insert(exit)) {
        slots[s].exits.push_back(exit);
        for (size_t i = 0; i < slots[s].callers.size(); ++i) {
          reach(slots[s].callers[i], exit);
        }
      }
    }
  }
  return true;
}

std::vector<SharedBank::MemoReturn> SharedBank::MemoizedReturns() const {
  std::vector<MemoReturn> out;
  out.reserve(num_returns_);
  return_rows_.ForEach([&](uint64_t key, uint32_t row) {
    StateId q = static_cast<StateId>(key >> 40);
    StateId h = static_cast<StateId>((key >> 16) & ((1u << 24) - 1));
    if (h == (1u << 24) - 1) h = kNoState;  // the pending-frame packing
    const StateId* targets = return_targets_.data() + row * num_symbols_;
    for (Symbol a = 0; a < num_symbols_; ++a) {
      if (targets[a] != kNoState) out.push_back({q, h, a, targets[a]});
    }
  });
  return out;
}

StateId SharedBank::StepInternal(StateId q, Symbol a) {
  NW_DCHECK(q < num_states() && a < num_symbols_);
  StateId& memo = internal_[q * num_symbols_ + a];
  if (memo != kNoState) {
    if (stats_ != nullptr) stats_->bank_memo_hits.Inc();
    return memo;
  }
  if (stats_ != nullptr) stats_->bank_memo_misses.Inc();
  const size_t k = autos_.size();
  StateId* next = tuple_buf_.data();
  for (size_t i = 0; i < k; ++i) {
    next[i] = autos_[i]->StepInternal(tuples_[q * k + i], a);
  }
  // Intern may grow internal_; recompute the slot instead of using `memo`.
  StateId id = Intern(next);
  internal_[q * num_symbols_ + a] = id;
  return id;
}

StateId SharedBank::StepCall(StateId q, Symbol a, StateId* hier_out) {
  NW_DCHECK(q < num_states() && a < num_symbols_);
  if (call_lin_[q * num_symbols_ + a] != kNoState) {
    if (stats_ != nullptr) stats_->bank_memo_hits.Inc();
    *hier_out = call_hier_[q * num_symbols_ + a];
    return call_lin_[q * num_symbols_ + a];
  }
  if (stats_ != nullptr) stats_->bank_memo_misses.Inc();
  const size_t k = autos_.size();
  StateId* lin = tuple_buf_.data();
  StateId* hier = lin + k;
  for (size_t i = 0; i < k; ++i) {
    lin[i] = autos_[i]->StepCall(tuples_[q * k + i], a, &hier[i]);
  }
  StateId lin_id = Intern(lin);
  StateId hier_id = Intern(hier);
  call_lin_[q * num_symbols_ + a] = lin_id;
  call_hier_[q * num_symbols_ + a] = hier_id;
  *hier_out = hier_id;
  return lin_id;
}

StateId SharedBank::StepReturn(StateId q, StateId hier, Symbol a) {
  NW_DCHECK(q < num_states() && a < num_symbols_);
  NW_DCHECK(hier == kNoState || hier < num_states());
  StateId* row = ReturnRow(q, hier);
  FillReturns(q, hier, row, a, a + 1);
  return row[a];
}

StateId* SharedBank::ReturnRow(StateId q, StateId hier) {
  const uint64_t key = PackReturnKey(q, hier);
  uint32_t row = return_rows_.Find(key);
  if (row == FlatIndex::kNone) {
    row = static_cast<uint32_t>(return_targets_.size() / num_symbols_);
    return_rows_.Insert(key, row);
    return_targets_.resize(return_targets_.size() + num_symbols_, kNoState);
  }
  return return_targets_.data() + size_t{row} * num_symbols_;
}

void SharedBank::FillReturns(StateId q, StateId hier, StateId* row,
                             Symbol lo, Symbol hi) {
  const size_t k = autos_.size();
  bool have_rows = false;
  for (Symbol a = lo; a < hi; ++a) {
    if (row[a] != kNoState) {
      if (stats_ != nullptr) stats_->bank_memo_hits.Inc();
      continue;
    }
    if (stats_ != nullptr) stats_->bank_memo_misses.Inc();
    if (!have_rows) {
      // A pending return (no frame) lets each component read its own
      // hier_initial, matching the per-query engine path exactly. Each
      // component's rows live in their own vector, so fetching row i
      // leaves the pointers to rows 0..i-1 valid.
      for (size_t i = 0; i < k; ++i) {
        const StateId h = hier == kNoState ? kNoState : tuples_[hier * k + i];
        row_buf_[i] = ComponentReturnRow(i, tuples_[q * k + i], h);
      }
      have_rows = true;
    }
    StateId* next = tuple_buf_.data();
    for (size_t i = 0; i < k; ++i) next[i] = row_buf_[i][a];
    row[a] = Intern(next);  // interning never touches the return rows
    ++num_returns_;
  }
}

const StateId* SharedBank::ComponentReturnRow(size_t i, StateId q,
                                              StateId h) {
  if (q == kNoState) return dead_row_.data();  // a dead run stays dead
  const Nwa& nwa = *autos_[i];
  if (h == kNoState) h = nwa.hier_initial();
  ComponentRows& rows = component_rows_[i];
  const uint64_t key = (uint64_t{q} << 32) | h;
  uint32_t row = rows.index.Find(key);
  if (row == FlatIndex::kNone) {
    row = static_cast<uint32_t>(rows.cells.size() / num_symbols_);
    rows.index.Insert(key, row);
    for (Symbol a = 0; a < num_symbols_; ++a) {
      rows.cells.push_back(nwa.StepReturn(q, h, a));
    }
  }
  return rows.cells.data() + size_t{row} * num_symbols_;
}

}  // namespace nw
