#include "query/engine.h"

#include "json/json.h"
#include "opt/bank.h"
#include "serve/frozen_bank.h"
#include "support/check.h"
#include "support/stopwatch.h"
#include "trace/trace.h"

namespace nw {

void QueryEngine::set_stats(StatsSink* sink) {
  NW_CHECK_MSG(sink != nullptr, "set_stats() needs a sink; stats are off "
               "by default — simply never attach one");
  // Carry over counts accrued in the internal sink so the frozen hit/miss
  // accessors never go backwards across a late attach.
  if (stats_ == &own_stats_ && sink != &own_stats_) {
    sink->MergeFrom(own_stats_);
  }
  stats_ = sink;
  stats_enabled_ = true;
}

void QueryEngine::set_attribution(QueryAttribution* attr) {
  NW_CHECK_MSG(attr != nullptr, "set_attribution() needs a table; "
               "attribution is off by default — simply never attach one");
  NW_CHECK_MSG(attr->num_queries() == num_queries(),
               "attribution table sized for %zu queries attached to a "
               "%zu-query engine; attach after registering the bank",
               attr->num_queries(), num_queries());
  attr_ = attr;
}

void QueryEngine::RecordDocStats(uint64_t latency_us, size_t doc_positions,
                                 const std::vector<bool>& results) {
  if (stats_enabled_) {
    stats_->engine_docs.Inc();
    stats_->engine_positions.Add(doc_positions);
    stats_->doc_latency_us.Record(latency_us);
    if (overflow_ != nullptr || partition_ != nullptr) {
      stats_->engine_docs_frozen.Inc();
    } else if (product_ != nullptr) {
      stats_->engine_docs_bank.Inc();
    } else {
      stats_->engine_docs_soa.Inc();
    }
  }
  if (attr_ != nullptr) {
    // The table totals mirror engine_docs/engine_positions exactly, so
    // the rendered `queries` section can never drift from `engine`.
    attr_->docs.Inc();
    attr_->positions.Add(doc_positions);
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i]) attr_->query(i).match_docs.Inc();
    }
  }
}

size_t QueryEngine::num_queries() const {
  if (product_ != nullptr) return product_->num_queries();
  return partition_ != nullptr ? partition_->num_queries() : autos_.size();
}

bool QueryEngine::Accepting(size_t id) const {
  if (partition_ != nullptr) {
    const FrozenPartition::Slot slot = partition_->slot(id);
    return groups_[slot.group]->accepting(group_state_[slot.group],
                                          slot.bit);
  }
  if (product_ == nullptr) {
    return state_[id] != kNoState && autos_[id]->is_final(state_[id]);
  }
  if (OverflowBank::IsOverflowId(bank_state_)) {
    return overflow_->accepting(bank_state_, id);
  }
  return product_->accepting(bank_state_, id);
}

bool QueryEngine::dead(size_t id) const {
  if (partition_ != nullptr) {
    const FrozenPartition::Slot slot = partition_->slot(id);
    return groups_[slot.group]->component(group_state_[slot.group],
                                          slot.bit) == kNoState;
  }
  if (product_ == nullptr) return state_[id] == kNoState;
  if (OverflowBank::IsOverflowId(bank_state_)) {
    return overflow_->component(bank_state_, id) == kNoState;
  }
  return product_->component(bank_state_, id) == kNoState;
}

size_t QueryEngine::Add(const Nwa* a) {
  NW_CHECK_MSG(product_ == nullptr && partition_ == nullptr,
               "Add(), AddBank(), AddFrozen() and AddPartition() are "
               "mutually exclusive: the engine steps K automata, one "
               "shared product, one frozen snapshot, or one partition");
  NW_CHECK_MSG(a->num_symbols() == num_symbols_,
               "query automaton symbol space mismatch");
  // Discard frames a previous stream left pending (unclosed opens are
  // legal input): frames hold one slot per query, so they cannot survive
  // a bank-size change. Any in-progress stream is invalidated.
  stack_.clear();
  autos_.push_back(a);
  state_.push_back(a->initial());
  live_ += a->initial() != kNoState;
  return autos_.size() - 1;
}

void QueryEngine::CheckFresh(size_t num_symbols) const {
  NW_CHECK_MSG(autos_.empty() && product_ == nullptr && partition_ == nullptr,
               "AddBank(), AddFrozen() and AddPartition() need a fresh "
               "engine: no Add()ed automata and no previous bank, frozen "
               "snapshot or partition");
  NW_CHECK_MSG(num_symbols == num_symbols_,
               "shared bank symbol space mismatch");
}

void QueryEngine::SetProduct(const SharedBank* product) {
  CheckFresh(product->num_symbols());
  stack_.clear();
  product_ = product;
  bank_state_ = product_->initial();
  live_ = product_->live(bank_state_);
}

void QueryEngine::AddBank(SharedBank* bank) {
  SetProduct(bank);
  memo_ = bank;
}

void QueryEngine::AddFrozen(const SharedBank* frozen,
                            OverflowBank* overflow) {
  NW_CHECK_MSG(overflow != nullptr && overflow->frozen() == frozen,
               "the overflow bank must be built over the same frozen "
               "snapshot the engine steps");
  SetProduct(frozen);
  overflow_ = overflow;
}

void QueryEngine::AddPartition(const FrozenPartition* partition) {
  NW_CHECK_MSG(partition->complete(),
               "AddPartition() steps complete partitions only; serve a "
               "snapshot that can miss through AddFrozen() and an overflow "
               "bank");
  CheckFresh(partition->num_symbols());
  stack_.clear();
  partition_ = partition;
  for (size_t g = 0; g < partition->num_groups(); ++g) {
    groups_.push_back(&partition->group(g));
  }
  group_state_.resize(groups_.size());
  ResetGroups();
}

void QueryEngine::ResetGroups() {
  live_ = 0;
  for (size_t g = 0; g < groups_.size(); ++g) {
    group_state_[g] = groups_[g]->initial();
    live_ += groups_[g]->live(group_state_[g]);
  }
}

void QueryEngine::set_other_symbol(Symbol s) {
  NW_CHECK_MSG(s < num_symbols_,
               "catch-all symbol %u out of range: engine compiled over %zu "
               "symbols",
               s, num_symbols_);
  other_ = s;
}

void QueryEngine::BeginStream() {
  if (product_ != nullptr) {
    bank_state_ = product_->initial();
    live_ = product_->live(bank_state_);
  } else if (partition_ != nullptr) {
    ResetGroups();
  } else {
    live_ = 0;
    for (size_t i = 0; i < autos_.size(); ++i) {
      state_[i] = autos_[i]->initial();
      live_ += state_[i] != kNoState;
    }
  }
  stack_.clear();
  max_frames_ = 0;
  stream_pos_ = 0;
  ++traversals_;
  if (track_matches_) {
    first_match_.assign(num_queries(), -1);
    if (product_ != nullptr) {
      seen_accepts_.assign(product_->accept_words(), 0);
      scratch_accepts_.assign(product_->accept_words(), 0);
    } else if (partition_ != nullptr) {
      size_t words = 0;
      for (const SharedBank* g : groups_) words += g->accept_words();
      seen_accepts_.assign(words, 0);
    }
    LatchMatches();  // a query may accept the empty prefix (position 0)
  }
}

size_t QueryEngine::Feed(TaggedSymbol t) {
  ++positions_;
  ++stream_pos_;
  const size_t k = autos_.size();
  if (product_ == nullptr && partition_ == nullptr && k == 0) return 0;
  Symbol s = t.symbol;
  if (s >= num_symbols_) {
    NW_CHECK_MSG(other_ != Alphabet::kNoSymbol,
                 "stream symbol %u outside the compiled space and no "
                 "catch-all configured",
                 s);
    s = other_;
  }
  if (overflow_ != nullptr) return FeedFrozen(t.kind, s);
  if (partition_ != nullptr) return FeedPartition(t.kind, s);
  if (memo_ != nullptr) {
    // Shared-bank path: ONE step and (per call) ONE pushed StateId for
    // the whole bank, regardless of K.
    switch (t.kind) {
      case Kind::kInternal:
        bank_state_ = memo_->StepInternal(bank_state_, s);
        break;
      case Kind::kCall: {
        StateId h;
        bank_state_ = memo_->StepCall(bank_state_, s, &h);
        stack_.push_back(h);
        if (stack_.size() > max_frames_) max_frames_ = stack_.size();
        break;
      }
      case Kind::kReturn: {
        StateId h = kNoState;  // pending return: components read P0
        if (!stack_.empty()) {
          h = stack_.back();
          stack_.pop_back();
        }
        bank_state_ = memo_->StepReturn(bank_state_, h, s);
        break;
      }
    }
    live_ = memo_->live(bank_state_);
    if (track_matches_) LatchMatches();
    return live_;
  }
  // SoA path. Liveness is tracked incrementally (dead runs stay dead, so
  // a query leaves the live count exactly once) — no extra O(K) scan per
  // position.
  switch (t.kind) {
    case Kind::kInternal:
      for (size_t i = 0; i < k; ++i) {
        StateId next = autos_[i]->StepInternal(state_[i], s);
        live_ -= state_[i] != kNoState && next == kNoState;
        state_[i] = next;
      }
      break;
    case Kind::kCall: {
      // One shared frame per call position: K hierarchical states,
      // contiguous. Dead queries park kNoState in their slot.
      size_t base = stack_.size();
      stack_.resize(base + k);
      for (size_t i = 0; i < k; ++i) {
        StateId next = autos_[i]->StepCall(state_[i], s, &stack_[base + i]);
        live_ -= state_[i] != kNoState && next == kNoState;
        state_[i] = next;
      }
      size_t frames = stack_.size() / k;
      if (frames > max_frames_) max_frames_ = frames;
      break;
    }
    case Kind::kReturn: {
      size_t base = stack_.empty() ? 0 : stack_.size() - k;
      for (size_t i = 0; i < k; ++i) {
        // Pending return (empty stack): every query reads hier_initial.
        StateId h = stack_.empty() ? kNoState : stack_[base + i];
        StateId next = autos_[i]->StepReturn(state_[i], h, s);
        live_ -= state_[i] != kNoState && next == kNoState;
        state_[i] = next;
      }
      if (!stack_.empty()) stack_.resize(base);
      break;
    }
  }
  if (track_matches_) LatchMatches();
  return live_;
}

size_t QueryEngine::FeedFrozen(Kind kind, Symbol s) {
  // Fast path: the current state is frozen and the snapshot covers the
  // step — a lock-free table read. Any other case (state already in
  // overflow space, or a snapshot miss) routes through the mutex-guarded
  // overflow bank, which maps back into frozen space when it can.
  const bool from_frozen = !OverflowBank::IsOverflowId(bank_state_);
  switch (kind) {
    case Kind::kInternal: {
      StateId next = from_frozen ? product_->PeekInternal(bank_state_, s)
                                 : kNoState;
      if (next != kNoState) {
        stats_->frozen_hits.Inc();
      } else {
        stats_->frozen_misses.Inc();
        next = overflow_->StepInternal(bank_state_, s);
      }
      bank_state_ = next;
      break;
    }
    case Kind::kCall: {
      StateId lin = kNoState, h = kNoState;
      if (from_frozen) {
        lin = product_->PeekCallLinear(bank_state_, s);
        h = product_->PeekCallHier(bank_state_, s);
      }
      if (lin != kNoState) {
        stats_->frozen_hits.Inc();
      } else {
        stats_->frozen_misses.Inc();
        lin = overflow_->StepCall(bank_state_, s, &h);
      }
      stack_.push_back(h);
      if (stack_.size() > max_frames_) max_frames_ = stack_.size();
      bank_state_ = lin;
      break;
    }
    case Kind::kReturn: {
      StateId h = kNoState;  // pending return: components read P0
      if (!stack_.empty()) {
        h = stack_.back();
        stack_.pop_back();
      }
      StateId next = kNoState;
      if (from_frozen && (h == kNoState || !OverflowBank::IsOverflowId(h))) {
        next = product_->Return(bank_state_, h, s);
      }
      if (next != kNoState) {
        stats_->frozen_hits.Inc();
      } else {
        stats_->frozen_misses.Inc();
        next = overflow_->StepReturn(bank_state_, h, s);
      }
      bank_state_ = next;
      break;
    }
  }
  live_ = OverflowBank::IsOverflowId(bank_state_)
              ? overflow_->live(bank_state_)
              : product_->live(bank_state_);
  if (track_matches_) LatchMatches();
  return live_;
}

size_t QueryEngine::FeedPartition(Kind kind, Symbol s) {
  // Every group was explored completely, so every step is a lock-free
  // table read: the position is one frozen hit, and a miss is a bug.
  stats_->frozen_hits.Inc();
  const size_t g = groups_.size();
  StateId* state = group_state_.data();
  switch (kind) {
    case Kind::kInternal:
      for (size_t i = 0; i < g; ++i) {
        state[i] = groups_[i]->PeekInternal(state[i], s);
        NW_CHECK_MSG(state[i] != kNoState,
                     "partition group %zu has no internal step", i);
      }
      break;
    case Kind::kCall: {
      const size_t base = stack_.size();
      stack_.resize(base + g);
      for (size_t i = 0; i < g; ++i) {
        stack_[base + i] = groups_[i]->PeekCallHier(state[i], s);
        state[i] = groups_[i]->PeekCallLinear(state[i], s);
        NW_CHECK_MSG(state[i] != kNoState,
                     "partition group %zu has no call step", i);
      }
      const size_t frames = stack_.size() / g;
      if (frames > max_frames_) max_frames_ = frames;
      break;
    }
    case Kind::kReturn: {
      // Pending return (empty stack): every group reads its P0 frame.
      const bool pending = stack_.empty();
      const size_t base = pending ? 0 : stack_.size() - g;
      for (size_t i = 0; i < g; ++i) {
        const StateId h = pending ? kNoState : stack_[base + i];
        state[i] = groups_[i]->Return(state[i], h, s);
        NW_CHECK_MSG(state[i] != kNoState,
                     "partition group %zu has no return step", i);
      }
      if (!pending) stack_.resize(base);
      break;
    }
  }
  live_ = 0;
  for (size_t i = 0; i < g; ++i) live_ += groups_[i]->live(state[i]);
  if (track_matches_) LatchMatches();
  return live_;
}

void QueryEngine::LatchFromWords(const uint64_t* acc, size_t words,
                                 uint64_t* seen, size_t first) {
  for (size_t w = 0; w < words; ++w) {
    if (attr_ != nullptr) {
      // NWProf accept tally: every set bit is one "query observed
      // accepting at this position" event (the word-parallel twin of the
      // SoA path's per-query Accepting scan below).
      uint64_t bits = acc[w];
      while (bits != 0) {
        size_t bit = static_cast<size_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        attr_->query(first + w * 64 + bit).accept_positions.Inc();
      }
    }
    uint64_t fresh = acc[w] & ~seen[w];
    seen[w] |= acc[w];
    while (fresh != 0) {
      size_t bit = static_cast<size_t>(__builtin_ctzll(fresh));
      fresh &= fresh - 1;
      first_match_[first + w * 64 + bit] = static_cast<int64_t>(stream_pos_);
    }
  }
}

void QueryEngine::LatchMatches() {
  if (partition_ != nullptr) {
    uint64_t* seen = seen_accepts_.data();
    for (size_t g = 0; g < groups_.size(); ++g) {
      const size_t words = groups_[g]->accept_words();
      LatchFromWords(groups_[g]->accepts(group_state_[g]), words, seen,
                     partition_->first_query(g));
      seen += words;
    }
    return;
  }
  if (product_ != nullptr) {
    const uint64_t* acc;
    if (OverflowBank::IsOverflowId(bank_state_)) {
      overflow_->CopyAccepts(bank_state_, scratch_accepts_.data());
      acc = scratch_accepts_.data();
    } else {
      acc = product_->accepts(bank_state_);
    }
    LatchFromWords(acc, product_->accept_words(), seen_accepts_.data(), 0);
    return;
  }
  for (size_t i = 0; i < autos_.size(); ++i) {
    // The latch alone only needs Accepting() for unlatched queries; the
    // NWProf tally observes every accepting query every position, so the
    // short-circuit order flips when a table is attached.
    if (attr_ != nullptr) {
      if (!Accepting(i)) continue;
      attr_->query(i).accept_positions.Inc();
      if (first_match_[i] < 0) {
        first_match_[i] = static_cast<int64_t>(stream_pos_);
      }
    } else if (first_match_[i] < 0 && Accepting(i)) {
      first_match_[i] = static_cast<int64_t>(stream_pos_);
    }
  }
}

std::vector<bool> QueryEngine::RunAll(const NestedWord& n) {
  Stopwatch sw;
  const size_t before = positions_;
  BeginStream();
  for (const TaggedSymbol& t : n.tagged()) {
    if (Feed(t) == 0) break;  // every run dead: acceptance is settled
  }
  std::vector<bool> results = Results();
  if (stats_enabled_ || attr_ != nullptr) {
    RecordDocStats(static_cast<uint64_t>(sw.ElapsedUs()),
                   positions_ - before, results);
  }
  return results;
}

template <typename Stream>
std::vector<bool> QueryEngine::RunStream(const std::string& text,
                                         Alphabet* alphabet) {
  Stopwatch sw;
  const size_t before = positions_;
  BeginStream();
  Stream stream(text, alphabet);
  if (stats_enabled_) stream.set_stats(stats_);
  TaggedSymbol t;
  while (stream.Next(&t)) {
    if (Feed(t) == 0) break;  // every run dead: acceptance is settled
  }
  std::vector<bool> results = Results();
  if (stats_enabled_ || attr_ != nullptr) {
    RecordDocStats(static_cast<uint64_t>(sw.ElapsedUs()),
                   positions_ - before, results);
  }
  return results;
}

std::vector<bool> QueryEngine::RunAll(const std::string& text,
                                      Alphabet* alphabet,
                                      InputFormat format) {
  switch (format) {
    case InputFormat::kXml:
      return RunStream<XmlTokenStream>(text, alphabet);
    case InputFormat::kJson:
      return RunStream<JsonTokenStream>(text, alphabet);
    case InputFormat::kTrace:
      return RunStream<TraceTokenStream>(text, alphabet);
  }
  NW_CHECK_MSG(false, "unreachable: unknown input format");
  return {};
}

std::vector<bool> QueryEngine::Results() const {
  std::vector<bool> out(num_queries());
  for (size_t i = 0; i < out.size(); ++i) out[i] = Accepting(i);
  return out;
}

}  // namespace nw
