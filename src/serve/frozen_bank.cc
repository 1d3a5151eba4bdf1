#include "serve/frozen_bank.h"

#include <algorithm>

#include "obs/prof.h"
#include "obs/stats.h"
#include "support/check.h"

namespace nw {

OverflowBank::OverflowBank(const SharedBank* frozen)
    : frozen_(frozen), local_(frozen->autos()) {}

void OverflowBank::set_stats(StatsSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = sink;
}

void OverflowBank::set_attribution(QueryAttribution* attr) {
  std::lock_guard<std::mutex> lock(mu_);
  NW_CHECK_MSG(attr == nullptr ||
                   attr->num_queries() == frozen_->num_queries(),
               "attribution table sized for %zu queries attached to a "
               "%zu-query overflow bank",
               attr->num_queries(), frozen_->num_queries());
  attr_ = attr;
}

void OverflowBank::CountStep(StateId result) {
  if (stats_ != nullptr) {
    stats_->overflow_steps.Inc();
    if (IsOverflowId(result)) {
      stats_->overflow_escalations.Inc();
    } else {
      stats_->overflow_mapbacks.Inc();
    }
  }
  if (attr_ != nullptr && IsOverflowId(result)) {
    // NWProf: charge the escalation to every query whose run is still
    // live in the escalated state — a dead component cannot be the
    // reason the tuple is missing from the snapshot.
    const StateId* tuple = local_.tuple(result & ~kOverflowBit);
    const size_t k = frozen_->num_queries();
    for (size_t i = 0; i < k; ++i) {
      if (tuple[i] != kNoState) attr_->query(i).escalations.Inc();
    }
  }
}

StateId OverflowBank::ToLocal(StateId q) {
  if (IsOverflowId(q)) return q & ~kOverflowBit;
  auto it = frozen_to_local_.find(q);
  if (it != frozen_to_local_.end()) return it->second;
  std::vector<StateId> tuple(frozen_->tuple(q),
                             frozen_->tuple(q) + frozen_->num_queries());
  StateId local = local_.InternTuple(tuple);
  frozen_to_local_.emplace(q, local);
  return local;
}

StateId OverflowBank::FromLocal(StateId local) {
  if (local_twin_.size() < local_.num_states()) {
    local_twin_.resize(local_.num_states(), kNoState);
  }
  if (local_twin_[local] != kNoState) return local_twin_[local];
  StateId twin = frozen_->FindTuple(local_.tuple(local));
  if (twin == kNoState) twin = kOverflowBit | local;
  local_twin_[local] = twin;
  return twin;
}

StateId OverflowBank::StepInternal(StateId q, Symbol a) {
  std::lock_guard<std::mutex> lock(mu_);
  ++steps_;
  StateId out = FromLocal(local_.StepInternal(ToLocal(q), a));
  CountStep(out);
  return out;
}

StateId OverflowBank::StepCall(StateId q, Symbol a, StateId* hier_out) {
  std::lock_guard<std::mutex> lock(mu_);
  ++steps_;
  StateId h;
  StateId lin = local_.StepCall(ToLocal(q), a, &h);
  *hier_out = FromLocal(h);
  StateId out = FromLocal(lin);
  CountStep(out);
  return out;
}

StateId OverflowBank::StepReturn(StateId q, StateId hier, Symbol a) {
  std::lock_guard<std::mutex> lock(mu_);
  ++steps_;
  StateId h = hier == kNoState ? kNoState : ToLocal(hier);
  StateId out = FromLocal(local_.StepReturn(ToLocal(q), h, a));
  CountStep(out);
  return out;
}

void OverflowBank::CopyAccepts(StateId q, uint64_t* out) {
  std::lock_guard<std::mutex> lock(mu_);
  NW_DCHECK(IsOverflowId(q));
  const uint64_t* acc = local_.accepts(q & ~kOverflowBit);
  std::copy(acc, acc + local_.accept_words(), out);
}

bool OverflowBank::accepting(StateId q, size_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  NW_DCHECK(IsOverflowId(q));
  return local_.accepting(q & ~kOverflowBit, id);
}

size_t OverflowBank::live(StateId q) {
  std::lock_guard<std::mutex> lock(mu_);
  NW_DCHECK(IsOverflowId(q));
  return local_.live(q & ~kOverflowBit);
}

StateId OverflowBank::component(StateId q, size_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  NW_DCHECK(IsOverflowId(q));
  return local_.component(q & ~kOverflowBit, id);
}

size_t OverflowBank::num_states() {
  std::lock_guard<std::mutex> lock(mu_);
  return local_.num_states();
}

}  // namespace nw
