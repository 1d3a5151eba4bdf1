// Flat open-addressing index from 64-bit keys to dense 32-bit ids: one
// contiguous slot array, linear probing, power-of-two capacity kept at
// most 3/4 full. The index holds only (key, id) pairs; callers keep the
// records the ids name. A key may be exact (a packed pair of states) or a
// hash of a longer record (a component tuple), in which case lookups pass
// a predicate that compares the candidate record itself.
#ifndef NW_SUPPORT_FLAT_INDEX_H_
#define NW_SUPPORT_FLAT_INDEX_H_

#include <cstdint>
#include <vector>

namespace nw {

class FlatIndex {
 public:
  /// Id returned by Find when no entry matches (never stored).
  static constexpr uint32_t kNone = ~uint32_t{0};

  /// Id stored under `key` whose record satisfies `same(id)`, else kNone.
  template <typename Same>
  uint32_t Find(uint64_t key, Same same) const {
    if (slots_.empty()) return kNone;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.key == key && same(s.id)) return s.id;
    }
  }
  /// Find for exact keys.
  uint32_t Find(uint64_t key) const {
    return Find(key, [](uint32_t) { return true; });
  }

  /// Adds `id` under `key`; the caller has checked that no equal record
  /// is stored.
  void Insert(uint64_t key, uint32_t id) {
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    Place(key, id);
    ++size_;
  }

  /// Calls fn(key, id) for every entry, in slot order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Slot& s : slots_) {
      if (s.id != kNone) fn(s.key, s.id);
    }
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t id = kNone;
  };

  /// Fibonacci hashing: the top bits of key·2^64/φ pick the home slot,
  /// after folding the high half in (packed keys keep states up there).
  size_t Home(uint64_t key) const {
    key ^= key >> 32;
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  void Place(uint64_t key, uint32_t id) {
    size_t i = Home(key);
    while (slots_[i].id != kNone) i = (i + 1) & mask_;
    slots_[i] = {key, id};
  }
  void Grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    shift_ = 64;
    for (size_t n = slots_.size(); n > 1; n >>= 1) --shift_;
    for (const Slot& s : old) {
      if (s.id != kNone) Place(s.key, s.id);
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 63;
  size_t size_ = 0;
};

}  // namespace nw

#endif  // NW_SUPPORT_FLAT_INDEX_H_
