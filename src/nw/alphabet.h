// Symbol interning. All automata in the library operate on dense integer
// symbol ids; Alphabet maps them to human-readable names for parsing,
// printing, and diagnostics.
#ifndef NW_NW_ALPHABET_H_
#define NW_NW_ALPHABET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/flat_index.h"

namespace nw {

/// Dense id of a symbol in an Alphabet. Ids are assigned 0,1,2,... in
/// interning order.
using Symbol = uint32_t;

/// A finite alphabet Σ with named symbols.
///
/// The paper's constructions are parameterized by |Σ|; most examples use
/// Σ = {a, b}. Alphabets are value types and cheap to copy for the small
/// sizes used throughout.
///
/// Lookups take a view of the name, so the tokenizers intern a tag
/// straight out of the document text. The index (support/flat_index.h)
/// is keyed by a hash of the name's bytes (see Key), so a name already
/// interned costs one probe, one compare and no allocation.
class Alphabet {
 public:
  Alphabet() = default;

  /// Builds an alphabet from a list of distinct names.
  explicit Alphabet(const std::vector<std::string>& names) {
    for (const auto& n : names) Intern(n);
  }

  /// Returns the id for `name`, interning it if new.
  Symbol Intern(std::string_view name) {
    const uint64_t key = Key(name);
    Symbol id = Lookup(key, name);
    if (id != kNoSymbol) return id;
    id = static_cast<Symbol>(names_.size());
    names_.emplace_back(name);
    ids_.Insert(key, id);
    return id;
  }

  /// Returns the id for `name` or `kNoSymbol` when absent.
  Symbol Find(std::string_view name) const { return Lookup(Key(name), name); }

  /// Name of symbol `s`; `s` must be interned.
  const std::string& Name(Symbol s) const { return names_.at(s); }

  /// Number of symbols.
  size_t size() const { return names_.size(); }

  /// Sentinel for "no such symbol".
  static constexpr Symbol kNoSymbol = UINT32_MAX;

  /// Convenience: alphabet {"a","b"} used by most of the paper's examples.
  static Alphabet Ab() { return Alphabet({"a", "b"}); }

  /// Convenience: the first `n` lowercase letters (n <= 26).
  static Alphabet Letters(int n);

 private:
  /// Index key of `name`: FNV-1a over its bytes. Distinct names may
  /// share a key, so Lookup confirms a candidate against `names_`.
  static uint64_t Key(std::string_view name) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : name) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    return h;
  }
  Symbol Lookup(uint64_t key, std::string_view name) const {
    static_assert(FlatIndex::kNone == kNoSymbol);
    return ids_.Find(key, [&](uint32_t id) { return names_[id] == name; });
  }

  std::vector<std::string> names_;
  /// Key(name) → id.
  FlatIndex ids_;
};

inline Alphabet Alphabet::Letters(int n) {
  Alphabet a;
  for (int i = 0; i < n; ++i) a.Intern(std::string(1, 'a' + i));
  return a;
}

}  // namespace nw

#endif  // NW_NW_ALPHABET_H_
