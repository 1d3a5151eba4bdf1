// Strict decimal parsing for command-line option values.
#ifndef NW_SUPPORT_PARSE_UINT_H_
#define NW_SUPPORT_PARSE_UINT_H_

#include <cstdint>

namespace nw {

/// Parses `s` as a decimal uint64_t into `*out`; rejects null, empty,
/// non-digit, and overflowing input (std::stoul would throw — a CLI must
/// not crash on a typo).
inline bool ParseUint(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  uint64_t v = 0;
  for (; *s; ++s) {
    if (*s < '0' || *s > '9') return false;
    if (v > (UINT64_MAX - 9) / 10) return false;
    v = v * 10 + static_cast<uint64_t>(*s - '0');
  }
  *out = v;
  return true;
}

}  // namespace nw

#endif  // NW_SUPPORT_PARSE_UINT_H_
