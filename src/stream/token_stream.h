// The multi-format ingestion seam (paper §1: nested words model ANY
// hierarchical stream — XML, JSON, and program traces alike). Every front
// end (xml/xml.h, json/json.h, trace/trace.h) is a pull tokenizer with
// the same shape — the implicit TokenStream concept:
//
//   Stream(const std::string& text, Alphabet* alphabet);
//   void set_stats(StatsSink* stats);
//   bool Next(TaggedSymbol* out);   // false at end of input
//   size_t pos() const;            // bytes consumed by yielded tokens
//
// Every front end scans allocation-free: it walks a std::string_view of
// the text, classifies bytes through the one byte_class table below (no
// locale calls), and interns a name as a view of its bytes in the text,
// which the Alphabet resolves without copying once the name is known.
//
// Consumers (QueryEngine::RunAll, SplitTopLevel) are templated over the
// concept and select the instantiation from an InputFormat value, so the
// engine, optimizer, bank/freeze, sharding, stats, and attribution layers
// run unchanged for every format — two formats in, zero engine forks.
#ifndef NW_STREAM_TOKEN_STREAM_H_
#define NW_STREAM_TOKEN_STREAM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace nw {

struct StatsSink;

/// Ingestion front ends the stack can stream. The value is plumbed from
/// the CLI (`nwquery --format=...`) through QueryEngine::RunAll and
/// ShardedEvaluator down to the tokenizer instantiation — nothing above
/// the tokenizer branches on it per token.
enum class InputFormat : uint8_t {
  kXml,    ///< SAX-style XML (xml/xml.h)
  kJson,   ///< JSON objects/arrays as call/return (json/json.h)
  kTrace,  ///< Figure-1 call/return event logs (trace/trace.h)
};

/// "xml" | "json" | "trace" → format; false on anything else.
bool ParseInputFormat(const std::string& name, InputFormat* out);

/// Canonical lowercase name — the `--format` spelling and the stats
/// `stream.format` label.
const char* InputFormatName(InputFormat format);

/// Byte classes shared by the tokenizers: one 256-entry table instead of
/// the locale-dependent `std::isspace`/`std::isalnum`. The table equals
/// `isspace` and `isalnum` (plus '_' and '-') in the "C" locale, which
/// xml_test pins byte by byte, so a byte ≥ 0x80 is neither space nor
/// part of a name.
namespace byte_class {
inline constexpr uint8_t kSpace = 1;  ///< C-locale isspace
inline constexpr uint8_t kName = 2;   ///< C-locale isalnum, '_', '-'

inline constexpr std::array<uint8_t, 256> kTable = [] {
  std::array<uint8_t, 256> t{};
  for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    t[c] = kSpace;
  }
  for (int c = 0; c < 256; ++c) {
    if ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
        (c >= 'A' && c <= 'Z')) {
      t[c] = kName;
    }
  }
  t['_'] = t['-'] = kName;
  return t;
}();

inline bool IsSpace(char c) {
  return (kTable[static_cast<unsigned char>(c)] & kSpace) != 0;
}
inline bool IsName(char c) {
  return (kTable[static_cast<unsigned char>(c)] & kName) != 0;
}
}  // namespace byte_class

/// Tokenizer-stats tallies shared by every front end. Counts are PLAIN
/// LOCAL COUNTERS — zero atomic traffic per token — flushed into the
/// attached sink exactly once, when the stream ends or is destroyed
/// mid-document after an early stop. The `flushed_` latch makes the
/// end-of-input flush and the destructor flush idempotent as a pair:
/// a stream that reaches the end and is then destroyed reports once,
/// never twice (each front end used to hand-roll this; one shared latch
/// means none of them can regress it independently).
class StreamTally {
 public:
  explicit StreamTally(InputFormat format) : format_(format) {}

  void set_stats(StatsSink* stats) { stats_ = stats; }
  /// Callers gate the per-token tallies on this so the disabled path
  /// costs one branch on a pointer that is constant for the stream.
  bool enabled() const { return stats_ != nullptr; }

  void OnCall() {
    ++calls_;
    if (++depth_ > depth_hwm_) depth_hwm_ = depth_;
  }
  void OnReturn() {
    ++returns_;
    if (depth_ > 0) --depth_;
  }
  void OnInternal() { ++internals_; }

  /// One-shot flush of the tallies into the sink (idempotent): byte and
  /// token counts, the depth high-water mark, and one tick of the
  /// per-format document counter (rendered as the stats `stream.format`
  /// object). `bytes` is the stream's pos() — the consumed prefix, so an
  /// early-stopped stream still reports the work it did.
  void Flush(size_t bytes);

 private:
  InputFormat format_;
  StatsSink* stats_ = nullptr;
  bool flushed_ = false;
  size_t calls_ = 0, returns_ = 0, internals_ = 0;
  size_t depth_ = 0, depth_hwm_ = 0;
};

}  // namespace nw

#endif  // NW_STREAM_TOKEN_STREAM_H_
