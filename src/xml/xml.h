// SAX-style XML bridging (paper §1–§2.2): "since the SAX representation of
// XML documents already contains tags that specify the position type, they
// can be interpreted as nested words without any preprocessing."
//
// The tokenizer maps open-tags to calls, close-tags to returns, and text
// chunks to internal positions — including documents that do not parse
// (mismatched or unclosed tags), which is exactly the representational
// advantage the paper argues for.
#ifndef NW_XML_XML_H_
#define NW_XML_XML_H_

#include <string>
#include <string_view>

#include "nw/nested_word.h"
#include "nwa/nwa.h"
#include "stream/token_stream.h"
#include "support/rng.h"

namespace nw {

/// Incremental pull tokenizer over SAX-style XML text. Yields one tagged
/// position at a time so consumers (NwaRunner, the query engine) can
/// stream a document with memory bounded by its depth instead of its
/// length. Element names are interned into `*alphabet`; text chunks intern
/// the pseudo-symbol "#text" lazily — a document with no text chunks never
/// allocates it. Attributes are skipped; self-closing tags (`<a/>`) emit a
/// call immediately followed by a return; malformed input never fails —
/// stray close tags become pending returns, unclosed opens pending calls.
///
/// One instantiation of the TokenStream concept (stream/token_stream.h);
/// json/json.h and trace/trace.h are the others.
class XmlTokenStream {
 public:
  /// `text` and `alphabet` must outlive the stream.
  XmlTokenStream(const std::string& text, Alphabet* alphabet)
      : text_(text), alphabet_(alphabet) {}
  /// The stream reads `text` incrementally; a temporary would dangle.
  XmlTokenStream(std::string&& text, Alphabet* alphabet) = delete;
  /// Flushes tallies to the stats sink if one is attached (see Flush).
  ~XmlTokenStream();

  /// Attaches an NWStats sink (obs/stats.h): the stream then tallies
  /// bytes consumed, tokens by kind, and the call/return depth
  /// high-water mark through the shared flush-once StreamTally
  /// (stream/token_stream.h), so the enabled hot path costs a handful of
  /// register increments and the disabled path one branch on a pointer
  /// constant for the stream.
  void set_stats(StatsSink* stats) { tally_.set_stats(stats); }

  /// Produces the next position into `*out`; false at end of input.
  bool Next(TaggedSymbol* out);

  /// Byte offset of the scan: everything before it has been consumed by
  /// the positions yielded so far (including skipped comments/doctype/PI
  /// and, after a self-closing tag's call, the tag whose return is still
  /// queued). Lets consumers cut the text at token boundaries — the
  /// serving layer's SplitTopLevel is built on this instead of a second
  /// tag classifier.
  size_t pos() const { return pos_; }

 private:
  std::string_view text_;
  Alphabet* alphabet_;
  size_t pos_ = 0;
  /// "#text" symbol, interned on first use (lazy) and cached.
  Symbol text_sym_ = Alphabet::kNoSymbol;
  /// Return emitted right after a self-closing tag's call; kNoSymbol when
  /// none is queued.
  Symbol queued_return_ = Alphabet::kNoSymbol;
  /// NWStats tallies, flushed once (see set_stats).
  StreamTally tally_{InputFormat::kXml};
};

/// Tokenizes `text` into a materialized nested word (XmlTokenStream run to
/// completion). Same conventions as the streaming form.
NestedWord XmlToNestedWord(const std::string& text, Alphabet* alphabet);

/// Renders a nested word back to XML-ish text (internal positions render
/// as "."), for debugging and the examples.
std::string NestedWordToXml(const NestedWord& n, const Alphabet& alphabet);

/// Deterministic NWA accepting exactly the well-formed documents over the
/// given alphabet: every open tag is closed by a matching name and nothing
/// is pending. Uses hierarchical edges to carry the open tag's name —
/// the canonical "word automata cannot, NWAs can" query.
Nwa WellFormedChecker(size_t num_symbols);

/// Deterministic flat NWA for the introduction's pattern-order query:
/// element names p1, ..., pn occur (as open tags) in document order.
/// Linear size in the number of patterns (the intro's claim).
Nwa PatternOrderQuery(const std::vector<Symbol>& patterns,
                      size_t num_symbols);

/// Deterministic NWA accepting documents whose nesting depth reaches at
/// least `k` (k+2 states; a word automaton cannot express this at all).
Nwa MinDepthQuery(size_t k, size_t num_symbols);

/// Synthetic XML document generator: a random tree document with the
/// given approximate size (in positions) and maximum depth.
std::string RandomXmlDocument(Rng* rng, const Alphabet& alphabet,
                              size_t approx_positions, size_t max_depth);

}  // namespace nw

#endif  // NW_XML_XML_H_
