#include "serve/sharded.h"

#include <atomic>
#include <optional>
#include <thread>

#include "json/json.h"
#include "obs/prof.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "support/check.h"
#include "support/stopwatch.h"
#include "trace/trace.h"
#include "xml/xml.h"

namespace nw {

ShardedEvaluator::ShardedEvaluator(const SharedBank* frozen,
                                   size_t num_symbols, Symbol other_symbol,
                                   size_t threads, InputFormat format)
    : ShardedEvaluator(static_cast<const FrozenPartition*>(nullptr),
                       num_symbols, other_symbol, threads, format) {
  NW_CHECK_MSG(frozen->num_symbols() == num_symbols,
               "frozen bank symbol space mismatch");
  // A non-owning handle: the caller keeps the snapshot alive.
  frozen_handle_ = FrozenPartition::Whole(
      std::shared_ptr<const SharedBank>(std::shared_ptr<void>(), frozen));
  frozen_ = frozen_handle_.get();
}

ShardedEvaluator::ShardedEvaluator(const FrozenPartition* frozen,
                                   size_t num_symbols, Symbol other_symbol,
                                   size_t threads, InputFormat format)
    : frozen_(frozen),
      num_symbols_(num_symbols),
      other_(other_symbol),
      threads_(threads),
      format_(format) {
  NW_CHECK_MSG(threads >= 1, "sharded evaluation needs at least one thread");
  NW_CHECK_MSG(frozen == nullptr || frozen->num_symbols() == num_symbols,
               "frozen bank symbol space mismatch");
}

void ShardedEvaluator::Rebind(std::shared_ptr<const FrozenPartition> frozen,
                              size_t num_symbols) {
  NW_CHECK_MSG(frozen != nullptr, "Rebind() needs a live epoch snapshot");
  NW_CHECK_MSG(frozen->num_symbols() == num_symbols,
               "frozen bank symbol space mismatch");
  NW_CHECK_MSG(other_ == Alphabet::kNoSymbol || other_ < num_symbols,
               "catch-all symbol %u out of range for a %zu-symbol epoch",
               other_, num_symbols);
  NW_CHECK_MSG(attrs_.empty() ||
                   attrs_[0]->num_queries() == frozen->num_queries(),
               "attribution tables sized for %zu queries cannot follow a "
               "rebind to a %zu-query bank; attach with with_attribution = "
               "false for online admission",
               attrs_[0]->num_queries(), frozen->num_queries());
  frozen_handle_ = std::move(frozen);
  frozen_ = frozen_handle_.get();
  num_symbols_ = num_symbols;
}

void ShardedEvaluator::AttachStats(StatsRegistry* registry,
                                   bool with_attribution) {
  NW_CHECK_MSG(sinks_.empty(), "AttachStats() may be called once");
  sinks_.reserve(threads_);
  if (with_attribution) attrs_.reserve(threads_);
  for (size_t w = 0; w < threads_; ++w) {
    sinks_.push_back(std::make_unique<StatsSink>());
    registry->Register("shard/" + std::to_string(w), sinks_[w].get());
    if (!with_attribution) continue;
    attrs_.push_back(
        std::make_unique<QueryAttribution>(frozen_->num_queries()));
    registry->RegisterAttribution(attrs_[w].get());
  }
}

std::vector<DocResult> ShardedEvaluator::EvaluateCorpus(
    const std::vector<std::string>& corpus, const Alphabet& alphabet,
    bool track_matches) {
  std::vector<DocResult> results(corpus.size());
  // The shared cursor doubles as the NWPulse progress hook: a sampler
  // thread reads it (and docs/bytes done) mid-run via progress().
  progress_.Reset(corpus.size());
  std::atomic<uint64_t>& cursor = progress_.cursor;
  std::atomic<size_t> hits{0}, misses{0}, total_positions{0};
  // Each worker owns every piece of mutable state it touches: the engine
  // (run state), the overflow bank (snapshot-miss escape hatch, only over
  // a snapshot that can miss), the
  // alphabet copy (streaming interns names first seen in documents — the
  // copies may diverge, but every post-freeze symbol remaps to the
  // catch-all before stepping, so results cannot depend on the ids), and
  // its NWStats shard sink (single-writer by construction: shard indexes
  // are unique, so each sink has exactly one writing thread while the
  // registry's readers merge relaxed-atomic snapshots). Only the
  // frozen partition is shared, and it is const.
  auto worker = [&](size_t shard) {
    StatsSink* sink = sinks_.empty() ? nullptr : sinks_[shard].get();
    Stopwatch wall;
    uint64_t busy_us = 0;
    // Sinks are cumulative across EvaluateCorpus calls; ServeStats is
    // per-call, so the frozen hit/miss contribution is a delta.
    const size_t hits0 = sink == nullptr ? 0 : sink->frozen_hits.value();
    const size_t miss0 = sink == nullptr ? 0 : sink->frozen_misses.value();
    Alphabet local_alphabet = alphabet;
    std::optional<OverflowBank> overflow;
    QueryEngine engine(num_symbols_);
    if (other_ != Alphabet::kNoSymbol) engine.set_other_symbol(other_);
    engine.set_track_matches(track_matches);
    if (frozen_->complete()) {
      engine.AddPartition(frozen_);
    } else {
      overflow.emplace(&frozen_->group(0));
      engine.AddFrozen(&frozen_->group(0), &*overflow);
    }
    if (sink != nullptr) {
      engine.set_stats(sink);
      if (overflow) overflow->set_stats(sink);
    }
    if (!attrs_.empty()) {
      // Shard w writes only table w, so each attribution table keeps the
      // sinks' single-writer discipline; renders merge across shards.
      engine.set_attribution(attrs_[shard].get());
      if (overflow) overflow->set_attribution(attrs_[shard].get());
    }
    for (;;) {
      size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= corpus.size()) break;
      Stopwatch doc_sw;
      TraceSpan span(tracer_, "doc", "corpus/" + std::to_string(i));
      size_t before = engine.positions();
      DocResult& r = results[i];
      r.accept = engine.RunAll(corpus[i], &local_alphabet, format_);
      r.positions = engine.positions() - before;
      if (track_matches) {
        r.first_match.resize(engine.num_queries());
        for (size_t q = 0; q < r.first_match.size(); ++q) {
          r.first_match[q] = engine.first_match(q);
        }
      }
      uint64_t doc_us = static_cast<uint64_t>(doc_sw.ElapsedUs());
      busy_us += doc_us;
      if (sink != nullptr) {
        sink->shard_docs.Inc();
        sink->shard_bytes.Add(corpus[i].size());
        sink->shard_positions.Add(r.positions);
        // Published per document (not at join) so a sampler's interval
        // busy delta is live utilization, not an end-of-run step.
        sink->shard_busy_us.Add(doc_us);
      }
      progress_.docs_done.fetch_add(1, std::memory_order_relaxed);
      progress_.bytes_done.fetch_add(corpus[i].size(),
                                     std::memory_order_relaxed);
      span.Note("shard", shard);
      span.Note("positions", r.positions);
      span.Note("bytes", corpus[i].size());
      if (tracer_ != nullptr && sink != nullptr) {
        tracer_->WriteCounters(shard, *sink);
      }
    }
    hits.fetch_add(engine.frozen_hits() - hits0, std::memory_order_relaxed);
    misses.fetch_add(engine.frozen_misses() - miss0,
                     std::memory_order_relaxed);
    total_positions.fetch_add(engine.positions(),
                              std::memory_order_relaxed);
    if (sink != nullptr) {
      // busy_us went in per document above; only the wait residue lands
      // at join time.
      uint64_t wall_us = static_cast<uint64_t>(wall.ElapsedUs());
      sink->shard_wait_us.Add(wall_us > busy_us ? wall_us - busy_us : 0);
    }
  };
  // No point spawning more workers than documents; one worker still runs
  // for an empty corpus so stats come back well-defined.
  size_t n = threads_;
  if (corpus.size() < n) n = corpus.size() > 0 ? corpus.size() : 1;
  std::vector<std::thread> pool;
  pool.reserve(n);
  for (size_t w = 0; w < n; ++w) pool.emplace_back(worker, w);
  for (std::thread& t : pool) t.join();
  progress_.active.store(false, std::memory_order_relaxed);
  stats_ = ServeStats{};
  stats_.documents = corpus.size();
  stats_.positions = total_positions.load();
  stats_.frozen_hits = hits.load();
  stats_.frozen_misses = misses.load();
  stats_.threads = n;
  return results;
}

namespace {

// Driven by the real tokenizer (the TokenStream's pos() exposes token
// byte boundaries), so a chunk boundary can never fall inside a
// construct the tokenizer treats as one token and the two can never
// drift. Depth is tracked from the token kinds exactly as an engine
// would: calls push, returns pop (clamped — a stray close at top level
// becomes its own chunk). A boundary is cut whenever a return leaves
// the stream at depth 0; top-level text attaches to the FOLLOWING
// element's chunk.
template <typename Stream>
std::vector<std::string> SplitWithStream(const std::string& text) {
  std::vector<std::string> out;
  Alphabet scratch;
  Stream stream(text, &scratch);
  TaggedSymbol t;
  size_t chunk_start = 0;
  size_t depth = 0;
  while (stream.Next(&t)) {
    switch (t.kind) {
      case Kind::kCall:
        ++depth;
        break;
      case Kind::kReturn:
        if (depth > 0) --depth;
        if (depth == 0) {
          out.push_back(text.substr(chunk_start, stream.pos() - chunk_start));
          chunk_start = stream.pos();
        }
        break;
      case Kind::kInternal:
        break;
    }
  }
  // Trailing top-level text and unclosed opens spill into a final chunk.
  if (chunk_start < text.size()) out.push_back(text.substr(chunk_start));
  if (out.empty()) out.push_back(text);
  return out;
}

}  // namespace

std::vector<std::string> SplitTopLevel(const std::string& text,
                                       InputFormat format, StatsSink* stats) {
  std::vector<std::string> out;
  switch (format) {
    case InputFormat::kXml:
      out = SplitWithStream<XmlTokenStream>(text);
      break;
    case InputFormat::kJson:
      out = SplitWithStream<JsonTokenStream>(text);
      break;
    case InputFormat::kTrace:
      out = SplitWithStream<TraceTokenStream>(text);
      break;
  }
  if (stats != nullptr) {
    stats->split_chunks.Add(out.size());
    for (const std::string& chunk : out) {
      stats->split_max_chunk_bytes.SetMax(chunk.size());
      stats->split_chunk_bytes.Record(chunk.size());
    }
  }
  return out;
}

}  // namespace nw
