#include "serve/stream_cache.h"

#include <cstring>

#include "common/string_util.h"

namespace stwa {
namespace serve {
namespace {

/// -1 unresolved, 0 disabled, 1 enabled (the ir/plan.cc gate pattern).
int g_stream_cache_mode = -1;

}  // namespace

bool StreamCacheEnabled() {
  if (g_stream_cache_mode < 0) {
    g_stream_cache_mode =
        GetEnvIntOr("STWA_NO_STREAM_CACHE", 0) != 0 ? 0 : 1;
  }
  return g_stream_cache_mode == 1;
}

void SetStreamCacheMode(bool enabled) {
  g_stream_cache_mode = enabled ? 1 : 0;
}

void StreamCacheStats::Merge(const StreamCacheStats& other) {
  output_hits += other.output_hits;
  shift_hits += other.shift_hits;
  misses += other.misses;
  stale_rejected += other.stale_rejected;
  bypass += other.bypass;
  flushes += other.flushes;
  entries += other.entries;
  bytes += other.bytes;
}

bool StreamCache::Lookup(int64_t stream_id, int64_t anchor,
                         uint64_t generation, simd::Precision precision,
                         const float* window, int64_t window_size,
                         float* out, int64_t output_size) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(stream_id);
  if (it == entries_.end()) return false;
  const Entry& e = it->second;
  if (e.generation != generation || e.precision != precision) {
    ++stats_.stale_rejected;
    return false;
  }
  if (e.anchor != anchor ||
      static_cast<int64_t>(e.data.size()) != window_size + output_size ||
      std::memcmp(e.data.data(), window,
                  sizeof(float) * static_cast<size_t>(window_size)) != 0) {
    return false;
  }
  std::memcpy(out, e.data.data() + window_size,
              sizeof(float) * static_cast<size_t>(output_size));
  ++stats_.output_hits;
  return true;
}

void StreamCache::Store(int64_t stream_id, int64_t anchor,
                        uint64_t generation, simd::Precision precision,
                        const float* window, int64_t window_size,
                        const float* output, int64_t output_size) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
  if (generation != generation_) return;
  Entry& e = entries_[stream_id];
  stats_.bytes -= static_cast<int64_t>(sizeof(float) * e.data.size());
  e.anchor = anchor;
  e.generation = generation;
  e.precision = precision;
  // resize() keeps the capacity of a refreshed entry: no allocation once
  // every stream has been seen.
  e.data.resize(static_cast<size_t>(window_size + output_size));
  std::memcpy(e.data.data(), window,
              sizeof(float) * static_cast<size_t>(window_size));
  std::memcpy(e.data.data() + window_size, output,
              sizeof(float) * static_cast<size_t>(output_size));
  stats_.bytes += static_cast<int64_t>(sizeof(float) * e.data.size());
}

void StreamCache::CountBypass() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.bypass;
}

void StreamCache::Invalidate(uint64_t new_generation) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  generation_ = new_generation;
  ++stats_.flushes;
  stats_.bytes = 0;
}

uint64_t StreamCache::generation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return generation_;
}

StreamCacheStats StreamCache::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StreamCacheStats out = stats_;
  out.entries = static_cast<int64_t>(entries_.size());
  return out;
}

}  // namespace serve
}  // namespace stwa
