// Per-stream output memo for repeat forecast reads.
//
// Dashboards poll a live stream more often than its sensors report, so
// the same window is often asked for several times in a row. The memo
// holds, per stream id, the raw window and raw-scale output of the last
// answered forecast; a request at the same anchor whose window bytes
// still match is answered by copying the output, without touching the
// model (output hit).
//
// Anchors are a routing heuristic, never a correctness carrier: every hit
// is gated by a byte comparison of the actual window contents, so a
// client that rewinds, skips or rewrites history degrades to a miss, not
// a wrong answer. Only outputs that are a function of the window alone
// are stored: the caller refuses rng-bearing forwards and non-finite
// outputs.
//
// Entries are compact: the tags plus one float vector holding the window
// followed by the output. Refreshing an entry reuses that vector's
// storage, so a steady stream of misses allocates nothing.
//
// Invalidation: entries are tagged with the (weights) generation and the
// precision tier they were computed under. A lookup presents the caller's
// tags; any mismatch rejects the entry (counted stale_rejected) without
// serving it. fleet::ModelProfile::Reload — which is also the path
// online::OnlineLearner publishes ride — calls Invalidate(new_generation)
// at swap: flush everything, retag. Workers still draining on the old
// generation present old tags: their lookups miss and their stores are
// dropped, so they answer on the old weights as the drain contract
// requires and leave nothing behind; zero stale reads either way.
//
// Thread-safe: one memo is shared by all workers of a server (and by all
// shards of a fleet profile — the determinism contract makes every
// worker's bytes interchangeable).
//
// Escape hatch: STWA_NO_STREAM_CACHE=1 / SetStreamCacheMode(false)
// disables the whole path (servers then never construct a memo).

#ifndef STWA_SERVE_STREAM_CACHE_H_
#define STWA_SERVE_STREAM_CACHE_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "simd/lowp.h"

namespace stwa {
namespace serve {

/// Counters for the memo (ServerStats / fleet stats surface these as sc_*
/// fields). Every stream-tagged request that reaches a worker counts
/// exactly once in output_hits, misses or bypass.
struct StreamCacheStats {
  /// Repeat forecast answered straight from the memoised output.
  int64_t output_hits = 0;
  /// Always 0: the shift-by-one reuse path was retired; the field stays
  /// so existing readers of the struct keep compiling.
  int64_t shift_hits = 0;
  /// Computed by the model and memoised (first contact, a new window, an
  /// anchor change or a stale entry).
  int64_t misses = 0;
  /// Entries rejected for a generation/precision tag mismatch. Stale
  /// entries are never served; this counts how many lookups hit one.
  int64_t stale_rejected = 0;
  /// Computed but not memoised: an rng-bearing forward, a non-finite
  /// output, or a failed forward.
  int64_t bypass = 0;
  /// Invalidate() calls (hot reloads / online publishes).
  int64_t flushes = 0;
  /// Live entries.
  int64_t entries = 0;
  /// Float bytes held by live entries (windows + outputs).
  int64_t bytes = 0;

  void Merge(const StreamCacheStats& other);
};

/// Shared, mutex-guarded per-stream output memo. See file comment.
class StreamCache {
 public:
  explicit StreamCache(uint64_t generation = 1) : generation_(generation) {}

  /// Output hit: when stream `stream_id` has an entry with the caller's
  /// tags, the same `anchor` and a byte-equal `window` (window_size
  /// floats), copies the memoised output (output_size floats) into `out`,
  /// counts an output hit and returns true. Otherwise returns false and
  /// counts nothing but a tag mismatch (stale_rejected); the caller
  /// computes and then calls Store or CountBypass.
  bool Lookup(int64_t stream_id, int64_t anchor, uint64_t generation,
              simd::Precision precision, const float* window,
              int64_t window_size, float* out, int64_t output_size);

  /// Memoises `output` as the answer to `window` for `stream_id` and
  /// counts a miss. Dropped (but still counted) when `generation` is not
  /// the memo's current one: a draining worker of a retired generation
  /// must not leave entries behind.
  void Store(int64_t stream_id, int64_t anchor, uint64_t generation,
             simd::Precision precision, const float* window,
             int64_t window_size, const float* output, int64_t output_size);

  /// Counts a stream request computed without being memoised.
  void CountBypass();

  /// Flushes every entry and moves the memo to `new_generation`.
  /// Called at the hot-reload swap point, before new-generation workers
  /// take traffic.
  void Invalidate(uint64_t new_generation);

  /// Generation tag of stored entries.
  uint64_t generation() const;

  StreamCacheStats Stats() const;

 private:
  struct Entry {
    int64_t anchor = -1;
    uint64_t generation = 0;
    simd::Precision precision = simd::Precision::kFp32;
    /// Window (the byte-compared key) followed by the output.
    std::vector<float> data;
  };

  mutable std::mutex mutex_;
  uint64_t generation_;
  std::unordered_map<int64_t, Entry> entries_;
  StreamCacheStats stats_;
};

/// True when memo use is globally enabled: the default, unless
/// STWA_NO_STREAM_CACHE is set non-zero or SetStreamCacheMode(false) was
/// called. Servers read this once at construction.
bool StreamCacheEnabled();

/// Runtime override of the STWA_NO_STREAM_CACHE gate (A/B benches).
void SetStreamCacheMode(bool enabled);

}  // namespace serve
}  // namespace stwa

#endif  // STWA_SERVE_STREAM_CACHE_H_
