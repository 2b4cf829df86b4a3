// Shared parallel execution runtime.
//
// A single persistent worker pool backs every parallel kernel in the
// library. ParallelFor splits an index range into contiguous chunks and
// runs them on the pool; each output element is computed by exactly one
// chunk with the same per-element operation order as the serial loop, so
// results are bit-identical across thread counts (see DESIGN.md
// "Execution runtime" for the determinism contract).
//
// Thread count resolution, in priority order:
//   1. runtime::SetNumThreads(n) (e.g. from train::TrainConfig)
//   2. the STWA_NUM_THREADS environment variable
//   3. std::thread::hardware_concurrency()
// At threads == 1 every ParallelFor runs inline on the calling thread —
// the serial fallback used by the determinism tests.

#ifndef STWA_RUNTIME_PARALLEL_H_
#define STWA_RUNTIME_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <functional>

namespace stwa {
namespace runtime {

/// Chunk body: processes the half-open index range [begin, end).
using RangeFn = std::function<void(int64_t, int64_t)>;

/// Number of threads the pool currently targets (>= 1).
int NumThreads();

/// Resizes the worker pool. n < 1 resets to the environment/hardware
/// default. Safe to call between parallel regions; not from inside one.
void SetNumThreads(int n);

/// Thread count implied by STWA_NUM_THREADS / hardware_concurrency,
/// ignoring any SetNumThreads override.
int DefaultNumThreads();

/// True while the calling thread is executing inside a ParallelFor chunk.
bool InParallelRegion();

/// RAII that pins the calling thread to serial kernel execution for its
/// lifetime: every ParallelFor on this thread runs inline, exactly as if
/// it were nested inside a parallel region. Fleet shard
/// workers use this so K shards x W workers parallelise *across* requests
/// instead of contending for the shared pool on every small kernel; the
/// ParallelFor determinism contract makes the outputs bit-identical either
/// way. Nests safely (restores the previous state).
class ScopedSerialRegion {
 public:
  ScopedSerialRegion();
  ~ScopedSerialRegion();
  ScopedSerialRegion(const ScopedSerialRegion&) = delete;
  ScopedSerialRegion& operator=(const ScopedSerialRegion&) = delete;

 private:
  bool prev_;
};

namespace detail {

/// Pool size mirror (0 = pool not created yet) and the nested-region flag,
/// exposed so the ParallelFor fast path inlines into kernel call sites —
/// small tensors must not pay a cross-TU call to decide "run serial".
extern std::atomic<int> pool_size;
extern thread_local bool in_parallel_region;

/// Creates the pool if needed and returns its size. Out-of-line slow path.
int ResolvePoolSize();

/// True when a range of `range` indices at the given grain is worth
/// dispatching to the pool (multi-thread pool, non-nested caller).
inline bool ShouldParallelize(int64_t range, int64_t grain) {
  if (range <= grain || in_parallel_region) return false;
  const int size = pool_size.load(std::memory_order_relaxed);
  return (size == 0 ? ResolvePoolSize() : size) > 1;
}

/// Pool dispatch behind ShouldParallelize; `fn` only borrows the caller's
/// functor for the duration of the (blocking) call.
void ParallelForImpl(int64_t begin, int64_t end, int64_t grain,
                     const RangeFn& fn);

}  // namespace detail

/// Runs fn over [begin, end) in contiguous chunks of at least `grain`
/// indices. Runs inline — with no type erasure or allocation — when the
/// range is empty, fits in one grain, the pool has a single thread, or the
/// caller is already inside a parallel region (nested parallelism degrades
/// to serial). Exceptions thrown by fn are rethrown on the calling thread.
template <typename Fn>
void ParallelFor(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  if (!detail::ShouldParallelize(end - begin, grain)) {
    fn(begin, end);
    return;
  }
  detail::ParallelForImpl(begin, end, grain,
                          RangeFn(std::ref(fn)));  // no functor copy
}

}  // namespace runtime
}  // namespace stwa

#endif  // STWA_RUNTIME_PARALLEL_H_
