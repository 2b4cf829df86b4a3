#include "runtime/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/string_util.h"

namespace stwa {
namespace runtime {
namespace {

/// One parallel region: a chunk body plus claim/done counters. Held by
/// shared_ptr so a worker that wakes late can still touch a drained job
/// safely (it finds the claim counter exhausted and goes back to sleep).
struct Job {
  std::function<void(int64_t)> fn;
  int64_t total = 0;
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> done{0};
  std::mutex error_mutex;
  std::exception_ptr error;
};

/// Persistent worker pool. Run() publishes one Job; workers and the
/// calling thread claim chunk indices from the job's atomic counter until
/// it drains.
class ThreadPool {
 public:
  explicit ThreadPool(int threads) : target_threads_(std::max(1, threads)) {
    for (int i = 0; i < target_threads_ - 1; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    job_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  int size() const { return target_threads_; }

  /// Runs `fn(chunk)` for every chunk in [0, num_chunks); blocks until all
  /// chunks finish. The calling thread participates.
  void Run(int64_t num_chunks, std::function<void(int64_t)> fn) {
    // One region at a time: concurrent Run() callers queue up here.
    std::lock_guard<std::mutex> run_lock(run_mutex_);
    auto job = std::make_shared<Job>();
    job->fn = std::move(fn);
    job->total = num_chunks;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      current_job_ = job;
      ++job_generation_;
    }
    job_cv_.notify_all();
    Drain(*job);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [&] {
        return job->done.load(std::memory_order_acquire) == job->total;
      });
      current_job_.reset();
    }
    if (job->error) std::rethrow_exception(job->error);
  }

 private:
  void Drain(Job& job) {
    detail::in_parallel_region = true;
    for (;;) {
      const int64_t chunk = job.next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= job.total) break;
      try {
        job.fn(chunk);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.error) job.error = std::current_exception();
      }
      if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          job.total) {
        // All chunks finished; wake the thread blocked in Run(). The lock
        // orders the notify against the predicate re-check.
        std::lock_guard<std::mutex> lock(mutex_);
        done_cv_.notify_all();
      }
    }
    detail::in_parallel_region = false;
  }

  void WorkerLoop() {
    uint64_t seen_generation = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        job_cv_.wait(lock, [&] {
          return shutdown_ || job_generation_ != seen_generation;
        });
        if (shutdown_) return;
        seen_generation = job_generation_;
        job = current_job_;
      }
      if (job) Drain(*job);
    }
  }

  const int target_threads_;
  std::vector<std::thread> workers_;
  std::mutex run_mutex_;

  std::mutex mutex_;
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  bool shutdown_ = false;
  uint64_t job_generation_ = 0;
  std::shared_ptr<Job> current_job_;
};

std::mutex g_pool_mutex;
std::shared_ptr<ThreadPool> g_pool;  // guarded by g_pool_mutex

std::shared_ptr<ThreadPool> Pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) {
    g_pool = std::make_shared<ThreadPool>(DefaultNumThreads());
    detail::pool_size.store(g_pool->size(), std::memory_order_relaxed);
  }
  return g_pool;
}

}  // namespace

namespace detail {

std::atomic<int> pool_size{0};
thread_local bool in_parallel_region = false;

int ResolvePoolSize() { return Pool()->size(); }

}  // namespace detail

int DefaultNumThreads() {
  const int64_t env = GetEnvIntOr("STWA_NUM_THREADS", 0);
  if (env >= 1) return static_cast<int>(env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int NumThreads() { return Pool()->size(); }

void SetNumThreads(int n) {
  STWA_CHECK(!detail::in_parallel_region,
             "SetNumThreads inside a parallel region");
  const int threads = n < 1 ? DefaultNumThreads() : n;
  std::shared_ptr<ThreadPool> old;
  {
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (g_pool && g_pool->size() == threads) return;
    old = std::move(g_pool);  // destroyed (workers joined) outside the lock
    g_pool = std::make_shared<ThreadPool>(threads);
    detail::pool_size.store(threads, std::memory_order_relaxed);
  }
}

bool InParallelRegion() { return detail::in_parallel_region; }

ScopedSerialRegion::ScopedSerialRegion() : prev_(detail::in_parallel_region) {
  detail::in_parallel_region = true;
}

ScopedSerialRegion::~ScopedSerialRegion() {
  detail::in_parallel_region = prev_;
}

namespace detail {

void ParallelForImpl(int64_t begin, int64_t end, int64_t grain,
                     const RangeFn& fn) {
  const int64_t range = end - begin;
  std::shared_ptr<ThreadPool> pool = Pool();
  if (pool->size() == 1 || detail::in_parallel_region) {  // pool shrank meanwhile
    fn(begin, end);
    return;
  }
  // At most 4 chunks per thread for load balancing, at least `grain`
  // indices per chunk. Every output index belongs to exactly one chunk and
  // chunk-local iteration order matches the serial loop, so the result is
  // bit-identical to running fn(begin, end) directly.
  const int64_t max_chunks =
      std::min<int64_t>(static_cast<int64_t>(pool->size()) * 4,
                        (range + grain - 1) / grain);
  const int64_t chunk_size = (range + max_chunks - 1) / max_chunks;
  const int64_t num_chunks = (range + chunk_size - 1) / chunk_size;
  pool->Run(num_chunks, [&](int64_t chunk) {
    const int64_t b = begin + chunk * chunk_size;
    const int64_t e = std::min(end, b + chunk_size);
    if (b < e) fn(b, e);
  });
}

}  // namespace detail

}  // namespace runtime
}  // namespace stwa
