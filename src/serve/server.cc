#include "serve/server.h"

#include <cstring>
#include <optional>
#include <string>

#include "common/check.h"
#include "runtime/parallel.h"

namespace stwa {
namespace serve {
namespace {

double MicrosBetween(std::chrono::steady_clock::time_point a,
                     std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

void ServerStats::Merge(const ServerStats& other) {
  const double batch_requests =
      mean_batch * static_cast<double>(batches) +
      other.mean_batch * static_cast<double>(other.batches);
  submitted += other.submitted;
  completed += other.completed;
  shed += other.shed;
  non_finite += other.non_finite;
  batches += other.batches;
  protocol_errors += other.protocol_errors;
  mean_batch =
      batches > 0 ? batch_requests / static_cast<double>(batches) : 0.0;
  latency.Merge(other.latency);
  queue_wait.Merge(other.queue_wait);
  per_worker.Merge(other.per_worker);
  stream_cache.Merge(other.stream_cache);
}

Server::Server(const std::string& checkpoint_path, ServerOptions options)
    : options_(options), queue_(options.batching) {
  STWA_CHECK(options_.workers >= 1, "need at least one worker");
  for (int i = 0; i < options_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->session = InferenceSession::Open(checkpoint_path,
                                             options_.session);
    workers_.push_back(std::move(worker));
  }
  Start(options_.workers);
}

Server::Server(const std::string& checkpoint_path,
               const data::TrafficDataset& dataset, ServerOptions options)
    : options_(options), queue_(options.batching) {
  STWA_CHECK(options_.workers >= 1, "need at least one worker");
  for (int i = 0; i < options_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->session = InferenceSession::Open(checkpoint_path, dataset,
                                             options_.session);
    workers_.push_back(std::move(worker));
  }
  Start(options_.workers);
}

void Server::Start(int workers) {
  // Resolve the memo before any worker can pop a request. The env gate
  // wins over both the options flag and an injected memo, so
  // STWA_NO_STREAM_CACHE=1 disables the whole path even under the fleet.
  if (options_.stream_cache && StreamCacheEnabled()) {
    if (options_.cache) {
      cache_ = options_.cache;
    } else {
      cache_ = std::make_shared<StreamCache>(options_.generation);
      cache_owner_ = true;
    }
  }
  for (int i = 0; i < workers; ++i) {
    Worker& w = *workers_[i];
    w.thread = std::thread([this, &w] { WorkerLoop(w); });
  }
}

Server::~Server() { Stop(); }

void Server::Stop() {
  if (stopped_) return;
  stopped_ = true;
  queue_.Shutdown();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

std::future<Response> Server::Submit(Tensor window) {
  return Submit(std::move(window), options_.default_deadline);
}

std::future<Response> Server::Submit(
    Tensor window, std::chrono::microseconds deadline_budget) {
  const ServingInfo& inf = info();
  STWA_CHECK(window.rank() == 3 &&
                 window.dim(0) == inf.num_sensors &&
                 window.dim(1) == inf.settings.history &&
                 window.dim(2) == inf.num_features,
             "Submit expects a raw window [", inf.num_sensors, ", ",
             inf.settings.history, ", ", inf.num_features, "], got ",
             ShapeToString(window.shape()));
  return queue_.Submit(std::move(window), deadline_budget);
}

std::future<Response> Server::Submit(Tensor window, int64_t stream_id,
                                     int64_t anchor) {
  const ServingInfo& inf = info();
  STWA_CHECK(window.rank() == 3 &&
                 window.dim(0) == inf.num_sensors &&
                 window.dim(1) == inf.settings.history &&
                 window.dim(2) == inf.num_features,
             "Submit expects a raw window [", inf.num_sensors, ", ",
             inf.settings.history, ", ", inf.num_features, "], got ",
             ShapeToString(window.shape()));
  STWA_CHECK(stream_id >= 0, "stream ids are non-negative, got ",
             stream_id);
  return queue_.Submit(std::move(window), stream_id, anchor,
                       options_.default_deadline);
}

const ServingInfo& Server::info() const {
  return workers_.front()->session->info();
}

void Server::WorkerLoop(Worker& worker) {
  // Fleet shard workers keep their kernels serial: the process-level
  // parallelism is across shards/requests, not inside one small forward.
  std::optional<runtime::ScopedSerialRegion> serial;
  if (options_.serial_kernels) serial.emplace();
  const ServingInfo& inf = worker.session->info();
  const int64_t sample = inf.num_sensors * inf.settings.history *
                         inf.num_features;
  const int64_t out_sample = inf.num_sensors * inf.settings.horizon *
                             inf.num_features;
  const Shape out_shape{inf.num_sensors, inf.settings.horizon,
                        inf.num_features};
  // Staging batch reused across iterations per batch size (pooled buffer;
  // re-allocated only when the batch size changes or the previous buffer
  // is still referenced by an in-flight tensor).
  Tensor staging;
  // Per-batch scratch, reused: each request's answer, and the positions
  // that need the model.
  std::vector<Tensor> answers;
  std::vector<int64_t> misses;
  auto memo = [&](const Request& r) {
    return cache_ != nullptr && r.stream_id >= 0;
  };
  for (;;) {
    std::vector<Request> batch = queue_.NextBatch();
    if (batch.empty()) return;  // shutdown + drained
    const auto exec_start = std::chrono::steady_clock::now();
    const int64_t b = static_cast<int64_t>(batch.size());
    // Repeat stream windows are answered from the memo, whatever batch
    // they ride in; only the rest is stacked into the forward.
    answers.assign(static_cast<size_t>(b), Tensor());
    misses.clear();
    for (int64_t i = 0; i < b; ++i) {
      const Request& r = batch[i];
      if (!memo(r) ||
          !worker.session->LookupMemo(r.window, r.stream_id, r.anchor,
                                      cache_.get(), options_.generation,
                                      &answers[i])) {
        misses.push_back(i);
      }
    }

    std::string failure;
    const int64_t m = static_cast<int64_t>(misses.size());
    if (m > 0) {
      const Shape batch_shape{m, inf.num_sensors, inf.settings.history,
                              inf.num_features};
      if (staging.shape() != batch_shape || staging.use_count() > 1) {
        staging = Tensor::Uninit(batch_shape);
      }
      for (int64_t k = 0; k < m; ++k) {
        std::memcpy(staging.data() + k * sample,
                    batch[misses[k]].window.data(),
                    sizeof(float) * static_cast<size_t>(sample));
      }
      try {
        const Tensor out = worker.session->Forecast(staging);  // [M,N,U,F]
        for (int64_t k = 0; k < m; ++k) {
          Tensor forecast = Tensor::Uninit(out_shape);
          std::memcpy(forecast.data(), out.data() + k * out_sample,
                      sizeof(float) * static_cast<size_t>(out_sample));
          const Request& r = batch[misses[k]];
          if (memo(r)) {
            worker.session->StoreMemo(r.window, forecast, r.stream_id,
                                      r.anchor, cache_.get(),
                                      options_.generation);
          }
          answers[misses[k]] = std::move(forecast);
        }
      } catch (const std::exception& e) {
        failure = e.what();
        for (int64_t k = 0; k < m; ++k) {
          if (memo(batch[misses[k]])) cache_->CountBypass();
        }
      }
    }
    const auto exec_end = std::chrono::steady_clock::now();
    const double compute_micros = MicrosBetween(exec_start, exec_end);

    for (int64_t i = 0; i < b; ++i) {
      Response resp;
      Tensor& answer = answers[i];
      if (answer.empty()) {
        resp.error = failure;
      } else if (!AllFinite(answer)) {
        resp.degraded = true;
        resp.error = "non_finite_output";
      } else {
        resp.ok = true;
        resp.forecast = std::move(answer);
      }
      resp.queue_micros = MicrosBetween(batch[i].enqueue_time, exec_start);
      resp.compute_micros = compute_micros;
      resp.batch_size = b;
      const double total =
          MicrosBetween(batch[i].enqueue_time, exec_end);
      // Stats before the promise: a caller woken by the future must see
      // its own request already counted in Stats().
      {
        std::lock_guard<std::mutex> lock(worker.stats_mutex);
        worker.queue_wait.Record(resp.queue_micros);
        if (resp.ok) {
          worker.latency.Record(total);
          ++worker.completed;
        } else if (resp.degraded) {
          ++worker.non_finite;
        }
      }
      batch[i].promise.set_value(std::move(resp));
    }
    {
      std::lock_guard<std::mutex> lock(worker.stats_mutex);
      ++worker.batches;
      worker.batch_requests += b;
    }
  }
}

ServerStats Server::Stats() const {
  ServerStats stats;
  stats.submitted = queue_.submitted();
  stats.shed = queue_.shed();
  for (size_t i = 0; i < workers_.size(); ++i) {
    const auto& worker = workers_[i];
    std::lock_guard<std::mutex> lock(worker->stats_mutex);
    stats.completed += worker->completed;
    stats.non_finite += worker->non_finite;
    stats.batches += worker->batches;
    stats.mean_batch += static_cast<double>(worker->batch_requests);
    stats.latency.Merge(worker->latency);
    stats.queue_wait.Merge(worker->queue_wait);
    stats.per_worker.Get("w" + std::to_string(i)).Merge(worker->latency);
  }
  stats.mean_batch =
      stats.batches > 0 ? stats.mean_batch / static_cast<double>(
                                                 stats.batches)
                        : 0.0;
  // Only the memo's owner folds its counters — a fleet profile shares
  // one memo across shards and folds it exactly once at profile level.
  if (cache_owner_ && cache_) stats.stream_cache = cache_->Stats();
  return stats;
}

}  // namespace serve
}  // namespace stwa
