// Tests for the serving subsystem: latency histogram, streaming state,
// serving checkpoints, inference sessions, micro-batching determinism and
// overload shedding, and the line protocol.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/no_grad.h"
#include "baselines/registry.h"
#include "common/check.h"
#include "data/traffic_generator.h"
#include "metrics/latency.h"
#include "nn/serialize.h"
#include "serve/batching_queue.h"
#include "serve/checkpoint.h"
#include "serve/inference_session.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/stream_state.h"
#include "simd/lowp.h"
#include "tensor/lowp_cache.h"
#include "tensor/ops.h"

namespace stwa {
namespace serve {
namespace {

std::string TempPath(const std::string& name) { return "/tmp/" + name; }

// ---------------------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogramTest, EmptyReportsZeros) {
  metrics::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.mean_micros(), 0.0);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
}

TEST(LatencyHistogramTest, SingleValueIsExact) {
  metrics::LatencyHistogram h;
  h.Record(500.0);
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.mean_micros(), 500.0);
  // Percentiles clamp to the observed extremes, so a single value is
  // reported exactly at every percentile.
  EXPECT_DOUBLE_EQ(h.p50(), 500.0);
  EXPECT_DOUBLE_EQ(h.p99(), 500.0);
}

TEST(LatencyHistogramTest, PercentilesOrderedAndBounded) {
  metrics::LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000);
  EXPECT_NEAR(h.mean_micros(), 500.5, 1e-9);
  const double p50 = h.p50(), p95 = h.p95(), p99 = h.p99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Log-bucketing bounds the relative error by one bucket (~9%).
  EXPECT_NEAR(p50, 500.0, 500.0 * 0.10);
  EXPECT_NEAR(p95, 950.0, 950.0 * 0.10);
  EXPECT_NEAR(p99, 990.0, 990.0 * 0.10);
  EXPECT_GE(p50, h.min_micros());
  EXPECT_LE(p99, h.max_micros());
}

TEST(LatencyHistogramTest, MergeMatchesCombinedRecording) {
  metrics::LatencyHistogram a, b, both;
  for (int i = 1; i <= 100; ++i) {
    a.Record(static_cast<double>(i));
    both.Record(static_cast<double>(i));
  }
  for (int i = 1000; i <= 1100; ++i) {
    b.Record(static_cast<double>(i));
    both.Record(static_cast<double>(i));
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.mean_micros(), both.mean_micros());
  EXPECT_DOUBLE_EQ(a.min_micros(), both.min_micros());
  EXPECT_DOUBLE_EQ(a.max_micros(), both.max_micros());
  EXPECT_DOUBLE_EQ(a.p95(), both.p95());
}

TEST(LatencyHistogramTest, OutOfRangeValuesClampInsteadOfCrashing) {
  metrics::LatencyHistogram h;
  h.Record(-5.0);
  h.Record(0.0);
  h.Record(1e12);  // far past the last bucket
  EXPECT_EQ(h.count(), 3);
  EXPECT_GT(h.p99(), 0.0);
}

// ---------------------------------------------------------------------------
// StreamState

TEST(StreamStateTest, WarmupProgressAndReady) {
  StreamState state(/*num_sensors=*/2, /*history=*/3);
  EXPECT_FALSE(state.ready());
  EXPECT_EQ(state.min_filled(), 0);
  state.Push({1.0f, 10.0f});
  state.Push({2.0f, 20.0f});
  EXPECT_FALSE(state.ready());
  EXPECT_EQ(state.min_filled(), 2);
  state.Push({3.0f, 30.0f});
  EXPECT_TRUE(state.ready());
  EXPECT_EQ(state.seen(0), 3);
}

TEST(StreamStateTest, WindowIsOldestFirstAndSlides) {
  StreamState state(/*num_sensors=*/1, /*history=*/3);
  for (float v : {1.0f, 2.0f, 3.0f, 4.0f, 5.0f}) state.Push({v});
  Tensor w = state.Window();
  ASSERT_EQ(w.shape(), (Shape{1, 1, 3, 1}));
  // Last 3 observations, oldest first: 3, 4, 5.
  EXPECT_FLOAT_EQ(w.data()[0], 3.0f);
  EXPECT_FLOAT_EQ(w.data()[1], 4.0f);
  EXPECT_FLOAT_EQ(w.data()[2], 5.0f);
}

TEST(StreamStateTest, SensorsUpdateIndependently) {
  StreamState state(/*num_sensors=*/2, /*history=*/2);
  const float a0 = 1.0f, a1 = 2.0f;
  state.PushSensor(0, &a0);
  state.PushSensor(0, &a1);
  EXPECT_FALSE(state.ready());  // sensor 1 still empty
  EXPECT_EQ(state.min_filled(), 0);
  const float b0 = 10.0f, b1 = 20.0f;
  state.PushSensor(1, &b0);
  state.PushSensor(1, &b1);
  EXPECT_TRUE(state.ready());
  Tensor w = state.Window();
  EXPECT_FLOAT_EQ(w.data()[0], 1.0f);
  EXPECT_FLOAT_EQ(w.data()[1], 2.0f);
  EXPECT_FLOAT_EQ(w.data()[2], 10.0f);
  EXPECT_FLOAT_EQ(w.data()[3], 20.0f);
}

TEST(StreamStateTest, WindowIntoReusesBuffer) {
  StreamState state(/*num_sensors=*/1, /*history=*/2);
  state.Push({1.0f});
  state.Push({2.0f});
  Tensor out;
  state.WindowInto(&out);
  const float* first = out.data();
  state.Push({3.0f});
  state.WindowInto(&out);
  EXPECT_EQ(out.data(), first);  // same allocation, new contents
  EXPECT_FLOAT_EQ(out.data()[0], 2.0f);
  EXPECT_FLOAT_EQ(out.data()[1], 3.0f);
}

// ---------------------------------------------------------------------------
// Serving checkpoints + InferenceSession

struct Fixture {
  data::TrafficDataset dataset;
  baselines::ModelSettings settings;
  std::unique_ptr<train::ForecastModel> model;
  ServingInfo info;
  std::string path;
};

Fixture MakeFixture(const std::string& file) {
  Fixture f;
  data::GeneratorOptions gen;
  gen.num_roads = 2;
  gen.sensors_per_road = 2;
  gen.num_days = 2;
  gen.steps_per_day = 48;
  gen.seed = 7;
  f.dataset = data::GenerateTraffic(gen);
  f.settings.history = 12;
  f.settings.horizon = 3;
  f.settings.d_model = 8;
  f.settings.window_sizes = {3, 2, 2};
  f.settings.latent_dim = 4;
  f.settings.predictor_hidden = 16;
  f.model = baselines::MakeModel("ST-WA", f.dataset, f.settings);
  f.info.model = "ST-WA";
  f.info.settings = f.settings;
  f.info.num_sensors = f.dataset.num_sensors();
  f.info.num_features = f.dataset.num_features();
  f.info.scaler_mean = 200.0f;
  f.info.scaler_std = 55.0f;
  f.path = TempPath(file);
  SaveServingCheckpoint(*f.model, f.info, f.path);
  return f;
}

TEST(ServingCheckpointTest, InfoRoundTrips) {
  Fixture f = MakeFixture("stwa_serve_info.bin");
  ServingInfo got = ReadServingInfo(f.path);
  EXPECT_EQ(got.model, "ST-WA");
  EXPECT_EQ(got.num_sensors, f.info.num_sensors);
  EXPECT_EQ(got.num_features, f.info.num_features);
  EXPECT_EQ(got.settings.history, f.settings.history);
  EXPECT_EQ(got.settings.horizon, f.settings.horizon);
  EXPECT_EQ(got.settings.d_model, f.settings.d_model);
  EXPECT_EQ(got.settings.window_sizes, f.settings.window_sizes);
  EXPECT_EQ(got.settings.latent_dim, f.settings.latent_dim);
  // Scaler statistics must round-trip bit-exactly (%.9g formatting).
  EXPECT_EQ(got.scaler_mean, f.info.scaler_mean);
  EXPECT_EQ(got.scaler_std, f.info.scaler_std);
  std::remove(f.path.c_str());
}

TEST(ServingCheckpointTest, PlainParameterCheckpointRejected) {
  Fixture f = MakeFixture("stwa_serve_plain.bin");
  // Re-save without serving metadata.
  nn::SaveParameters(*f.model, f.path);
  EXPECT_THROW(ReadServingInfo(f.path), Error);
  EXPECT_THROW(InferenceSession::Open(f.path), Error);
  std::remove(f.path.c_str());
}

TEST(InferenceSessionTest, ForecastMatchesManualPipelineBitExactly) {
  Fixture f = MakeFixture("stwa_serve_manual.bin");
  auto session = InferenceSession::Open(f.path);
  Tensor window =
      ops::Slice(f.dataset.values, 1, 5, f.settings.history);  // [N, H, F]
  Tensor got = session->Forecast(window);
  ASSERT_EQ(got.shape(),
            (Shape{f.info.num_sensors, f.settings.horizon, 1}));

  // Reference: the original (saved) model driven by hand through the same
  // scaler math the trainer uses.
  data::StandardScaler scaler(f.info.scaler_mean, f.info.scaler_std);
  Tensor x = scaler.Transform(window).Reshape(
      {1, f.info.num_sensors, f.settings.history, 1});
  ag::NoGradMode no_grad;
  Tensor y = f.model->Forward(x, /*training=*/false).value();
  Tensor want = scaler.InverseTransform(y).Reshape(
      {f.info.num_sensors, f.settings.horizon, 1});
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(want.size())),
            0);
  std::remove(f.path.c_str());
}

TEST(InferenceSessionTest, BatchedForecastIsBitIdenticalPerSample) {
  Fixture f = MakeFixture("stwa_serve_batch.bin");
  auto session = InferenceSession::Open(f.path);
  const int64_t n = f.info.num_sensors, h = f.settings.history;
  Tensor w0 = ops::Slice(f.dataset.values, 1, 0, h);
  Tensor w1 = ops::Slice(f.dataset.values, 1, 9, h);
  Tensor single0 = session->Forecast(w0);
  Tensor single1 = session->Forecast(w1);

  Tensor batch = Tensor::Uninit({2, n, h, 1});
  std::memcpy(batch.data(), w0.data(),
              sizeof(float) * static_cast<size_t>(w0.size()));
  std::memcpy(batch.data() + w0.size(), w1.data(),
              sizeof(float) * static_cast<size_t>(w1.size()));
  Tensor both = session->Forecast(batch);
  ASSERT_EQ(both.dim(0), 2);
  const int64_t per = single0.size();
  EXPECT_EQ(std::memcmp(both.data(), single0.data(),
                        sizeof(float) * static_cast<size_t>(per)),
            0);
  EXPECT_EQ(std::memcmp(both.data() + per, single1.data(),
                        sizeof(float) * static_cast<size_t>(per)),
            0);
  std::remove(f.path.c_str());
}

TEST(InferenceSessionTest, TwoSessionsAgreeBitExactly) {
  Fixture f = MakeFixture("stwa_serve_two.bin");
  auto s1 = InferenceSession::Open(f.path);
  auto s2 = InferenceSession::Open(f.path);
  Tensor window = ops::Slice(f.dataset.values, 1, 3, f.settings.history);
  Tensor a = s1->Forecast(window);
  Tensor b = s2->Forecast(window);
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<size_t>(a.size())),
            0);
  std::remove(f.path.c_str());
}

// ---------------------------------------------------------------------------
// Reduced-precision sessions

TEST(PrecisionSessionTest, TiersAreDeterministicAndCloseToFp32) {
  Fixture f = MakeFixture("stwa_serve_prec.bin");
  Tensor window = ops::Slice(f.dataset.values, 1, 4, f.settings.history);
  SessionConfig fp32_cfg;
  fp32_cfg.precision = simd::Precision::kFp32;
  Tensor baseline = InferenceSession::Open(f.path, fp32_cfg)->Forecast(window);

  for (const simd::Precision tier :
       {simd::Precision::kBf16, simd::Precision::kInt8}) {
    SessionConfig cfg;
    cfg.precision = tier;
    const int64_t active_before = lowp::ActiveCount();
    Tensor a, b;
    {
      auto s1 = InferenceSession::Open(f.path, cfg);
      EXPECT_EQ(s1->precision(), tier);
      EXPECT_GT(lowp::ActiveCount(), active_before)
          << "session did not register any reduced-precision packs";
      auto s2 = InferenceSession::Open(f.path, cfg);
      a = s1->Forecast(window);
      b = s2->Forecast(window);
    }
    EXPECT_EQ(lowp::ActiveCount(), active_before)
        << "session destructor leaked packs for "
        << simd::PrecisionName(tier);
    // Two sessions of the same tier are bit-identical.
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          sizeof(float) * static_cast<size_t>(a.size())),
              0)
        << simd::PrecisionName(tier);
    // And close to fp32: a tiny (scaled-down) model, so loose bounds.
    EXPECT_TRUE(ops::AllClose(a, baseline, 0.05f, 1.0f))
        << simd::PrecisionName(tier);
  }
  std::remove(f.path.c_str());
}

TEST(PrecisionSessionTest, V2CheckpointWithoutScalesServesIdentically) {
  // A v2-era serving checkpoint predates baked int8 scales. An int8
  // session must recompute them from the fp32 weights and serve
  // bit-identically to a session on the v3 file (the baked scales are
  // the same Int8ChannelScales formula, %.9g round-tripped).
  Fixture f = MakeFixture("stwa_serve_prec_v2.bin");
  ServingInfo v3_info = ReadServingInfo(f.path);
  EXPECT_FALSE(v3_info.int8_scales.empty())
      << "v3 serving checkpoints should bake int8 scales";

  const std::string v2_path = TempPath("stwa_serve_prec_v2_old.bin");
  // MakeServingMeta carries everything *except* the scale entries, which
  // SaveServingCheckpoint adds on top — exactly a v2 writer's output.
  nn::SaveParameters(*f.model, v2_path, MakeServingMeta(f.info));
  {
    std::fstream patch(v2_path,
                       std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(patch.good());
    const uint32_t v2 = 2;
    patch.seekp(4);  // version word sits after the u32 magic
    patch.write(reinterpret_cast<const char*>(&v2), sizeof(v2));
  }
  ServingInfo v2_info = ReadServingInfo(v2_path);
  EXPECT_TRUE(v2_info.int8_scales.empty());
  EXPECT_EQ(v2_info.model, "ST-WA");

  SessionConfig cfg;
  cfg.precision = simd::Precision::kInt8;
  Tensor window = ops::Slice(f.dataset.values, 1, 2, f.settings.history);
  Tensor from_v3 = InferenceSession::Open(f.path, cfg)->Forecast(window);
  Tensor from_v2 = InferenceSession::Open(v2_path, cfg)->Forecast(window);
  EXPECT_EQ(
      std::memcmp(from_v3.data(), from_v2.data(),
                  sizeof(float) * static_cast<size_t>(from_v3.size())),
      0)
      << "recomputed scales must match baked scales bit-for-bit";
  std::remove(f.path.c_str());
  std::remove(v2_path.c_str());
}

TEST(PrecisionSessionTest, ServerHonoursSessionPrecision) {
  Fixture f = MakeFixture("stwa_serve_prec_srv.bin");
  Tensor window = ops::Slice(f.dataset.values, 1, 0, f.settings.history);
  SessionConfig cfg;
  cfg.precision = simd::Precision::kBf16;
  Tensor want = InferenceSession::Open(f.path, cfg)->Forecast(window);

  ServerOptions opts;
  opts.workers = 2;
  opts.batching.max_batch = 4;
  opts.session = cfg;
  Server server(f.path, opts);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(server.Submit(window));
  for (auto& fut : futures) {
    Response r = fut.get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(
        std::memcmp(r.forecast.data(), want.data(),
                    sizeof(float) * static_cast<size_t>(want.size())),
        0)
        << "server bf16 output must match an offline bf16 session";
  }
  std::remove(f.path.c_str());
}

// ---------------------------------------------------------------------------
// BatchingQueue

TEST(BatchingQueueTest, CoalescesUpToMaxBatch) {
  BatchingOptions opts;
  opts.max_batch = 3;
  BatchingQueue queue(opts);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(queue.Submit(Tensor(Shape{1, 1, 1}),
                                   std::chrono::microseconds(60'000'000)));
  }
  std::vector<Request> first = queue.NextBatch();
  EXPECT_EQ(first.size(), 3u);
  // Work-conserving: the 2 leftovers are under max_batch, yet an idle
  // consumer takes them at once instead of waiting for companions.
  std::vector<Request> second = queue.NextBatch();
  EXPECT_EQ(second.size(), 2u);
  EXPECT_EQ(queue.queue_depth(), 0);
  for (auto& r : first) r.promise.set_value(Response{});
  for (auto& r : second) r.promise.set_value(Response{});
  queue.Shutdown();
}

TEST(BatchingQueueTest, HeldQueueReleasesNothingUntilShutdown) {
  struct HoldGuard {
    HoldGuard() { internal::HoldBatchesForTest(true); }
    ~HoldGuard() { internal::HoldBatchesForTest(false); }
  } hold;
  BatchingQueue queue(BatchingOptions{});
  auto fut = queue.Submit(Tensor(Shape{1, 1, 1}),
                          std::chrono::microseconds(60'000'000));
  std::future<std::vector<Request>> taken = std::async(
      std::launch::async, [&queue] { return queue.NextBatch(); });
  EXPECT_EQ(taken.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);
  EXPECT_EQ(queue.queue_depth(), 1);
  queue.Shutdown();  // the drain ignores the hold
  std::vector<Request> batch = taken.get();
  ASSERT_EQ(batch.size(), 1u);
  batch[0].promise.set_value(Response{});
  EXPECT_EQ(queue.shed(), 0);
}

TEST(BatchingQueueTest, ShedsOnCapacityOverflow) {
  BatchingOptions opts;
  opts.max_batch = 8;
  opts.capacity = 2;
  BatchingQueue queue(opts);
  auto f1 = queue.Submit(Tensor(Shape{1, 1, 1}),
                         std::chrono::microseconds(1'000'000));
  auto f2 = queue.Submit(Tensor(Shape{1, 1, 1}),
                         std::chrono::microseconds(1'000'000));
  auto f3 = queue.Submit(Tensor(Shape{1, 1, 1}),
                         std::chrono::microseconds(1'000'000));
  Response shed = f3.get();  // resolved immediately, no consumer needed
  EXPECT_FALSE(shed.ok);
  EXPECT_TRUE(shed.degraded);
  EXPECT_NE(shed.error.find("queue full"), std::string::npos);
  EXPECT_EQ(queue.shed(), 1);
  EXPECT_EQ(queue.queue_depth(), 2);
  queue.Shutdown();
  // Drain so the two queued promises resolve.
  std::vector<Request> rest = queue.NextBatch();
  for (auto& r : rest) r.promise.set_value(Response{});
  (void)f1;
  (void)f2;
}

TEST(BatchingQueueTest, ShedsExpiredRequestsAsDegraded) {
  BatchingOptions opts;
  opts.max_batch = 8;
  BatchingQueue queue(opts);
  // A zero budget has expired by the time any consumer looks.
  auto f = queue.Submit(Tensor(Shape{1, 1, 1}), std::chrono::microseconds(0));
  queue.Shutdown();  // so NextBatch returns once the queue is drained
  std::vector<Request> batch = queue.NextBatch();  // finds it expired
  EXPECT_TRUE(batch.empty());
  Response r = f.get();
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.degraded);
  EXPECT_NE(r.error.find("deadline"), std::string::npos);
  EXPECT_EQ(queue.shed(), 1);
}

TEST(BatchingQueueTest, SubmitAfterShutdownIsShed) {
  BatchingQueue queue(BatchingOptions{});
  queue.Shutdown();
  Response r = queue.Submit(Tensor(Shape{1, 1, 1}),
                            std::chrono::microseconds(1000))
                   .get();
  EXPECT_FALSE(r.ok);
}

// ---------------------------------------------------------------------------
// Server: batching determinism and overload behaviour

TEST(ServerTest, ForecastsBitIdenticalAcrossWorkerAndBatchConfigs) {
  Fixture f = MakeFixture("stwa_serve_server.bin");
  const int64_t h = f.settings.history;
  std::vector<Tensor> windows;
  for (int64_t t = 0; t < 6; ++t) {
    windows.push_back(ops::Slice(f.dataset.values, 1, t * 3, h));
  }
  auto offline = InferenceSession::Open(f.path);
  std::vector<Tensor> expected;
  for (const Tensor& w : windows) expected.push_back(offline->Forecast(w));

  struct Config {
    int workers;
    int64_t max_batch;
  };
  for (const Config& c : {Config{1, 1}, Config{2, 4}, Config{3, 8}}) {
    ServerOptions opts;
    opts.workers = c.workers;
    opts.batching.max_batch = c.max_batch;
    opts.default_deadline = std::chrono::seconds(60);
    Server server(f.path, opts);
    std::vector<std::future<Response>> futures;
    for (int round = 0; round < 3; ++round) {
      for (const Tensor& w : windows) futures.push_back(server.Submit(w));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      Response r = futures[i].get();
      ASSERT_TRUE(r.ok) << "workers=" << c.workers
                        << " max_batch=" << c.max_batch << ": " << r.error;
      EXPECT_FALSE(r.degraded);
      const Tensor& want = expected[i % windows.size()];
      ASSERT_EQ(r.forecast.shape(), want.shape());
      EXPECT_EQ(
          std::memcmp(r.forecast.data(), want.data(),
                      sizeof(float) * static_cast<size_t>(want.size())),
          0)
          << "workers=" << c.workers << " max_batch=" << c.max_batch
          << " request " << i;
    }
    ServerStats stats = server.Stats();
    EXPECT_EQ(stats.completed, static_cast<int64_t>(futures.size()));
    EXPECT_EQ(stats.shed, 0);
    EXPECT_EQ(stats.latency.count(), stats.completed);
    EXPECT_EQ(stats.queue_wait.count(), stats.completed);
    EXPECT_EQ(stats.non_finite, 0);
  }
  std::remove(f.path.c_str());
}

TEST(ServerTest, ImpossibleDeadlinesAreShedWithDegradedFlag) {
  Fixture f = MakeFixture("stwa_serve_overload.bin");
  ServerOptions opts;
  opts.workers = 1;
  opts.batching.max_batch = 1;
  Server server(f.path, opts);
  Tensor window = ops::Slice(f.dataset.values, 1, 0, f.settings.history);
  std::vector<std::future<Response>> futures;
  // A zero budget has expired before any worker can take the request.
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.Submit(window, std::chrono::microseconds(0)));
  }
  for (auto& fut : futures) {
    Response r = fut.get();
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.degraded);
    EXPECT_NE(r.error.find("deadline"), std::string::npos) << r.error;
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.shed, 8);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.queue_wait.count(), 0);
  std::remove(f.path.c_str());
}

TEST(ServerTest, RejectsWrongWindowShape) {
  Fixture f = MakeFixture("stwa_serve_shape.bin");
  ServerOptions opts;
  Server server(f.path, opts);
  EXPECT_THROW(server.Submit(Tensor(Shape{1, 2, 3})), Error);
  std::remove(f.path.c_str());
}

// ---------------------------------------------------------------------------
// Protocol

TEST(ProtocolTest, ParsesObservations) {
  Command c = ParseCommand("obs 1.5 2 3");
  EXPECT_EQ(c.kind, Command::Kind::kObs);
  ASSERT_EQ(c.values.size(), 3u);
  EXPECT_FLOAT_EQ(c.values[0], 1.5f);

  Command s = ParseCommand("obs1 2 7.25");
  EXPECT_EQ(s.kind, Command::Kind::kObsSensor);
  EXPECT_EQ(s.sensor, 2);
  ASSERT_EQ(s.values.size(), 1u);
  EXPECT_FLOAT_EQ(s.values[0], 7.25f);
}

TEST(ProtocolTest, RejectsNonFiniteValues) {
  // nan/inf spellings and overflow (strtof turns 1e39 into inf) never
  // reach a stream; every such line parses as an error.
  for (const char* line : {"obs 1 nan 3", "obs NaN", "obs 1 inf", "obs -INF",
                           "obs 1e39 2", "obs1 0 nan", "obs1 0 -1e39",
                           "obs1 1 infinity"}) {
    const Command c = ParseCommand(line);
    EXPECT_EQ(c.kind, Command::Kind::kInvalid) << line;
    EXPECT_FALSE(c.error.empty()) << line;
  }
  // Finite extremes still parse.
  const Command c = ParseCommand("obs 3.4e38 -3.4e38 1e-30 0");
  EXPECT_EQ(c.kind, Command::Kind::kObs);
}

TEST(ProtocolTest, ParsesControlAndSkipsCommentsAndBlanks) {
  EXPECT_EQ(ParseCommand("forecast").kind, Command::Kind::kForecast);
  EXPECT_EQ(ParseCommand("stats").kind, Command::Kind::kStats);
  EXPECT_EQ(ParseCommand("quit").kind, Command::Kind::kQuit);
  Command blank = ParseCommand("   ");
  EXPECT_EQ(blank.kind, Command::Kind::kInvalid);
  EXPECT_TRUE(blank.error.empty());
  Command comment = ParseCommand("# hello");
  EXPECT_EQ(comment.kind, Command::Kind::kInvalid);
  EXPECT_TRUE(comment.error.empty());
  Command bad = ParseCommand("obs 1 two 3");
  EXPECT_EQ(bad.kind, Command::Kind::kInvalid);
  EXPECT_FALSE(bad.error.empty());
}

TEST(ProtocolTest, FormatsForecastAndShedResponses) {
  Response ok;
  ok.ok = true;
  ok.forecast = Tensor(Shape{2, 2, 1});
  ok.forecast.data()[0] = 1.0f;
  ok.forecast.data()[3] = 4.5f;
  std::string line = FormatForecastResponse(ok, 2, 2, 1);
  EXPECT_EQ(line.rfind("forecast ok=1 degraded=0 n=2 u=2 ", 0), 0u) << line;
  EXPECT_NE(line.find("4.5"), std::string::npos);

  Response shed;
  shed.degraded = true;
  shed.error = "deadline expired after 10us in queue";
  std::string bad = FormatForecastResponse(shed, 2, 2, 1);
  EXPECT_EQ(bad.rfind("forecast ok=0 degraded=1 err=", 0), 0u) << bad;
  EXPECT_EQ(bad.find(' ', bad.find("err=")), std::string::npos)
      << "shed reason must be one token: " << bad;
}

// ---------------------------------------------------------------------------
// LabeledHistograms

TEST(LabeledHistogramsTest, RecordsPerLabelInFirstUseOrder) {
  metrics::LabeledHistograms h;
  h.Record("cityB", 100.0);
  h.Record("cityA", 200.0);
  h.Record("cityB", 300.0);
  EXPECT_EQ(h.total_count(), 3);
  ASSERT_EQ(h.entries().size(), 2u);
  EXPECT_EQ(h.entries()[0].first, "cityB");
  EXPECT_EQ(h.entries()[1].first, "cityA");
  ASSERT_NE(h.Find("cityB"), nullptr);
  EXPECT_EQ(h.Find("cityB")->count(), 2);
  EXPECT_EQ(h.Find("missing"), nullptr);
}

TEST(LabeledHistogramsTest, MergeCombinesByLabel) {
  metrics::LabeledHistograms a, b;
  a.Record("x", 10.0);
  a.Record("y", 20.0);
  b.Record("y", 30.0);
  b.Record("z", 40.0);
  a.Merge(b);
  EXPECT_EQ(a.total_count(), 4);
  ASSERT_EQ(a.entries().size(), 3u);
  EXPECT_EQ(a.Find("y")->count(), 2);
  EXPECT_DOUBLE_EQ(a.Find("y")->mean_micros(), 25.0);
  EXPECT_EQ(a.Find("z")->count(), 1);
}

// ---------------------------------------------------------------------------
// ServerStats::Merge

TEST(ServerStatsTest, MergeAddsCountersAndReweightsMeanBatch) {
  ServerStats a, b;
  a.submitted = 10;
  a.completed = 8;
  a.shed = 2;
  a.batches = 4;
  a.mean_batch = 2.0;  // 8 requests over 4 batches
  a.protocol_errors = 1;
  a.non_finite = 1;
  a.latency.Record(100.0);
  a.queue_wait.Record(5.0);
  a.per_worker.Record("w0", 100.0);
  b.submitted = 6;
  b.completed = 6;
  b.batches = 2;
  b.mean_batch = 3.0;  // 6 requests over 2 batches
  b.non_finite = 2;
  b.latency.Record(300.0);
  b.queue_wait.Record(7.0);
  b.queue_wait.Record(9.0);
  b.per_worker.Record("w0", 300.0);
  a.Merge(b);
  EXPECT_EQ(a.submitted, 16);
  EXPECT_EQ(a.completed, 14);
  EXPECT_EQ(a.shed, 2);
  EXPECT_EQ(a.batches, 6);
  EXPECT_EQ(a.protocol_errors, 1);
  EXPECT_DOUBLE_EQ(a.mean_batch, 14.0 / 6.0);
  EXPECT_EQ(a.non_finite, 3);
  EXPECT_EQ(a.latency.count(), 2);
  EXPECT_EQ(a.queue_wait.count(), 3);
  EXPECT_EQ(a.per_worker.Find("w0")->count(), 2);
}

// ---------------------------------------------------------------------------
// Protocol hardening: validation and the LineSession error paths

TEST(ProtocolTest, ValidateCommandRejectsBadShapes) {
  Command obs = ParseCommand("obs 1 2 3");
  EXPECT_TRUE(ValidateCommand(obs, /*num_sensors=*/3, /*features=*/1) ==
              std::nullopt);
  auto short_obs = ValidateCommand(obs, /*num_sensors=*/4, /*features=*/1);
  ASSERT_TRUE(short_obs.has_value());
  EXPECT_NE(short_obs->find("4"), std::string::npos);

  Command sensor_oob = ParseCommand("obs1 9 1.0");
  auto oob = ValidateCommand(sensor_oob, /*num_sensors=*/4, /*features=*/1);
  ASSERT_TRUE(oob.has_value());
  EXPECT_NE(oob->find("out of range"), std::string::npos);
  Command sensor_neg = ParseCommand("obs1 -1 1.0");
  EXPECT_TRUE(ValidateCommand(sensor_neg, 4, 1).has_value());

  Command wrong_feat = ParseCommand("obs1 0 1.0 2.0");
  EXPECT_TRUE(ValidateCommand(wrong_feat, 4, 1).has_value());
  EXPECT_TRUE(ValidateCommand(wrong_feat, 4, 2) == std::nullopt);

  // Control commands never fail shape validation.
  EXPECT_TRUE(ValidateCommand(ParseCommand("forecast"), 4, 1) ==
              std::nullopt);
  EXPECT_TRUE(ValidateCommand(ParseCommand("stats"), 4, 1) == std::nullopt);
}

TEST(LineSessionTest, MalformedLinesAreCountedNeverFatal) {
  Fixture f = MakeFixture("stwa_serve_session_err.bin");
  ServerOptions opts;
  Server server(f.path, opts);
  LineSession session(server);
  bool quit = false;

  // Blank lines and comments produce no response and no error count.
  EXPECT_FALSE(session.Handle("", &quit).has_value());
  EXPECT_FALSE(session.Handle("# comment", &quit).has_value());
  EXPECT_EQ(session.protocol_errors(), 0);

  // Each malformed line: an "err ..." response, a bumped counter, and a
  // still-usable session.
  const std::vector<std::string> bad = {
      "obs 1 two 3",        // unparsable value
      "obs 1 2",            // wrong value count (needs N*F = 4)
      "obs1 99 1.0",        // sensor out of range
      "obs1 -1 1.0",        // negative sensor
      "obs1 0 1.0 2.0",     // wrong feature count
      "frobnicate",         // unknown verb
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    auto resp = session.Handle(bad[i], &quit);
    ASSERT_TRUE(resp.has_value()) << bad[i];
    EXPECT_EQ(resp->rfind("err ", 0), 0u) << *resp;
    EXPECT_EQ(session.protocol_errors(), static_cast<int64_t>(i + 1));
  }

  // The stats line reports the count.
  auto stats = session.Handle("stats", &quit);
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->find("protocol_errors=6"), std::string::npos) << *stats;

  // The session still serves: warm it and get a real forecast.
  std::vector<float> obs(static_cast<size_t>(f.info.num_sensors), 1.0f);
  std::string obs_line = "obs";
  for (float v : obs) obs_line += " " + std::to_string(v);
  for (int64_t s = 0; s < f.settings.history; ++s) {
    auto ok = session.Handle(obs_line, &quit);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(*ok, "ok");
  }
  auto forecast = session.Handle("forecast", &quit);
  ASSERT_TRUE(forecast.has_value());
  EXPECT_EQ(forecast->rfind("forecast ok=1", 0), 0u) << *forecast;
  EXPECT_FALSE(quit);
  auto bye = session.Handle("quit", &quit);
  EXPECT_TRUE(quit);
  EXPECT_EQ(*bye, "bye");
  std::remove(f.path.c_str());
}

TEST(LineSessionTest, NonFiniteObservationsLeaveTheStreamUnchanged) {
  Fixture f = MakeFixture("stwa_serve_session_nonfinite.bin");
  Server server(f.path, ServerOptions{});
  LineSession session(server);
  bool quit = false;
  const int64_t n = f.info.num_sensors;
  const int64_t h = f.settings.history;
  const Tensor series = ops::Slice(f.dataset.values, 1, 0, h + 1);
  auto obs_line = [&](int64_t step) {
    std::string line = "obs";
    for (int64_t i = 0; i < n; ++i) {
      line += ' ' + std::to_string(series.data()[i * (h + 1) + step]);
    }
    return line;
  };
  for (int64_t s = 0; s < h; ++s) {
    auto ok = session.Handle(obs_line(s), &quit);
    ASSERT_TRUE(ok.has_value());
    ASSERT_EQ(*ok, "ok");
  }
  auto before = session.Handle("forecast", &quit);
  ASSERT_TRUE(before.has_value());
  ASSERT_EQ(before->rfind("forecast ok=1 degraded=0", 0), 0u) << *before;

  const std::vector<std::string> bad = {
      "obs nan 200 200 200", "obs 200 inf 200 200", "obs 200 200 1e39 200",
      "obs1 0 nan",          "obs1 1 -inf",         "obs1 2 1e39",
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    auto resp = session.Handle(bad[i], &quit);
    ASSERT_TRUE(resp.has_value()) << bad[i];
    EXPECT_EQ(resp->rfind("err ", 0), 0u) << bad[i] << " -> " << *resp;
    EXPECT_EQ(session.protocol_errors(), static_cast<int64_t>(i + 1));
  }
  auto stats = session.Handle("stats", &quit);
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->find("protocol_errors=6"), std::string::npos) << *stats;

  // Nothing reached the stream: the next forecast is the same bytes.
  auto after = session.Handle("forecast", &quit);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*after, *before);
  // A finite observation does move it, so the comparison above can fail.
  ASSERT_EQ(*session.Handle(obs_line(h), &quit), "ok");
  auto moved = session.Handle("forecast", &quit);
  ASSERT_TRUE(moved.has_value());
  EXPECT_NE(*moved, *before);
  std::remove(f.path.c_str());
}

TEST(LineSessionTest, WarmingForecastReportsProgress) {
  Fixture f = MakeFixture("stwa_serve_session_warm.bin");
  Server server(f.path, ServerOptions{});
  LineSession session(server);
  bool quit = false;
  auto resp = session.Handle("forecast", &quit);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->rfind("forecast ok=0 degraded=0 err=warming_up", 0), 0u)
      << *resp;
  // Not a protocol error: the line was well-formed.
  EXPECT_EQ(session.protocol_errors(), 0);
  std::remove(f.path.c_str());
}

TEST(LineSessionTest, NonFiniteOutputIsWithheldCountedAndNeverMemoised) {
  // One NaN weight poisons the forecast: it must come back flagged, not
  // as a plausible line of numbers, and a repeat read must recompute
  // (a withheld answer is never memoised).
  Fixture f = MakeFixture("stwa_serve_session_nanweight.bin");
  Tensor weight = f.model->NamedParameters().back().second.value();
  weight.data()[0] = std::numeric_limits<float>::quiet_NaN();
  SaveServingCheckpoint(*f.model, f.info, f.path);
  Server server(f.path, ServerOptions{});
  LineSession session(server);
  bool quit = false;
  std::string obs_line = "obs";
  for (int64_t i = 0; i < f.info.num_sensors; ++i) obs_line += " 120";
  for (int64_t s = 0; s < f.settings.history; ++s) {
    ASSERT_EQ(*session.Handle(obs_line, &quit), "ok");
  }
  for (int i = 0; i < 2; ++i) {
    auto resp = session.Handle("forecast", &quit);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(*resp, "forecast ok=0 degraded=1 err=non_finite_output");
  }
  auto stats = session.Handle("stats", &quit);
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->find(" non_finite=2 "), std::string::npos) << *stats;
  EXPECT_NE(stats->find(" completed=0 "), std::string::npos) << *stats;
  EXPECT_NE(stats->find(" queue_p50_us="), std::string::npos) << *stats;
  EXPECT_NE(stats->find(" queue_p99_us="), std::string::npos) << *stats;
  const ServerStats st = server.Stats();
  EXPECT_EQ(st.non_finite, 2);
  EXPECT_EQ(st.queue_wait.count(), 2);
  if (server.stream_cache() != nullptr) {
    EXPECT_EQ(st.stream_cache.output_hits, 0);
    EXPECT_EQ(st.stream_cache.bypass, 2);
    EXPECT_EQ(st.stream_cache.entries, 0);
  }
  std::remove(f.path.c_str());
}

// ---------------------------------------------------------------------------
// BatchingQueue: shutdown drains instead of dropping

TEST(BatchingQueueTest, ShutdownDrainsQueuedRequestsBeforeEmpty) {
  BatchingOptions opts;
  opts.max_batch = 4;
  BatchingQueue queue(opts);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(queue.Submit(Tensor(Shape{1, 1, 1}),
                                   std::chrono::microseconds(60'000'000)));
  }
  queue.Shutdown();
  // Every queued request comes out of NextBatch (in batches of <= 4)
  // before the terminal empty vector — the fleet reload's drain contract.
  int64_t drained = 0;
  for (;;) {
    std::vector<Request> batch = queue.NextBatch();
    if (batch.empty()) break;
    EXPECT_LE(batch.size(), 4u);
    drained += static_cast<int64_t>(batch.size());
    for (auto& r : batch) {
      Response resp;
      resp.ok = true;
      r.promise.set_value(std::move(resp));
    }
  }
  EXPECT_EQ(drained, 10);
  EXPECT_EQ(queue.shed(), 0);
  for (auto& fut : futures) EXPECT_TRUE(fut.get().ok);
}

// ---------------------------------------------------------------------------
// Checkpoint provenance

TEST(ServingCheckpointTest, CkptVersionRoundTripsAndDefaultsToOne) {
  Fixture f = MakeFixture("stwa_serve_ckptver.bin");
  // MakeFixture leaves the default (1).
  EXPECT_EQ(ReadServingInfo(f.path).ckpt_version, 1);
  f.info.ckpt_version = 7;
  SaveServingCheckpoint(*f.model, f.info, f.path);
  EXPECT_EQ(ReadServingInfo(f.path).ckpt_version, 7);
  // The format version word is independent of the provenance counter.
  EXPECT_EQ(nn::PeekCheckpointFormatVersion(f.path), 3u);
  std::remove(f.path.c_str());
}

TEST(ServingCheckpointTest, PeekFormatVersionRejectsNonCheckpoints) {
  const std::string path = TempPath("stwa_serve_peek_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint at all";
  }
  EXPECT_THROW(nn::PeekCheckpointFormatVersion(path), Error);
  EXPECT_THROW(nn::PeekCheckpointFormatVersion(TempPath("stwa_missing.bin")),
               Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace stwa
