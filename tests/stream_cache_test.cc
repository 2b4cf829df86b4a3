// Tests for the per-stream output memo (serve/stream_cache.h), the
// InferenceSession::ForecastStream path, server/fleet wiring, and
// invalidation on hot reload and online publish. The load-bearing
// property throughout is byte identity: a memo hit must serve exactly
// the bytes the cold path would. The memo needs no captured plan, so
// every test here asserts the same paths with STWA_NO_PLAN=1.

#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/no_grad.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "baselines/registry.h"
#include "data/scaler.h"
#include "data/traffic_generator.h"
#include "fleet/profile.h"
#include "ir/plan.h"
#include "ir/registry.h"
#include "online/adaptation.h"
#include "serve/checkpoint.h"
#include "serve/inference_session.h"
#include "serve/server.h"
#include "serve/stream_cache.h"
#include "tensor/ops.h"

namespace stwa {
namespace serve {
namespace {

std::string TempPath(const std::string& name) { return "/tmp/" + name; }

struct Fixture {
  data::TrafficDataset dataset;
  baselines::ModelSettings settings;
  std::unique_ptr<train::ForecastModel> model;
  ServingInfo info;
  std::string path;
};

Fixture MakeFixture(const std::string& file, const std::string& model_name,
                    uint64_t weight_seed = 3) {
  Fixture f;
  data::GeneratorOptions gen;
  gen.num_roads = 2;
  gen.sensors_per_road = 2;
  gen.num_days = 2;
  gen.steps_per_day = 96;
  gen.seed = 11;
  f.dataset = data::GenerateTraffic(gen);
  f.settings.history = 12;
  f.settings.horizon = 4;
  f.settings.d_model = 8;
  f.settings.window_sizes = {3, 2, 2};
  f.settings.latent_dim = 4;
  f.settings.predictor_hidden = 16;
  f.settings.seed = weight_seed;
  f.model = baselines::MakeModel(model_name, f.dataset, f.settings);
  f.info.model = model_name;
  f.info.settings = f.settings;
  f.info.num_sensors = f.dataset.num_sensors();
  f.info.num_features = f.dataset.num_features();
  f.info.scaler_mean = 200.0f;
  f.info.scaler_std = 55.0f;
  f.info.ckpt_version = 1;
  f.path = TempPath(file);
  SaveServingCheckpoint(*f.model, f.info, f.path);
  return f;
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

// ---------------------------------------------------------------------------
// StreamCache bookkeeping

constexpr int64_t kWin = 6;  // window floats of the bookkeeping tests
constexpr int64_t kOut = 4;  // output floats

std::vector<float> Filled(int64_t size, float v) {
  return std::vector<float>(static_cast<size_t>(size), v);
}

TEST(StreamCacheTest, LookupMatchesTagsAndCountsStale) {
  StreamCache cache(/*generation=*/1);
  const std::vector<float> w = Filled(kWin, 2.0f);
  const std::vector<float> out = Filled(kOut, 7.0f);
  cache.Store(7, /*anchor=*/5, 1, simd::Precision::kFp32, w.data(), kWin,
              out.data(), kOut);
  std::vector<float> got = Filled(kOut, 0.0f);
  EXPECT_TRUE(cache.Lookup(7, 5, 1, simd::Precision::kFp32, w.data(), kWin,
                           got.data(), kOut));
  EXPECT_EQ(got, out);
  // Unknown stream, another anchor, other window bytes: plain misses.
  EXPECT_FALSE(cache.Lookup(8, 5, 1, simd::Precision::kFp32, w.data(), kWin,
                            got.data(), kOut));
  EXPECT_FALSE(cache.Lookup(7, 6, 1, simd::Precision::kFp32, w.data(), kWin,
                            got.data(), kOut));
  std::vector<float> other = w;
  other.back() = 2.5f;
  EXPECT_FALSE(cache.Lookup(7, 5, 1, simd::Precision::kFp32, other.data(),
                            kWin, got.data(), kOut));
  // Generation or precision mismatch: stale, never served.
  EXPECT_FALSE(cache.Lookup(7, 5, 2, simd::Precision::kFp32, w.data(), kWin,
                            got.data(), kOut));
  EXPECT_FALSE(cache.Lookup(7, 5, 1, simd::Precision::kBf16, w.data(), kWin,
                            got.data(), kOut));
  const StreamCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.output_hits, 1);
  EXPECT_EQ(stats.misses, 1);  // the Store
  EXPECT_EQ(stats.stale_rejected, 2);
  EXPECT_EQ(stats.shift_hits, 0);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.bytes,
            static_cast<int64_t>(sizeof(float)) * (kWin + kOut));
}

TEST(StreamCacheTest, RefreshReusesEntryStorage) {
  StreamCache cache(1);
  const std::vector<float> out = Filled(kOut, 1.0f);
  for (int64_t t = 0; t < 4; ++t) {
    const std::vector<float> w = Filled(kWin, static_cast<float>(t));
    cache.Store(3, t, 1, simd::Precision::kFp32, w.data(), kWin, out.data(),
                kOut);
  }
  const StreamCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.bytes,
            static_cast<int64_t>(sizeof(float)) * (kWin + kOut));
  // Only the latest window answers.
  std::vector<float> got(kOut);
  const std::vector<float> last = Filled(kWin, 3.0f);
  EXPECT_TRUE(cache.Lookup(3, 3, 1, simd::Precision::kFp32, last.data(),
                           kWin, got.data(), kOut));
}

TEST(StreamCacheTest, InvalidateFlushesAndRetags) {
  StreamCache cache(1);
  const std::vector<float> w = Filled(kWin, 2.0f);
  const std::vector<float> out = Filled(kOut, 7.0f);
  cache.Store(1, 5, 1, simd::Precision::kFp32, w.data(), kWin, out.data(),
              kOut);
  cache.Store(2, 9, 1, simd::Precision::kFp32, w.data(), kWin, out.data(),
              kOut);
  EXPECT_EQ(cache.Stats().entries, 2);
  cache.Invalidate(2);
  EXPECT_EQ(cache.generation(), 2u);
  StreamCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.bytes, 0);
  EXPECT_EQ(stats.flushes, 1);
  // A worker of the retired generation finishing late leaves nothing.
  cache.Store(1, 5, 1, simd::Precision::kFp32, w.data(), kWin, out.data(),
              kOut);
  EXPECT_EQ(cache.Stats().entries, 0);
  std::vector<float> got(kOut);
  EXPECT_FALSE(cache.Lookup(1, 5, 2, simd::Precision::kFp32, w.data(), kWin,
                            got.data(), kOut));
}

// ---------------------------------------------------------------------------
// ForecastStream byte identity

TEST(ForecastStreamTest, InterleavedStreamsStayByteExact) {
  // Three round-robin streams through one session, each read twice per
  // window (the second read a memo hit): every answer must stay
  // bit-identical to the cold path of a separate session.
  Fixture f = MakeFixture("stwa_sc_interleave.bin", "ST-WA");
  auto session = InferenceSession::Open(f.path);
  auto reference = InferenceSession::Open(f.path);
  StreamCache cache(1);
  const int64_t h = f.settings.history;
  for (int64_t t = 0; t < 6; ++t) {
    for (int64_t read = 0; read < 2; ++read) {
      for (int64_t s = 0; s < 3; ++s) {
        Tensor w = ops::Slice(f.dataset.values, 1, t + s * 29, h);
        Tensor got = session->ForecastStream(w, s, t + h - 1, &cache, 1);
        Tensor want = reference->Forecast(w);
        ASSERT_TRUE(SameBytes(got, want))
            << "t=" << t << " read=" << read << " s=" << s;
      }
    }
  }
  const StreamCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.output_hits, 18);
  EXPECT_EQ(stats.misses, 18);
  EXPECT_EQ(stats.bypass, 0);
  EXPECT_EQ(stats.shift_hits, 0);
  EXPECT_EQ(stats.entries, 3);
  std::remove(f.path.c_str());
}

TEST(ForecastStreamTest, BatchedWindowShapeRoundTrips) {
  // [1, N, H, F] in, [1, N, U, F] out, on the miss and on the hit.
  Fixture f = MakeFixture("stwa_sc_rank4.bin", "ST-WA");
  auto session = InferenceSession::Open(f.path);
  StreamCache cache(1);
  const int64_t h = f.settings.history;
  Tensor w = ops::Slice(f.dataset.values, 1, 4, h);
  Tensor w4 = w.Reshape({1, w.dim(0), w.dim(1), w.dim(2)});
  Tensor want = InferenceSession::Open(f.path)->Forecast(w4);
  Tensor miss = session->ForecastStream(w4, 0, h - 1, &cache, 1);
  Tensor hit = session->ForecastStream(w4, 0, h - 1, &cache, 1);
  EXPECT_TRUE(SameBytes(miss, want));
  EXPECT_TRUE(SameBytes(hit, want));
  EXPECT_EQ(cache.Stats().output_hits, 1);
  std::remove(f.path.c_str());
}

TEST(ForecastStreamTest, RngDrawsAreCountedInEagerAndReplayedForwards) {
  // The memo's refusal of rng-bearing forwards rests on this counter:
  // a sampling op must move it whether traced eagerly or replayed.
  Rng rng(5);
  const uint64_t start = ir::RngDrawCount();
  ag::NoGradMode no_grad;
  ir::GraphCapture capture;
  ag::Var x = ag::RandnVar({2, 3}, rng);
  EXPECT_EQ(ir::RngDrawCount(), start + 1);
  Tensor feed = Tensor::Zeros({2, 3});
  ag::Var leaf(feed);
  ag::Var y = ag::Add(leaf, x);
  auto plan = capture.Finish(y, {feed}, /*with_backward=*/false);
  ASSERT_NE(plan, nullptr);
  plan->ReplayForward({Tensor::Zeros({2, 3})});
  EXPECT_EQ(ir::RngDrawCount(), start + 2);
}

TEST(ForecastStreamTest, OutputHitServesRepeatWithoutRecompute) {
  Fixture f = MakeFixture("stwa_sc_outputhit.bin", "ST-WA");
  auto session = InferenceSession::Open(f.path);
  StreamCache cache(1);
  const int64_t h = f.settings.history;
  Tensor w = ops::Slice(f.dataset.values, 1, 10, h);
  // Eval-mode ST-WA uses the latent mean: it draws no rng, so its
  // outputs may be memoised.
  const uint64_t draws = ir::RngDrawCount();
  Tensor first = session->ForecastStream(w, 0, h - 1, &cache, 1);
  EXPECT_EQ(ir::RngDrawCount(), draws);
  const int64_t before = session->forward_count();
  Tensor repeat = session->ForecastStream(w, 0, h - 1, &cache, 1);
  EXPECT_EQ(session->forward_count(), before);  // no model work
  EXPECT_TRUE(SameBytes(first, repeat));
  EXPECT_EQ(cache.Stats().output_hits, 1);
  std::remove(f.path.c_str());
}

TEST(ForecastStreamTest, MemoServesTheSameWithPlansOnAndOff) {
  // The memo keys on window bytes, not on a captured plan: with plans off
  // (the STWA_NO_PLAN=1 path) the same requests take the same memo paths
  // and serve the same bytes.
  Fixture f = MakeFixture("stwa_sc_noplan.bin", "ST-WA");
  const int64_t h = f.settings.history;
  Tensor w = ops::Slice(f.dataset.values, 1, 10, h);
  const bool saved = ir::PlanModeEnabled();
  std::vector<Tensor> answers;
  for (const bool plans : {true, false}) {
    ir::SetPlanMode(plans);
    auto session = InferenceSession::Open(f.path);
    StreamCache cache(1);
    answers.push_back(session->ForecastStream(w, 0, h - 1, &cache, 1));
    answers.push_back(session->ForecastStream(w, 0, h - 1, &cache, 1));
    const StreamCacheStats stats = cache.Stats();
    EXPECT_EQ(stats.misses, 1) << "plans=" << plans;
    EXPECT_EQ(stats.output_hits, 1) << "plans=" << plans;
    EXPECT_EQ(stats.bypass, 0) << "plans=" << plans;
    EXPECT_EQ(session->forward_count(), 1) << "plans=" << plans;
  }
  ir::SetPlanMode(saved);
  for (const Tensor& a : answers) EXPECT_TRUE(SameBytes(a, answers[0]));
  std::remove(f.path.c_str());
}

TEST(ForecastStreamTest, RewoundWindowDegradesToMissNotWrongAnswer) {
  // Anchor says "same window" but the bytes differ: the memcmp gate must
  // reject the memoised output and recompute.
  Fixture f = MakeFixture("stwa_sc_rewind.bin", "ST-WA");
  auto session = InferenceSession::Open(f.path);
  auto reference = InferenceSession::Open(f.path);
  StreamCache cache(1);
  const int64_t h = f.settings.history;
  session->ForecastStream(ops::Slice(f.dataset.values, 1, 10, h), 0, h - 1,
                          &cache, 1);
  Tensor jump = ops::Slice(f.dataset.values, 1, 52, h);
  Tensor got = session->ForecastStream(jump, 0, h - 1, &cache, 1);
  EXPECT_TRUE(SameBytes(got, reference->Forecast(jump)));
  EXPECT_EQ(cache.Stats().output_hits, 0);
  EXPECT_EQ(cache.Stats().misses, 2);  // first contact + the rewrite
  std::remove(f.path.c_str());
}

// ---------------------------------------------------------------------------
// Server wiring: cache on/off bit identity across threads, batching and
// precision tiers

// Pins the global stream-cache gate for one test and restores the
// pre-test value even when an assertion bails out early — cache-behavior
// tests stay meaningful under the CI STWA_NO_STREAM_CACHE=1 leg, and the
// gate test cannot leak its override into later tests.
struct CacheModeGuard {
  explicit CacheModeGuard(bool enabled) : saved(StreamCacheEnabled()) {
    SetStreamCacheMode(enabled);
  }
  ~CacheModeGuard() { SetStreamCacheMode(saved); }
  bool saved;
};

TEST(ServerStreamCacheTest, OnOffBitIdentityAcrossWorkersBatchingTiers) {
  CacheModeGuard guard(true);
  Fixture f = MakeFixture("stwa_sc_server.bin", "ST-WA");
  const int64_t h = f.settings.history;
  const int64_t streams = 3;
  const int64_t steps = 10;
  for (const simd::Precision tier :
       {simd::Precision::kFp32, simd::Precision::kBf16}) {
    // Reference bytes for this tier from a plain offline session.
    SessionConfig ref_cfg;
    ref_cfg.precision = tier;
    auto reference = InferenceSession::Open(f.path, ref_cfg);
    for (const int workers : {1, 4}) {
      for (const int64_t max_batch : {int64_t{1}, int64_t{8}}) {
        for (const bool cache_on : {false, true}) {
          ServerOptions opts;
          opts.workers = workers;
          opts.batching.max_batch = max_batch;
          opts.session.precision = tier;
          opts.stream_cache = cache_on;
          opts.default_deadline = std::chrono::seconds(120);
          Server server(f.path, opts);
          for (int64_t t = 0; t < steps; ++t) {
            std::vector<std::future<Response>> futures;
            std::vector<Tensor> windows;
            for (int64_t s = 0; s < streams; ++s) {
              windows.push_back(
                  ops::Slice(f.dataset.values, 1, t + s * 29, h));
              futures.push_back(
                  server.Submit(windows.back(), s, t + h - 1));
            }
            for (int64_t s = 0; s < streams; ++s) {
              Response resp = futures[static_cast<size_t>(s)].get();
              ASSERT_TRUE(resp.ok);
              Tensor want =
                  reference->Forecast(windows[static_cast<size_t>(s)]);
              ASSERT_TRUE(SameBytes(resp.forecast, want))
                  << "tier=" << static_cast<int>(tier)
                  << " workers=" << workers << " batch=" << max_batch
                  << " cache=" << cache_on << " t=" << t << " s=" << s;
            }
          }
          const ServerStats stats = server.Stats();
          if (!cache_on) {
            EXPECT_EQ(stats.stream_cache.output_hits, 0);
          }
          EXPECT_EQ(stats.stream_cache.stale_rejected, 0);
        }
      }
    }
  }
  std::remove(f.path.c_str());
}

TEST(ServerStreamCacheTest, SingletonStreamSubmitsHitTheCache) {
  CacheModeGuard guard(true);
  Fixture f = MakeFixture("stwa_sc_hits.bin", "ST-WA");
  const int64_t h = f.settings.history;
  ServerOptions opts;
  opts.workers = 1;
  opts.batching.max_batch = 1;
  opts.default_deadline = std::chrono::seconds(120);
  Server server(f.path, opts);
  for (int64_t t = 0; t < 8; ++t) {
    Tensor w = ops::Slice(f.dataset.values, 1, t, h);
    for (int read = 0; read < 2; ++read) {
      ASSERT_TRUE(server.Submit(w, /*stream_id=*/0, t + h - 1).get().ok);
    }
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.stream_cache.output_hits, 8);
  EXPECT_EQ(stats.stream_cache.misses, 8);
  EXPECT_EQ(stats.stream_cache.stale_rejected, 0);
}

TEST(ServerStreamCacheTest, BatchOfEightAnswersRepeatsFromTheMemo) {
  // Four streams are answered once; then one batch of eight rides in:
  // the four repeats must come from the memo and only the four new
  // streams reach the model, stacked into one forward. Every answer is
  // memcmp-equal to a plain offline Forecast.
  CacheModeGuard guard(true);
  Fixture f = MakeFixture("stwa_sc_batch8.bin", "ST-WA");
  const int64_t h = f.settings.history;
  ServerOptions opts;
  opts.workers = 1;
  opts.batching.max_batch = 8;
  opts.default_deadline = std::chrono::seconds(120);
  Server server(f.path, opts);
  auto reference = InferenceSession::Open(f.path);
  std::vector<Tensor> windows;
  for (int64_t s = 0; s < 8; ++s) {
    windows.push_back(ops::Slice(f.dataset.values, 1, 3 + s * 11, h));
  }
  for (int64_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(server.Submit(windows[s], s, h - 1).get().ok);
  }
  std::vector<std::future<Response>> futures;
  {
    struct HoldGuard {
      HoldGuard() { internal::HoldBatchesForTest(true); }
      ~HoldGuard() { internal::HoldBatchesForTest(false); }
    } hold;
    for (int64_t s = 0; s < 8; ++s) {
      futures.push_back(server.Submit(windows[s], s, h - 1));
    }
  }
  for (int64_t s = 0; s < 8; ++s) {
    Response resp = futures[static_cast<size_t>(s)].get();
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.batch_size, 8);
    EXPECT_TRUE(SameBytes(resp.forecast, reference->Forecast(windows[s])))
        << "stream " << s;
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.stream_cache.output_hits, 4);
  EXPECT_EQ(stats.stream_cache.misses, 8);
  EXPECT_EQ(stats.stream_cache.bypass, 0);
  EXPECT_EQ(stats.stream_cache.stale_rejected, 0);
  std::remove(f.path.c_str());
}

TEST(ServerStreamCacheTest, DisabledModeRunsCacheFree) {
  Fixture f = MakeFixture("stwa_sc_gate.bin", "ST-WA");
  CacheModeGuard guard(false);
  ASSERT_FALSE(StreamCacheEnabled());
  {
    ServerOptions opts;
    opts.default_deadline = std::chrono::seconds(120);
    Server server(f.path, opts);  // stream_cache=true, but the gate wins
    EXPECT_EQ(server.stream_cache(), nullptr);
    Tensor w = ops::Slice(f.dataset.values, 1, 3, f.settings.history);
    Response resp = server.Submit(w, /*stream_id=*/0,
                                  f.settings.history - 1).get();
    ASSERT_TRUE(resp.ok);
    EXPECT_TRUE(
        SameBytes(resp.forecast, InferenceSession::Open(f.path)->Forecast(w)));
    const ServerStats stats = server.Stats();
    EXPECT_EQ(stats.stream_cache.output_hits + stats.stream_cache.misses +
                  stats.stream_cache.bypass,
              0);
  }
  std::remove(f.path.c_str());
}

// ---------------------------------------------------------------------------
// Invalidation: hot reload and online publish

TEST(StreamCacheInvalidationTest, ReloadWithNewWeightsNeverServesStale) {
  CacheModeGuard guard(true);
  Fixture f = MakeFixture("stwa_sc_reload.bin", "ST-WA", /*weight_seed=*/3);
  fleet::FleetProfileConfig cfg;
  cfg.name = "city";
  cfg.checkpoint = f.path;
  cfg.tiles = 2;
  cfg.shards = 1;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.deadline_us = 120'000'000;
  fleet::ModelProfile profile(cfg);
  ASSERT_NE(profile.stream_cache(), nullptr);

  const int64_t n = f.dataset.num_sensors();
  const int64_t f_dim = f.dataset.num_features();
  const int64_t steps = f.dataset.num_steps();
  std::vector<float> row(static_cast<size_t>(n * f_dim));
  auto push_step = [&](int64_t tile, int64_t at) {
    const float* v = f.dataset.values.data();
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < f_dim; ++j) {
        row[static_cast<size_t>(i * f_dim + j)] =
            v[i * steps * f_dim + at * f_dim + j];
      }
    }
    profile.PushTile(tile, row);
  };
  for (int64_t s = 0; s < f.settings.history; ++s) push_step(0, s);

  // Warm the cache on generation 1 and verify bytes against the old
  // weights.
  auto old_session = InferenceSession::Open(f.path);
  Tensor w0 = ops::Slice(f.dataset.values, 1, 0, f.settings.history);
  for (int i = 0; i < 3; ++i) {
    Response resp = profile.ForecastTile(0).get();
    ASSERT_TRUE(resp.ok);
    EXPECT_TRUE(SameBytes(resp.forecast, old_session->Forecast(w0)));
  }
  EXPECT_GT(profile.Stats().stream_cache.output_hits, 0);

  // New weights, same geometry, at a new path; reload must flush.
  Fixture g = MakeFixture("stwa_sc_reload_v2.bin", "ST-WA",
                          /*weight_seed=*/17);
  fleet::ReloadResult reload = profile.Reload(g.path);
  EXPECT_EQ(reload.version, 2);
  EXPECT_GE(profile.Stats().stream_cache.flushes, 1);

  // Same tile, same window: the cached generation-1 output would be a
  // stale read — the served bytes must come from the new weights.
  auto new_session = InferenceSession::Open(g.path);
  Tensor old_answer = old_session->Forecast(w0);
  Tensor new_answer = new_session->Forecast(w0);
  ASSERT_FALSE(SameBytes(old_answer, new_answer));  // weights did change
  for (int i = 0; i < 2; ++i) {
    Response resp = profile.ForecastTile(0).get();
    ASSERT_TRUE(resp.ok);
    EXPECT_TRUE(SameBytes(resp.forecast, new_answer));
  }
  std::remove(f.path.c_str());
  std::remove(g.path.c_str());
}

TEST(StreamCacheInvalidationTest, OnlinePublishRideReloadAndFlushes) {
  CacheModeGuard guard(true);
  Fixture f = MakeFixture("stwa_sc_publish.bin", "ST-WA");
  fleet::FleetProfileConfig cfg;
  cfg.name = "city";
  cfg.checkpoint = f.path;
  cfg.tiles = 1;
  cfg.shards = 1;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.deadline_us = 120'000'000;
  fleet::ModelProfile profile(cfg);
  ASSERT_NE(profile.stream_cache(), nullptr);

  const int64_t n = f.dataset.num_sensors();
  const int64_t f_dim = f.dataset.num_features();
  const int64_t steps = f.dataset.num_steps();
  std::vector<float> row(static_cast<size_t>(n * f_dim));
  for (int64_t s = 0; s < f.settings.history; ++s) {
    const float* v = f.dataset.values.data();
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < f_dim; ++j) {
        row[static_cast<size_t>(i * f_dim + j)] =
            v[i * steps * f_dim + s * f_dim + j];
      }
    }
    profile.PushTile(0, row);
  }
  ASSERT_TRUE(profile.ForecastTile(0).get().ok);
  ASSERT_TRUE(profile.ForecastTile(0).get().ok);
  EXPECT_GT(profile.Stats().stream_cache.output_hits, 0);
  const int64_t flushes_before = profile.Stats().stream_cache.flushes;

  // Zero-delta publish through the learner, then the documented reload.
  online::OnlineConfig ocfg;
  ocfg.publish_path = TempPath("stwa_sc_publish_v2.bin");
  online::OnlineLearner learner(f.path, ocfg);
  learner.Publish();
  fleet::ReloadResult reload = profile.Reload(learner.publish_path());
  EXPECT_EQ(reload.version, 2);
  EXPECT_EQ(profile.Stats().stream_cache.flushes, flushes_before + 1);
  EXPECT_EQ(profile.Stats().stream_cache.entries, 0);

  // Zero-delta weights: post-publish bytes equal the originals, served
  // from a fresh (generation-2) compute rather than a stale entry.
  Response resp = profile.ForecastTile(0).get();
  ASSERT_TRUE(resp.ok);
  Tensor w0 = ops::Slice(f.dataset.values, 1, 0, f.settings.history);
  EXPECT_TRUE(
      SameBytes(resp.forecast, InferenceSession::Open(f.path)->Forecast(w0)));
  EXPECT_EQ(profile.Stats().stream_cache.stale_rejected, 0);
  std::remove(f.path.c_str());
  std::remove(ocfg.publish_path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace stwa
