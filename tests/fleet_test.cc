// Tests for the fleet serving layer: shard routing arithmetic, token-bucket
// admission control, fleet config parsing, hot checkpoint reload (drain
// guarantee + bit-identity + geometry validation), the multi-profile
// registry, and the profile-routed line protocol.

#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "common/check.h"
#include "data/traffic_generator.h"
#include "fleet/admission.h"
#include "fleet/config.h"
#include "fleet/profile.h"
#include "fleet/protocol.h"
#include "fleet/registry.h"
#include "fleet/shard_router.h"
#include "runtime/parallel.h"
#include "serve/checkpoint.h"
#include "serve/inference_session.h"
#include "serve/server.h"
#include "tensor/ops.h"

namespace stwa {
namespace fleet {
namespace {

std::string TempPath(const std::string& name) { return "/tmp/" + name; }

// ---------------------------------------------------------------------------
// ShardRouter

TEST(ShardRouterTest, BalancedPartitionCoversAllTilesOnce) {
  const ShardRouter router(/*num_sensors=*/5, /*tiles=*/10, /*shards=*/4);
  EXPECT_EQ(router.global_sensors(), 50);
  // Balanced split of 10 tiles over 4 shards: 2/3/2/3.
  EXPECT_EQ(router.ShardBegin(0), 0);
  EXPECT_EQ(router.ShardEnd(0), 2);
  EXPECT_EQ(router.ShardBegin(1), 2);
  EXPECT_EQ(router.ShardEnd(1), 5);
  EXPECT_EQ(router.ShardBegin(2), 5);
  EXPECT_EQ(router.ShardEnd(2), 7);
  EXPECT_EQ(router.ShardBegin(3), 7);
  EXPECT_EQ(router.ShardEnd(3), 10);
  int64_t total = 0;
  for (int64_t k = 0; k < router.shards(); ++k) {
    total += router.ShardTileCount(k);
    EXPECT_GE(router.ShardTileCount(k), router.tiles() / router.shards());
  }
  EXPECT_EQ(total, router.tiles());
  // TileToShard is the inverse of the range split, and TileInShard is the
  // offset inside the owning range.
  for (int64_t t = 0; t < router.tiles(); ++t) {
    const int64_t k = router.TileToShard(t);
    EXPECT_GE(t, router.ShardBegin(k));
    EXPECT_LT(t, router.ShardEnd(k));
    EXPECT_EQ(router.TileInShard(t), t - router.ShardBegin(k));
  }
}

TEST(ShardRouterTest, SensorIndexMath) {
  const ShardRouter router(/*num_sensors=*/4, /*tiles=*/6, /*shards=*/3);
  EXPECT_EQ(router.global_sensors(), 24);
  EXPECT_EQ(router.SensorToTile(0), 0);
  EXPECT_EQ(router.SensorToTile(3), 0);
  EXPECT_EQ(router.SensorToTile(4), 1);
  EXPECT_EQ(router.SensorToTile(23), 5);
  EXPECT_EQ(router.SensorInTile(0), 0);
  EXPECT_EQ(router.SensorInTile(7), 3);
  EXPECT_EQ(router.SensorInTile(23), 3);
}

TEST(ShardRouterTest, SingleShardOwnsEverything) {
  const ShardRouter router(/*num_sensors=*/3, /*tiles=*/7, /*shards=*/1);
  for (int64_t t = 0; t < 7; ++t) EXPECT_EQ(router.TileToShard(t), 0);
  EXPECT_EQ(router.ShardTileCount(0), 7);
}

TEST(ShardRouterTest, RejectsBadGeometry) {
  EXPECT_THROW(ShardRouter(0, 4, 2), Error);
  EXPECT_THROW(ShardRouter(4, 0, 1), Error);
  EXPECT_THROW(ShardRouter(4, 4, 0), Error);
  EXPECT_THROW(ShardRouter(4, 4, 5), Error);  // more shards than tiles
}

// ---------------------------------------------------------------------------
// Admission control

TEST(TokenBucketTest, BurstThenContinuousRefill) {
  TokenBucket bucket(TenantQuota{/*rate=*/2.0, /*burst=*/3.0});
  // A fresh bucket starts full: the whole burst admits at one instant.
  EXPECT_TRUE(bucket.TryAdmitAt(0));
  EXPECT_TRUE(bucket.TryAdmitAt(0));
  EXPECT_TRUE(bucket.TryAdmitAt(0));
  EXPECT_FALSE(bucket.TryAdmitAt(0));
  // 2 tokens/s -> one token after 500 ms, not two.
  EXPECT_TRUE(bucket.TryAdmitAt(500'000));
  EXPECT_FALSE(bucket.TryAdmitAt(500'000));
  // A long idle stretch refills to the cap, never past it.
  EXPECT_TRUE(bucket.TryAdmitAt(60'000'000));
  EXPECT_TRUE(bucket.TryAdmitAt(60'000'000));
  EXPECT_TRUE(bucket.TryAdmitAt(60'000'000));
  EXPECT_FALSE(bucket.TryAdmitAt(60'000'000));
}

TEST(TokenBucketTest, NonPositiveRateIsUnlimited) {
  TokenBucket bucket(TenantQuota{/*rate=*/0.0, /*burst=*/1.0});
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.TryAdmitAt(0));
}

TEST(AdmissionControllerTest, DefaultQuotaAppliesToUnknownTenants) {
  AdmissionController ctrl;  // default default: unlimited
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(ctrl.TryAdmitAt("anyone", 0));
  EXPECT_EQ(ctrl.admitted(), 10);
  EXPECT_EQ(ctrl.throttled(), 0);

  AdmissionController capped(TenantQuota{/*rate=*/1.0, /*burst=*/2.0});
  EXPECT_TRUE(capped.TryAdmitAt("t", 0));
  EXPECT_TRUE(capped.TryAdmitAt("t", 0));
  EXPECT_FALSE(capped.TryAdmitAt("t", 0));
  // Buckets are per tenant: a different tenant still has its burst.
  EXPECT_TRUE(capped.TryAdmitAt("u", 0));
  EXPECT_EQ(capped.admitted(), 3);
  EXPECT_EQ(capped.throttled(), 1);
}

TEST(AdmissionControllerTest, SetQuotaRestartsBucketFull) {
  AdmissionController ctrl;
  ctrl.SetQuota("gold", TenantQuota{/*rate=*/1.0, /*burst=*/1.0});
  EXPECT_TRUE(ctrl.TryAdmitAt("gold", 0));
  EXPECT_FALSE(ctrl.TryAdmitAt("gold", 0));
  // Replacing the quota restarts the bucket at its (new) burst.
  ctrl.SetQuota("gold", TenantQuota{/*rate=*/1.0, /*burst=*/2.0});
  EXPECT_TRUE(ctrl.TryAdmitAt("gold", 0));
  EXPECT_TRUE(ctrl.TryAdmitAt("gold", 0));
  EXPECT_FALSE(ctrl.TryAdmitAt("gold", 0));
}

// ---------------------------------------------------------------------------
// Fleet config

TEST(FleetConfigTest, ParsesProfilesAndQuotas) {
  const FleetConfig config = ParseFleetConfig(
      "# fleet node\n"
      "profile cityA ckpt=/tmp/a.bin tiles=8 shards=2 workers=3 "
      "max_batch=4 capacity=64 deadline_us=5000 "
      "precision=bf16 serial_kernels=0\n"
      "\n"
      "profile cityB ckpt=/tmp/b.bin\n"
      "quota gold rate=100 burst=20\n"
      "default_quota rate=5\n");
  ASSERT_EQ(config.profiles.size(), 2u);
  const FleetProfileConfig& a = config.profiles[0];
  EXPECT_EQ(a.name, "cityA");
  EXPECT_EQ(a.checkpoint, "/tmp/a.bin");
  EXPECT_EQ(a.tiles, 8);
  EXPECT_EQ(a.shards, 2);
  EXPECT_EQ(a.workers, 3);
  EXPECT_EQ(a.max_batch, 4);
  EXPECT_EQ(a.capacity, 64);
  EXPECT_EQ(a.deadline_us, 5000);
  EXPECT_EQ(a.precision, simd::Precision::kBf16);
  EXPECT_FALSE(a.serial_kernels);
  // cityB keeps every default.
  const FleetProfileConfig& b = config.profiles[1];
  EXPECT_EQ(b.tiles, 1);
  EXPECT_EQ(b.shards, 1);
  EXPECT_TRUE(b.serial_kernels);
  ASSERT_EQ(config.quotas.size(), 1u);
  EXPECT_EQ(config.quotas[0].first, "gold");
  EXPECT_DOUBLE_EQ(config.quotas[0].second.rate, 100.0);
  EXPECT_DOUBLE_EQ(config.quotas[0].second.burst, 20.0);
  EXPECT_DOUBLE_EQ(config.default_quota.rate, 5.0);
}

TEST(FleetConfigTest, RejectsTyposInsteadOfServingDefaults) {
  EXPECT_THROW(ParseFleetConfig("frobnicate cityA\n"), Error);
  EXPECT_THROW(ParseFleetConfig("profile cityA\n"), Error);  // no ckpt
  EXPECT_THROW(ParseFleetConfig("profile cityA ckpt=/a tilse=4\n"), Error);
  EXPECT_THROW(ParseFleetConfig("profile cityA ckpt=/a tiles=many\n"),
               Error);
  EXPECT_THROW(ParseFleetConfig("quota gold burst=5\n"), Error);  // no rate
  EXPECT_THROW(ParseFleetConfig("quota gold rate=1 color=red\n"), Error);
}

TEST(FleetConfigTest, RemovedMaxDelayOptionGetsAnActionableError) {
  try {
    ParseFleetConfig("profile cityA ckpt=/a max_delay_us=500\n");
    FAIL() << "max_delay_us must be rejected";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("max_delay_us was removed"), std::string::npos)
        << what;
    EXPECT_NE(what.find("delete the option"), std::string::npos) << what;
  }
}

TEST(FleetConfigTest, RemovedInt8PrecisionGetsAnActionableError) {
  try {
    ParseFleetConfig("profile cityA ckpt=/a precision=int8\n");
    FAIL() << "precision=int8 must be rejected";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("int8 tier was removed"), std::string::npos) << what;
    EXPECT_NE(what.find("use bf16"), std::string::npos) << what;
  }
}

TEST(FleetConfigTest, QuotaBurstClampedToAdmitAtLeastOne) {
  const FleetConfig config =
      ParseFleetConfig("quota tiny rate=1 burst=0.2\n");
  EXPECT_DOUBLE_EQ(config.quotas[0].second.burst, 1.0);
}

// ---------------------------------------------------------------------------
// ModelProfile fixtures

struct Fixture {
  data::TrafficDataset dataset;
  baselines::ModelSettings settings;
  std::unique_ptr<train::ForecastModel> model;
  serve::ServingInfo info;
  std::string path;
};

/// Builds and saves a small ST-WA serving checkpoint (N = 2*roads
/// sensors, history 12, horizon 3). `scaler_std` changes the served
/// outputs without touching the model geometry — two saves with
/// different values act as "different weights" for reload tests.
Fixture MakeFixture(const std::string& file, float scaler_std = 55.0f,
                    int64_t roads = 2) {
  Fixture f;
  data::GeneratorOptions gen;
  gen.num_roads = roads;
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
  f.info.scaler_std = scaler_std;
  f.path = TempPath(file);
  serve::SaveServingCheckpoint(*f.model, f.info, f.path);
  return f;
}

/// Default profile config over `path`: small tiles/shards, fast batching.
FleetProfileConfig SmallProfile(const std::string& name,
                                const std::string& path) {
  FleetProfileConfig config;
  config.name = name;
  config.checkpoint = path;
  config.tiles = 5;
  config.shards = 2;
  config.workers = 1;
  config.max_batch = 4;
  config.deadline_us = 30'000'000;
  return config;
}

/// Feeds `window` ([N, H, F]) into `tile` one timestep at a time.
void WarmTile(ModelProfile& profile, int64_t tile, const Tensor& window) {
  const int64_t n = window.dim(0), h = window.dim(1), f = window.dim(2);
  std::vector<float> row(static_cast<size_t>(n * f));
  const float* w = window.data();
  for (int64_t s = 0; s < h; ++s) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < f; ++j) {
        row[static_cast<size_t>(i * f + j)] = w[i * h * f + s * f + j];
      }
    }
    profile.PushTile(tile, row);
  }
}

void ExpectSameBits(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(want.size())),
            0);
}

// ---------------------------------------------------------------------------
// ModelProfile

TEST(ModelProfileTest, ShardedForecastMatchesStandaloneServerBitExactly) {
  Fixture f = MakeFixture("stwa_fleet_profile.bin");
  ModelProfile profile(SmallProfile("cityA", f.path));
  EXPECT_EQ(profile.Version(), 1);
  EXPECT_EQ(profile.num_sensors(), f.info.num_sensors);
  EXPECT_EQ(profile.router().global_sensors(), 5 * f.info.num_sensors);

  // Two tiles on different shards, fed different windows.
  const Tensor w0 = ops::Slice(f.dataset.values, 1, 0, f.settings.history);
  const Tensor w4 = ops::Slice(f.dataset.values, 1, 9, f.settings.history);
  EXPECT_FALSE(profile.TileReady(0));
  EXPECT_EQ(profile.TileMinFilled(0), 0);
  WarmTile(profile, 0, w0);
  WarmTile(profile, 4, w4);
  EXPECT_TRUE(profile.TileReady(0));
  EXPECT_TRUE(profile.TileReady(4));
  EXPECT_FALSE(profile.TileReady(2));
  EXPECT_NE(profile.router().TileToShard(0), profile.router().TileToShard(4));

  serve::Response r0 = profile.ForecastTile(0).get();
  serve::Response r4 = profile.ForecastTile(4).get();
  ASSERT_TRUE(r0.ok);
  ASSERT_TRUE(r4.ok);

  // Reference 1: an offline session over the same file.
  auto session = serve::InferenceSession::Open(f.path);
  ExpectSameBits(r0.forecast, session->Forecast(w0));
  ExpectSameBits(r4.forecast, session->Forecast(w4));

  // Reference 2: a standalone serve::Server (the pre-fleet serving path).
  serve::ServerOptions opts;
  opts.workers = 1;
  serve::Server standalone(f.path, opts);
  serve::Response rs = standalone.Submit(w0).get();
  ASSERT_TRUE(rs.ok);
  ExpectSameBits(r0.forecast, rs.forecast);
  standalone.Stop();

  // Per-sensor ingestion reaches the same tile state: global sensor g of
  // tile 2 is tile*N + local.
  const int64_t n = f.info.num_sensors;
  for (int64_t s = 0; s < f.settings.history; ++s) {
    for (int64_t i = 0; i < n; ++i) {
      const float v = w0.data()[i * f.settings.history + s];
      profile.PushSensor(2 * n + i, &v);
    }
  }
  ASSERT_TRUE(profile.TileReady(2));
  serve::Response r2 = profile.ForecastTile(2).get();
  ASSERT_TRUE(r2.ok);
  ExpectSameBits(r2.forecast, r0.forecast);

  const serve::ServerStats stats = profile.Stats();
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(profile.ShardStats().size(), 2u);
  std::remove(f.path.c_str());
}

TEST(ModelProfileTest, ReloadDrainsInFlightRequestsOnOldWeights) {
  Fixture f = MakeFixture("stwa_fleet_reload_a.bin", /*scaler_std=*/55.0f);
  // Same model, different scaler -> different output bytes, identical
  // geometry. ckpt_version records producer provenance.
  const std::string path_b = TempPath("stwa_fleet_reload_b.bin");
  f.info.scaler_std = 70.0f;
  f.info.ckpt_version = 2;
  serve::SaveServingCheckpoint(*f.model, f.info, path_b);

  FleetProfileConfig config = SmallProfile("cityA", f.path);
  config.max_batch = 8;
  ModelProfile profile(config);

  const Tensor window =
      ops::Slice(f.dataset.values, 1, 3, f.settings.history);
  WarmTile(profile, 1, window);

  auto session_a = serve::InferenceSession::Open(f.path);
  auto session_b = serve::InferenceSession::Open(path_b);
  const Tensor want_old = session_a->Forecast(window);
  const Tensor want_new = session_b->Forecast(window);
  ASSERT_NE(std::memcmp(want_old.data(), want_new.data(),
                        sizeof(float) * static_cast<size_t>(want_old.size())),
            0);

  // Enqueue three forecasts under a batch hold, so they are still queued
  // when the reload swaps generations; the retiring drain executes them.
  std::vector<std::future<serve::Response>> in_flight;
  ReloadResult reload;
  {
    struct HoldGuard {
      HoldGuard() { serve::internal::HoldBatchesForTest(true); }
      ~HoldGuard() { serve::internal::HoldBatchesForTest(false); }
    } hold;
    for (int i = 0; i < 3; ++i) in_flight.push_back(profile.ForecastTile(1));
    reload = profile.Reload(path_b);
  }
  EXPECT_EQ(reload.version, 2);
  EXPECT_EQ(reload.ckpt_version, 2);
  EXPECT_GT(reload.prepare_us, 0.0);
  EXPECT_GE(reload.swap_us, 0.0);
  EXPECT_GE(reload.drain_us, 0.0);
  EXPECT_EQ(profile.Version(), 2);
  EXPECT_EQ(profile.Info().ckpt_version, 2);

  // Drain-before-retire: every in-flight request completed (nothing
  // dropped) on the OLD generation's weights.
  for (auto& future : in_flight) {
    serve::Response resp = future.get();
    ASSERT_TRUE(resp.ok);
    EXPECT_FALSE(resp.degraded);
    ExpectSameBits(resp.forecast, want_old);
  }
  // The warmed ring survived the swap; new forecasts use the new bytes.
  ASSERT_TRUE(profile.TileReady(1));
  serve::Response after = profile.ForecastTile(1).get();
  ASSERT_TRUE(after.ok);
  ExpectSameBits(after.forecast, want_new);

  // Stats continuity: completions before the swap are merged from the
  // retired generation, not lost.
  const serve::ServerStats stats = profile.Stats();
  EXPECT_EQ(stats.completed, 4);
  EXPECT_EQ(stats.shed, 0);
  std::remove(f.path.c_str());
  std::remove(path_b.c_str());
}

TEST(ModelProfileTest, ReloadUnchangedFileIsBitIdentical) {
  Fixture f = MakeFixture("stwa_fleet_reload_same.bin");
  ModelProfile profile(SmallProfile("cityA", f.path));
  const Tensor window =
      ops::Slice(f.dataset.values, 1, 6, f.settings.history);
  WarmTile(profile, 3, window);
  serve::Response before = profile.ForecastTile(3).get();
  ASSERT_TRUE(before.ok);
  const ReloadResult reload = profile.Reload(f.path);
  EXPECT_EQ(reload.version, 2);
  serve::Response after = profile.ForecastTile(3).get();
  ASSERT_TRUE(after.ok);
  ExpectSameBits(after.forecast, before.forecast);
  std::remove(f.path.c_str());
}

TEST(ModelProfileTest, ReloadRejectsGeometryMismatchAndKeepsServing) {
  Fixture f = MakeFixture("stwa_fleet_geom_a.bin");
  Fixture wide = MakeFixture("stwa_fleet_geom_b.bin", 55.0f, /*roads=*/3);
  ModelProfile profile(SmallProfile("cityA", f.path));
  const Tensor window =
      ops::Slice(f.dataset.values, 1, 2, f.settings.history);
  WarmTile(profile, 0, window);

  EXPECT_THROW(profile.Reload(wide.path), Error);          // wrong N
  EXPECT_THROW(profile.Reload("/nonexistent/ckpt"), Error);
  EXPECT_EQ(profile.Version(), 1);  // old generation keeps serving
  serve::Response resp = profile.ForecastTile(0).get();
  EXPECT_TRUE(resp.ok);
  std::remove(f.path.c_str());
  std::remove(wide.path.c_str());
}

// ---------------------------------------------------------------------------
// ModelRegistry

TEST(ModelRegistryTest, LoadsProfilesConcurrentlyAndRoutesByName) {
  Fixture fa = MakeFixture("stwa_fleet_reg_a.bin");
  Fixture fb = MakeFixture("stwa_fleet_reg_b.bin", /*scaler_std=*/70.0f);
  std::vector<FleetProfileConfig> configs = {
      SmallProfile("cityA", fa.path), SmallProfile("cityB", fb.path)};
  ModelRegistry registry(configs);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"cityA", "cityB"}));
  ASSERT_NE(registry.Find("cityA"), nullptr);
  ASSERT_NE(registry.Find("cityB"), nullptr);
  EXPECT_EQ(registry.Find("cityC"), nullptr);
  EXPECT_THROW(registry.Get("cityC"), Error);
  EXPECT_EQ(&registry.Get("cityA"), registry.Find("cityA"));
  // The two profiles serve different checkpoints.
  EXPECT_NE(registry.Get("cityA").Info().scaler_std,
            registry.Get("cityB").Info().scaler_std);
  std::remove(fa.path.c_str());
  std::remove(fb.path.c_str());
}

TEST(ModelRegistryTest, RejectsDuplicateNamesAndPropagatesLoadErrors) {
  Fixture f = MakeFixture("stwa_fleet_reg_dup.bin");
  std::vector<FleetProfileConfig> dup = {SmallProfile("cityA", f.path),
                                         SmallProfile("cityA", f.path)};
  EXPECT_THROW(ModelRegistry{dup}, Error);
  // One good + one bad profile: the loader thread's exception reaches the
  // caller and the good profile is torn down cleanly.
  std::vector<FleetProfileConfig> bad = {
      SmallProfile("cityA", f.path),
      SmallProfile("cityB", "/nonexistent/ckpt")};
  EXPECT_THROW(ModelRegistry{bad}, Error);
  std::remove(f.path.c_str());
}

// ---------------------------------------------------------------------------
// Fleet line protocol

TEST(FleetLineSessionTest, RoutesProfilesAndCountsMalformedLines) {
  Fixture f = MakeFixture("stwa_fleet_proto.bin");
  FleetConfig config;
  FleetProfileConfig profile = SmallProfile("cityX", f.path);
  profile.tiles = 2;
  profile.shards = 1;
  config.profiles.push_back(profile);
  FleetNode node(config);
  FleetLineSession session(node);
  bool quit = false;

  EXPECT_FALSE(session.Handle("", &quit).has_value());
  EXPECT_FALSE(session.Handle("# comment", &quit).has_value());

  // Every malformed line gets an "err ..." response — wrong profile,
  // wrong verb, out-of-range tile/sensor, wrong value count, bad number —
  // and is counted, never forwarded to a shard worker.
  const std::vector<std::string> bad = {
      "nosuch forecast 0",
      "cityX frobnicate",
      "cityX obs 99 1 2 3 4",
      "cityX obs 0 1 2 3",          // needs N*F = 4 values
      "cityX obs 0 1 2 three 4",
      "cityX obs1 999 1",
      "cityX forecast 99",
      "tenant",
  };
  for (const std::string& line : bad) {
    auto resp = session.Handle(line, &quit);
    ASSERT_TRUE(resp.has_value()) << line;
    EXPECT_EQ(resp->rfind("err ", 0), 0u) << line << " -> " << *resp;
  }
  EXPECT_EQ(session.protocol_errors(),
            static_cast<int64_t>(bad.size()));
  EXPECT_EQ(node.Stats().protocol_errors,
            static_cast<int64_t>(bad.size()));

  // A forecast before warm-up reports progress, not an error.
  auto warming = session.Handle("cityX forecast 0", &quit);
  ASSERT_TRUE(warming.has_value());
  EXPECT_NE(warming->find("warming_up"), std::string::npos);

  // Warm tile 0 through the protocol, then forecast it.
  const int64_t n = f.info.num_sensors;
  const Tensor window =
      ops::Slice(f.dataset.values, 1, 0, f.settings.history);
  for (int64_t s = 0; s < f.settings.history; ++s) {
    std::string line = "cityX obs 0";
    for (int64_t i = 0; i < n; ++i) {
      line += ' ' + std::to_string(window.data()[i * f.settings.history + s]);
    }
    auto resp = session.Handle(line, &quit);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(*resp, "ok");
  }
  auto forecast = session.Handle("cityX forecast 0", &quit);
  ASSERT_TRUE(forecast.has_value());
  EXPECT_EQ(forecast->rfind("forecast ok=1", 0), 0u) << *forecast;

  auto profiles = session.Handle("profiles", &quit);
  ASSERT_TRUE(profiles.has_value());
  EXPECT_NE(profiles->find("cityX:gen=1"), std::string::npos);

  auto pstats = session.Handle("cityX stats", &quit);
  ASSERT_TRUE(pstats.has_value());
  EXPECT_EQ(pstats->rfind("stats ", 0), 0u);
  EXPECT_NE(pstats->find(" gen=1"), std::string::npos);
  EXPECT_NE(pstats->find(" s0.completed=1"), std::string::npos);

  auto nstats = session.Handle("stats", &quit);
  ASSERT_TRUE(nstats.has_value());
  EXPECT_EQ(nstats->rfind("fleetstats ", 0), 0u);
  EXPECT_NE(nstats->find("t.default.count=1"), std::string::npos);

  EXPECT_FALSE(quit);
  auto bye = session.Handle("quit", &quit);
  ASSERT_TRUE(bye.has_value());
  EXPECT_EQ(*bye, "bye");
  EXPECT_TRUE(quit);
  std::remove(f.path.c_str());
}

TEST(FleetLineSessionTest, NonFiniteObservationsLeaveTheTileUnchanged) {
  Fixture f = MakeFixture("stwa_fleet_proto_nonfinite.bin");
  FleetConfig config;
  FleetProfileConfig profile = SmallProfile("cityX", f.path);
  profile.tiles = 2;
  profile.shards = 1;
  config.profiles.push_back(profile);
  FleetNode node(config);
  FleetLineSession session(node);
  bool quit = false;

  const int64_t n = f.info.num_sensors;
  const int64_t h = f.settings.history;
  const Tensor series = ops::Slice(f.dataset.values, 1, 0, h + 1);
  auto obs_line = [&](int64_t step) {
    std::string line = "cityX obs 0";
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
  auto before = session.Handle("cityX forecast 0", &quit);
  ASSERT_TRUE(before.has_value());
  ASSERT_EQ(before->rfind("forecast ok=1 degraded=0", 0), 0u) << *before;

  // Tile 0 holds global sensors [0, n); each line targets one of them.
  const std::vector<std::string> bad = {
      "cityX obs 0 nan 200 200 200", "cityX obs 0 200 inf 200 200",
      "cityX obs 0 200 200 1e39 200", "cityX obs1 0 nan",
      "cityX obs1 1 -inf",            "cityX obs1 2 1e39",
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    auto resp = session.Handle(bad[i], &quit);
    ASSERT_TRUE(resp.has_value()) << bad[i];
    EXPECT_EQ(resp->rfind("err ", 0), 0u) << bad[i] << " -> " << *resp;
    EXPECT_EQ(session.protocol_errors(), static_cast<int64_t>(i + 1));
  }
  EXPECT_EQ(node.Stats().protocol_errors, static_cast<int64_t>(bad.size()));

  // Nothing reached the tile: the next forecast is the same bytes.
  auto after = session.Handle("cityX forecast 0", &quit);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*after, *before);
  // A finite observation does move it, so the comparison above can fail.
  ASSERT_EQ(*session.Handle(obs_line(h), &quit), "ok");
  auto moved = session.Handle("cityX forecast 0", &quit);
  ASSERT_TRUE(moved.has_value());
  EXPECT_NE(*moved, *before);
  std::remove(f.path.c_str());
}

TEST(FleetLineSessionTest, NonFiniteOutputIsWithheldCountedAndNeverMemoised) {
  // A checkpoint with one NaN weight: every forecast is flagged, counted
  // in the profile stats, and never memoised for the repeat read.
  Fixture f = MakeFixture("stwa_fleet_proto_nanweight.bin");
  Tensor weight = f.model->NamedParameters().back().second.value();
  weight.data()[0] = std::numeric_limits<float>::quiet_NaN();
  serve::SaveServingCheckpoint(*f.model, f.info, f.path);
  FleetConfig config;
  FleetProfileConfig profile = SmallProfile("cityX", f.path);
  profile.tiles = 1;
  profile.shards = 1;
  config.profiles.push_back(profile);
  FleetNode node(config);
  FleetLineSession session(node);
  bool quit = false;
  std::string obs_line = "cityX obs 0";
  for (int64_t i = 0; i < f.info.num_sensors; ++i) obs_line += " 120";
  for (int64_t s = 0; s < f.settings.history; ++s) {
    ASSERT_EQ(*session.Handle(obs_line, &quit), "ok");
  }
  for (int i = 0; i < 2; ++i) {
    auto resp = session.Handle("cityX forecast 0", &quit);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(*resp, "forecast ok=0 degraded=1 err=non_finite_output");
  }
  auto pstats = session.Handle("cityX stats", &quit);
  ASSERT_TRUE(pstats.has_value());
  EXPECT_NE(pstats->find(" non_finite=2 "), std::string::npos) << *pstats;
  EXPECT_NE(pstats->find(" queue_p99_us="), std::string::npos) << *pstats;
  EXPECT_NE(pstats->find(" sc_output_hits=0 "), std::string::npos)
      << *pstats;
  // Withheld answers are not completions.
  EXPECT_EQ(node.Stats().per_tenant.total_count(), 0);
  std::remove(f.path.c_str());
}

TEST(FleetLineSessionTest, ThrottledForecastHasDistinctFirstToken) {
  Fixture f = MakeFixture("stwa_fleet_throttle.bin");
  FleetConfig config;
  FleetProfileConfig profile = SmallProfile("cityX", f.path);
  profile.tiles = 1;
  profile.shards = 1;
  config.profiles.push_back(profile);
  // One token, essentially no refill: second forecast must throttle.
  config.quotas.emplace_back("capped",
                             TenantQuota{/*rate=*/1e-9, /*burst=*/1.0});
  FleetNode node(config);
  FleetLineSession session(node);
  bool quit = false;

  auto hello = session.Handle("tenant capped", &quit);
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(*hello, "ok tenant=capped");
  EXPECT_EQ(session.tenant(), "capped");

  const Tensor window =
      ops::Slice(f.dataset.values, 1, 1, f.settings.history);
  ModelProfile& cityx = node.registry().Get("cityX");
  WarmTile(cityx, 0, window);

  auto first = session.Handle("cityX forecast 0", &quit);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->rfind("forecast ok=1", 0), 0u) << *first;
  auto second = session.Handle("cityX forecast 0", &quit);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, "throttled tenant=capped profile=cityX");

  const FleetNodeStats stats = node.Stats();
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.throttled, 1);
  // Throttled requests are not protocol errors.
  EXPECT_EQ(stats.protocol_errors, 0);
  std::remove(f.path.c_str());
}

TEST(FleetLineSessionTest, ReloadCommandSwapsAndReportsFailuresSoftly) {
  Fixture f = MakeFixture("stwa_fleet_proto_reload.bin");
  FleetConfig config;
  FleetProfileConfig profile = SmallProfile("cityX", f.path);
  profile.tiles = 1;
  profile.shards = 1;
  config.profiles.push_back(profile);
  FleetNode node(config);
  FleetLineSession session(node);
  bool quit = false;

  auto ok = session.Handle("reload cityX " + f.path, &quit);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->rfind("reload ok=1 profile=cityX version=2", 0), 0u) << *ok;
  EXPECT_EQ(node.registry().Get("cityX").Version(), 2);

  // A well-formed reload of a bad file fails softly: ok=0, the old
  // generation keeps serving, and it is NOT a protocol error.
  auto bad = session.Handle("reload cityX /nonexistent/ckpt", &quit);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->rfind("reload ok=0 profile=cityX", 0), 0u) << *bad;
  EXPECT_EQ(node.registry().Get("cityX").Version(), 2);
  EXPECT_EQ(node.Stats().protocol_errors, 0);

  auto unknown = session.Handle("reload nosuch /tmp/x", &quit);
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(unknown->rfind("err ", 0), 0u);
  EXPECT_EQ(node.Stats().protocol_errors, 1);
  std::remove(f.path.c_str());
}

// ---------------------------------------------------------------------------
// Serial-kernel pinning (the fleet worker execution mode)

TEST(ScopedSerialRegionTest, PinsAndRestoresNested) {
  EXPECT_FALSE(runtime::InParallelRegion());
  {
    runtime::ScopedSerialRegion outer;
    EXPECT_TRUE(runtime::InParallelRegion());
    {
      runtime::ScopedSerialRegion inner;
      EXPECT_TRUE(runtime::InParallelRegion());
    }
    EXPECT_TRUE(runtime::InParallelRegion());
  }
  EXPECT_FALSE(runtime::InParallelRegion());
}

}  // namespace
}  // namespace fleet
}  // namespace stwa
