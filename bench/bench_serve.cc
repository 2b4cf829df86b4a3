// Serving load generator: measures micro-batching throughput and latency
// against the batch-size-1 baseline on one frozen ST-WA checkpoint, and
// verifies that every served forecast is bit-identical to the offline
// InferenceSession answer for the same window (batching must never change
// the bytes). Writes bench_out/BENCH_serve.json with throughput and
// p50/p95/p99 latency per mode.
//
// Three reduced-precision sections ride on top (DESIGN.md §4g):
//   * tier_throughput — batch-16 server throughput per weight tier
//     (fp32/bf16) on a GEMM-heavier frozen ST-WA, with per-tier
//     served-vs-offline bit checks;
//   * tier_determinism — per tier, forecasts swept across {1,4} threads x
//     {single, batched} must reproduce the ambient reference byte-for-byte
//     (the intra-tier determinism contract);
//   * tier_accuracy — every registered Table IV model: MAE/RMSE vs ground
//     truth per tier and the relative delta vs fp32. The run fails if
//     bf16 MAE drifts > 0.1% relative, or any bit check fires.
//
// STWA_BENCH_SMOKE=1 shrinks the request count and the accuracy model
// list to a seconds-long CI run that still produces the same JSON.

#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "data/traffic_generator.h"
#include "ir/plan.h"
#include "metrics/metrics.h"
#include "runtime/parallel.h"
#include "serve/checkpoint.h"
#include "serve/inference_session.h"
#include "serve/server.h"
#include "serve/stream_cache.h"
#include "serve/stream_state.h"
#include "simd/lowp.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"

namespace stwa {
namespace bench {
namespace {

struct ModeResult {
  std::string name;
  int64_t max_batch = 0;
  double seconds = 0.0;
  double rps = 0.0;
  double mean_batch = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  int64_t mismatches = 0;
};

/// The serving tiers, fp32 first (index 0 is the accuracy reference).
constexpr std::array<simd::Precision, 2> kTiers = {simd::Precision::kFp32,
                                                   simd::Precision::kBf16};

/// Relative MAE drift bound of bf16 vs fp32, percent.
constexpr double kBf16MaeDeltaBoundPct = 0.1;

struct TierDeterminism {
  std::string precision;
  int64_t checks = 0;
  int64_t mismatches = 0;
};

/// MAE/RMSE vs ground truth per tier for one registry model, plus the
/// relative drift vs the fp32 row.
struct TierAccuracy {
  std::string model;
  std::array<double, 2> mae = {0.0, 0.0};
  std::array<double, 2> rmse = {0.0, 0.0};
  double mae_delta_pct = 0.0;  // bf16 vs fp32
  double rmse_delta_pct = 0.0;
};

/// One streaming workload arm: live streams advancing one observation at
/// a time, `reads_per_obs` forecasts per advance, cache-off vs cache-on.
struct StreamingArm {
  std::string name;
  std::string model;
  int64_t reads_per_obs = 1;
  int64_t forecasts = 0;
  double cold_rps = 0.0;
  double warm_rps = 0.0;
  double speedup = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;  // warm-run latency
  int64_t output_hits = 0, cache_misses = 0;
  int64_t stale = 0, bypass = 0;
  /// Served-vs-offline byte mismatches, summed over cold + warm runs
  /// (the cache-on vs cache-off identity check).
  int64_t mismatches = 0;
  /// Pool counters across the warm timed loop: buffer requests and the
  /// subset that had to heap-allocate (steady state should recycle).
  uint64_t warm_pool_requests = 0;
  uint64_t warm_heap_allocs = 0;
};

void Run() {
  // All checkpoints this bench writes are first-generation serving
  // artifacts of the "serve-bench" profile.
  SetRunCheckpoint("serve-bench", 1);
  ReportRuntime();
  const bool smoke = GetEnvIntOr("STWA_BENCH_SMOKE", 0) != 0;
  const int64_t num_requests = smoke ? 64 : 512;
  const int64_t distinct_windows = smoke ? 16 : 32;

  // A frozen ST-WA at quickstart-like scale. Weights are random-init:
  // the bench measures serving mechanics, and the bit-identity check is
  // equally strict for any weights.
  data::GeneratorOptions gen;
  gen.name = "serve-bench";
  gen.num_roads = 2;
  gen.sensors_per_road = 2;
  gen.num_days = 2;
  gen.steps_per_day = 96;
  gen.seed = 11;
  data::TrafficDataset dataset = data::GenerateTraffic(gen);

  // Latency-bound serving scale: per-sample tensors are small, so the
  // fixed per-forward cost (op dispatch, graph walk, allocations) is the
  // dominant term that batching amortises.
  baselines::ModelSettings settings;
  settings.history = 12;
  settings.horizon = 12;
  settings.d_model = 8;
  settings.window_sizes = {3, 2, 2};
  settings.latent_dim = 4;
  settings.predictor_hidden = 16;
  settings.seed = 3;
  auto model = baselines::MakeModel("ST-WA", dataset, settings);

  data::StandardScaler scaler;
  scaler.Fit(dataset.values, dataset.num_steps() * 6 / 10);
  serve::ServingInfo info;
  info.model = "ST-WA";
  info.settings = settings;
  info.num_sensors = dataset.num_sensors();
  info.num_features = dataset.num_features();
  info.scaler_mean = scaler.mean();
  info.scaler_std = scaler.stddev();
  const std::string ckpt = BenchOutPath("serve_ckpt.bin");
  serve::SaveServingCheckpoint(*model, info, ckpt);

  // Distinct raw input windows sliced out of the generated series.
  std::vector<Tensor> windows;
  for (int64_t r = 0; r < distinct_windows; ++r) {
    const int64_t anchor = r * 7 % (dataset.num_steps() - settings.history);
    windows.push_back(
        ops::Slice(dataset.values, 1, anchor, settings.history));
  }

  // Offline reference: one session, batch of 1, no queueing.
  auto offline = serve::InferenceSession::Open(ckpt);
  std::vector<Tensor> expected;
  for (const Tensor& w : windows) expected.push_back(offline->Forecast(w));

  // Execution-plan A/B: the reference above ran under the ambient plan
  // mode (captured forward plans replayed per window shape). Re-forecast
  // every window with plans globally disabled — pure eager tracing — and
  // demand the same bytes. Replay must never change a served forecast.
  const bool plan_was_enabled = ir::PlanModeEnabled();
  int64_t plan_ab_mismatches = 0;
  {
    ir::SetPlanMode(!plan_was_enabled);
    auto flipped = serve::InferenceSession::Open(ckpt);
    for (size_t i = 0; i < windows.size(); ++i) {
      Tensor got = flipped->Forecast(windows[i]);
      if (std::memcmp(got.data(), expected[i].data(),
                      sizeof(float) * static_cast<size_t>(
                                          expected[i].size())) != 0) {
        ++plan_ab_mismatches;
      }
    }
    ir::SetPlanMode(plan_was_enabled);
  }
  std::cout << "plan on/off offline A/B: " << windows.size() << " windows, "
            << plan_ab_mismatches << " mismatches\n";

  // One server load run: `requests` submissions over `wins`, every
  // response memcmp'd against `want` (the offline per-window reference for
  // the same session config).
  auto run_mode = [](const std::string& name, int64_t max_batch,
                     const std::string& ckpt_path,
                     const std::vector<Tensor>& wins,
                     const std::vector<Tensor>& want, int64_t requests,
                     const serve::SessionConfig& session) {
    serve::ServerOptions opts;
    opts.workers = 1;
    opts.batching.max_batch = max_batch;
    opts.batching.capacity = requests + 1;
    opts.default_deadline = std::chrono::seconds(300);
    opts.session = session;
    serve::Server server(ckpt_path, opts);

    const int64_t n_wins = static_cast<int64_t>(wins.size());
    ModeResult result;
    result.name = name;
    result.max_batch = max_batch;
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(static_cast<size_t>(requests));
    Stopwatch watch;
    for (int64_t i = 0; i < requests; ++i) {
      futures.push_back(server.Submit(wins[i % n_wins]));
    }
    for (int64_t i = 0; i < requests; ++i) {
      serve::Response resp = futures[static_cast<size_t>(i)].get();
      const Tensor& ref = want[i % n_wins];
      if (!resp.ok ||
          std::memcmp(resp.forecast.data(), ref.data(),
                      sizeof(float) * static_cast<size_t>(ref.size())) !=
              0) {
        ++result.mismatches;
      }
    }
    result.seconds = watch.ElapsedSeconds();
    result.rps = static_cast<double>(requests) / result.seconds;
    serve::ServerStats stats = server.Stats();
    result.mean_batch = stats.mean_batch;
    result.p50 = stats.latency.p50();
    result.p95 = stats.latency.p95();
    result.p99 = stats.latency.p99();
    return result;
  };

  std::vector<ModeResult> results;
  results.push_back(run_mode("batch1", 1, ckpt, windows, expected,
                             num_requests, serve::SessionConfig()));
  results.push_back(run_mode("batch4", 4, ckpt, windows, expected,
                             num_requests, serve::SessionConfig()));
  results.push_back(run_mode("batch16", 16, ckpt, windows, expected,
                             num_requests, serve::SessionConfig()));

  const double speedup = results.back().rps / results.front().rps;
  std::cout << "\nserve load test: " << num_requests << " requests over "
            << distinct_windows << " windows, N=" << info.num_sensors
            << ", H=" << settings.history << " -> U=" << settings.horizon
            << "\n";
  for (const ModeResult& m : results) {
    std::cout << "  " << m.name << ": " << FormatFloat(m.rps, 1)
              << " req/s, mean batch " << FormatFloat(m.mean_batch, 2)
              << ", p50 " << FormatFloat(m.p50 / 1000.0, 2) << "ms p95 "
              << FormatFloat(m.p95 / 1000.0, 2) << "ms p99 "
              << FormatFloat(m.p99 / 1000.0, 2) << "ms, mismatches "
              << m.mismatches << "\n";
  }
  std::cout << "batched (16) vs batch-1 throughput: "
            << FormatFloat(speedup, 2) << "x\n";

  // --- Reduced-precision tiers ------------------------------------------

  // GEMM-heavier frozen ST-WA: at d_model 32 / predictor hidden 256 the
  // projection and predictor GEMMs dominate the forward pass, so the
  // weight tier moves end-to-end throughput instead of vanishing into
  // dispatch overhead.
  baselines::ModelSettings heavy = settings;
  heavy.d_model = 32;
  heavy.predictor_hidden = 256;
  heavy.latent_dim = 8;
  heavy.seed = 5;
  auto heavy_model = baselines::MakeModel("ST-WA", dataset, heavy);
  serve::ServingInfo heavy_info = info;
  heavy_info.settings = heavy;
  const std::string heavy_ckpt = BenchOutPath("serve_ckpt_heavy.bin");
  serve::SaveServingCheckpoint(*heavy_model, heavy_info, heavy_ckpt);

  const int64_t tier_requests = smoke ? 48 : 256;
  std::vector<ModeResult> tier_modes;
  std::vector<TierDeterminism> tier_det;
  std::cout << "\ntier serving (d_model=" << heavy.d_model << ", hidden="
            << heavy.predictor_hidden << ", batch 16, " << tier_requests
            << " requests):\n";
  for (const simd::Precision tier : kTiers) {
    serve::SessionConfig cfg;
    cfg.precision = tier;

    // Ambient-mode offline reference for this tier: the byte pattern
    // every sweep combination below must reproduce.
    std::vector<Tensor> tier_expected;
    {
      auto session = serve::InferenceSession::Open(heavy_ckpt, cfg);
      for (const Tensor& w : windows) {
        tier_expected.push_back(session->Forecast(w));
      }
    }

    ModeResult m = run_mode(simd::PrecisionName(tier), 16, heavy_ckpt,
                            windows, tier_expected, tier_requests, cfg);
    tier_modes.push_back(m);
    std::cout << "  " << m.name << ": " << FormatFloat(m.rps, 1)
              << " req/s, mean batch " << FormatFloat(m.mean_batch, 2)
              << ", p50 " << FormatFloat(m.p50 / 1000.0, 2)
              << "ms, served-vs-offline mismatches " << m.mismatches << "\n";

    // Intra-tier determinism: {1,4} threads x {single, batched} must all
    // reproduce the reference bytes.
    const int64_t bs = 8;
    const int64_t sample =
        info.num_sensors * settings.history * info.num_features;
    Tensor batched = Tensor::Uninit(
        {bs, info.num_sensors, settings.history, info.num_features});
    for (int64_t i = 0; i < bs; ++i) {
      std::memcpy(batched.data() + i * sample,
                  windows[static_cast<size_t>(i % distinct_windows)].data(),
                  sizeof(float) * static_cast<size_t>(sample));
    }
    TierDeterminism det;
    det.precision = simd::PrecisionName(tier);
    for (const int threads : {1, 4}) {
      runtime::SetNumThreads(threads);
      auto s = serve::InferenceSession::Open(heavy_ckpt, cfg);
      for (size_t i = 0; i < windows.size(); ++i) {
        Tensor got = s->Forecast(windows[i]);
        ++det.checks;
        if (std::memcmp(got.data(), tier_expected[i].data(),
                        sizeof(float) * static_cast<size_t>(
                                            tier_expected[i].size())) !=
            0) {
          ++det.mismatches;
        }
      }
      Tensor bout = s->Forecast(batched);
      for (int64_t i = 0; i < bs; ++i) {
        const Tensor& ref =
            tier_expected[static_cast<size_t>(i % distinct_windows)];
        ++det.checks;
        if (std::memcmp(bout.data() + i * ref.size(), ref.data(),
                        sizeof(float) * static_cast<size_t>(ref.size())) !=
            0) {
          ++det.mismatches;
        }
      }
    }
    runtime::SetNumThreads(0);
    tier_det.push_back(det);
    std::cout << "  " << det.precision
              << " determinism sweep ({1,4}t x {1," << bs
              << "}batch): " << det.checks << " checks, "
              << det.mismatches << " bit mismatches\n";
  }
  const double bf16_vs_fp32 =
      tier_modes[0].rps > 0 ? tier_modes[1].rps / tier_modes[0].rps : 0.0;
  std::cout << "  batch-16 throughput vs fp32: bf16 "
            << FormatFloat(bf16_vs_fp32, 2) << "x\n";

  // Accuracy across the model registry: random-init weights (the drift
  // under quantisation is a property of the numerics, not of training),
  // forecasts scored against the series' true continuation.
  std::vector<std::string> acc_models = baselines::AllBaselineNames();
  acc_models.insert(acc_models.begin(), "ST-WA");
  if (smoke) acc_models = {"ST-WA", "STGCN", "AGCRN"};
  std::vector<std::pair<Tensor, Tensor>> eval_pairs;
  const int64_t max_anchor =
      dataset.num_steps() - settings.history - settings.horizon;
  const int64_t n_eval = smoke ? 6 : 12;
  for (int64_t e = 0; e < n_eval; ++e) {
    const int64_t anchor = e * 13 % max_anchor;
    eval_pairs.emplace_back(
        ops::Slice(dataset.values, 1, anchor, settings.history),
        ops::Slice(dataset.values, 1, anchor + settings.history,
                   settings.horizon));
  }
  std::vector<TierAccuracy> acc_rows;
  bool acc_violation = false;
  const std::string acc_ckpt = BenchOutPath("serve_acc_ckpt.bin");
  std::cout << "\ntier accuracy (" << acc_models.size() << " models, "
            << n_eval << " eval windows):\n";
  for (const std::string& name : acc_models) {
    auto acc_model = baselines::MakeModel(name, dataset, settings);
    serve::ServingInfo acc_info = info;
    acc_info.model = name;
    serve::SaveServingCheckpoint(*acc_model, acc_info, acc_ckpt);
    TierAccuracy row;
    row.model = name;
    for (size_t t = 0; t < kTiers.size(); ++t) {
      serve::SessionConfig cfg;
      cfg.precision = kTiers[t];
      auto s = serve::InferenceSession::Open(acc_ckpt, dataset, cfg);
      metrics::MetricAccumulator acc;
      for (const auto& [win, truth] : eval_pairs) {
        acc.Add(s->Forecast(win), truth);
      }
      const metrics::ForecastMetrics fm = acc.Result();
      row.mae[t] = fm.mae;
      row.rmse[t] = fm.rmse;
    }
    if (row.mae[0] > 0.0) {
      row.mae_delta_pct =
          100.0 * std::abs(row.mae[1] - row.mae[0]) / row.mae[0];
    }
    if (row.rmse[0] > 0.0) {
      row.rmse_delta_pct =
          100.0 * std::abs(row.rmse[1] - row.rmse[0]) / row.rmse[0];
    }
    if (row.mae_delta_pct > kBf16MaeDeltaBoundPct) acc_violation = true;
    acc_rows.push_back(row);
    std::cout << "  " << name << ": fp32 MAE " << FormatFloat(row.mae[0], 3)
              << ", bf16 delta " << FormatFloat(row.mae_delta_pct, 4)
              << "%\n";
  }

  // --- Forecast hot-path allocation audit --------------------------------
  // Steady-state Forecast must not touch the heap: scaler staging and
  // output assembly reuse session buffers, kernel intermediates recycle
  // through the pool. `requests` counts pool round-trips (expected, they
  // hit free lists); `misses` counts real heap allocations (expected 0).
  double alloc_requests_per_call = 0.0;
  double alloc_heap_per_call = 0.0;
  {
    auto alloc_sess = serve::InferenceSession::Open(ckpt);
    for (int i = 0; i < 8; ++i) alloc_sess->Forecast(windows[0]);  // warm
    pool::ResetStats();
    const int64_t iters = 64;
    for (int64_t i = 0; i < iters; ++i) alloc_sess->Forecast(windows[0]);
    const pool::PoolStats ps = pool::Stats();
    alloc_requests_per_call =
        static_cast<double>(ps.requests) / static_cast<double>(iters);
    alloc_heap_per_call =
        static_cast<double>(ps.misses) / static_cast<double>(iters);
  }
  std::cout << "\nforecast hot path (steady state): "
            << FormatFloat(alloc_requests_per_call, 2)
            << " pool requests/call, " << FormatFloat(alloc_heap_per_call, 3)
            << " heap allocations/call\n";

  // --- Streaming repeat reads (output memo) -------------------------------
  // Live streams: each pushes one observation per step into a StreamState
  // and requests `reads_per_obs` forecasts per advance (dashboards poll
  // more often than sensors report). Cache-off and cache-on runs submit
  // identical traffic; every response is memcmp'd against the offline
  // plain-Forecast answer, so the cache-on bytes equal the cache-off
  // bytes transitively.
  const int64_t stream_count = 3;
  const int64_t obs_steps = smoke ? 48 : 120;
  std::vector<StreamingArm> stream_arms;
  auto run_streaming = [&](const std::string& arm_name,
                           const std::string& model_name,
                           int64_t reads_per_obs) {
    auto stream_model = baselines::MakeModel(model_name, dataset, settings);
    serve::ServingInfo stream_info = info;
    stream_info.model = model_name;
    const std::string stream_ckpt =
        BenchOutPath("serve_stream_" + arm_name + ".bin");
    serve::SaveServingCheckpoint(*stream_model, stream_info, stream_ckpt);

    StreamingArm arm;
    arm.name = arm_name;
    arm.model = model_name;
    arm.reads_per_obs = reads_per_obs;

    // One full obs->forecast loop against a fresh single-worker server.
    // Returns elapsed seconds; collects (window, forecast) pairs for the
    // post-hoc bit check so the reference recompute stays off the clock.
    auto drive = [&](bool cache_on, double* out_seconds,
                     std::vector<std::pair<Tensor, Tensor>>* served,
                     serve::ServerStats* out_stats) {
      serve::SetStreamCacheMode(cache_on);
      serve::ServerOptions opts;
      opts.workers = 1;
      opts.batching.max_batch = 1;
      opts.batching.capacity = 1 << 16;
      opts.default_deadline = std::chrono::seconds(300);
      serve::Server server(stream_ckpt, opts);
      std::vector<serve::StreamState> states;
      for (int64_t s = 0; s < stream_count; ++s) {
        states.emplace_back(info.num_sensors, settings.history,
                            info.num_features);
      }
      std::vector<float> row(static_cast<size_t>(info.num_sensors *
                                                 info.num_features));
      if (cache_on) pool::ResetStats();
      Stopwatch watch;
      for (int64_t t = 0; t < obs_steps; ++t) {
        for (int64_t s = 0; s < stream_count; ++s) {
          // Stream s walks its own slice of the generated series.
          const Tensor col =
              ops::Slice(dataset.values, 1, t + s * 29, 1);  // [N, 1, F]
          std::memcpy(row.data(), col.data(),
                      sizeof(float) * row.size());
          states[static_cast<size_t>(s)].Push(row);
          if (!states[static_cast<size_t>(s)].ready()) continue;
          Tensor window = states[static_cast<size_t>(s)].Window().Reshape(
              {info.num_sensors, settings.history, info.num_features});
          for (int64_t r = 0; r < reads_per_obs; ++r) {
            serve::Response resp =
                server
                    .Submit(window, /*stream_id=*/s,
                            states[static_cast<size_t>(s)].anchor())
                    .get();
            if (!resp.ok) {
              ++arm.mismatches;
              continue;
            }
            served->emplace_back(window, resp.forecast);
          }
        }
      }
      *out_seconds = watch.ElapsedSeconds();
      if (cache_on) {
        const pool::PoolStats ps = pool::Stats();
        arm.warm_pool_requests = ps.requests;
        arm.warm_heap_allocs = ps.misses;
      }
      *out_stats = server.Stats();
    };

    double cold_s = 0.0, warm_s = 0.0;
    std::vector<std::pair<Tensor, Tensor>> cold_served, warm_served;
    serve::ServerStats cold_stats, warm_stats;
    drive(/*cache_on=*/false, &cold_s, &cold_served, &cold_stats);
    drive(/*cache_on=*/true, &warm_s, &warm_served, &warm_stats);
    serve::SetStreamCacheMode(true);

    arm.forecasts = static_cast<int64_t>(warm_served.size());
    arm.cold_rps = static_cast<double>(cold_served.size()) / cold_s;
    arm.warm_rps = static_cast<double>(warm_served.size()) / warm_s;
    arm.speedup = arm.warm_rps > 0.0 ? arm.warm_rps / arm.cold_rps : 0.0;
    arm.p50 = warm_stats.latency.p50();
    arm.p95 = warm_stats.latency.p95();
    arm.p99 = warm_stats.latency.p99();
    arm.output_hits = warm_stats.stream_cache.output_hits;
    arm.cache_misses = warm_stats.stream_cache.misses;
    arm.stale = warm_stats.stream_cache.stale_rejected;
    arm.bypass = warm_stats.stream_cache.bypass;

    // Bit check: cold and warm responses against the offline session's
    // plain Forecast of the very same window bytes.
    auto stream_offline = serve::InferenceSession::Open(stream_ckpt);
    for (const auto* served : {&cold_served, &warm_served}) {
      for (const auto& [window, forecast] : *served) {
        Tensor ref = stream_offline->Forecast(window);
        if (forecast.shape() != ref.shape() ||
            std::memcmp(forecast.data(), ref.data(),
                        sizeof(float) *
                            static_cast<size_t>(ref.size())) != 0) {
          ++arm.mismatches;
        }
      }
    }
    stream_arms.push_back(arm);
    std::cout << "  " << arm.name << " (" << arm.model << ", reads/obs="
              << arm.reads_per_obs << "): cold "
              << FormatFloat(arm.cold_rps, 1) << " -> warm "
              << FormatFloat(arm.warm_rps, 1) << " req/s ("
              << FormatFloat(arm.speedup, 2) << "x), hits "
              << arm.output_hits << " output, misses " << arm.cache_misses
              << ", stale "
              << arm.stale << ", p50 " << FormatFloat(arm.p50 / 1000.0, 2)
              << "ms, mismatches " << arm.mismatches << ", warm heap allocs "
              << arm.warm_heap_allocs << "\n";
  };

  std::cout << "\nstreaming repeat reads (" << stream_count
            << " streams, " << obs_steps << " obs steps each):\n";
  // Read-heavy ST-WA: the acceptance arm (dashboards poll between
  // observations, repeat reads are answered from the cached output).
  run_streaming("stwa_reads3", "ST-WA", 3);
  const double stream_speedup = stream_arms.front().speedup;
  std::cout << "streaming repeat-forecast speedup (cache on vs off): "
            << FormatFloat(stream_speedup, 2) << "x\n";

  const std::string path = BenchOutPath("BENCH_serve.json");
  std::ofstream out(path);
  out << "{\n  \"profile\": \"" << RunProfileName()
      << "\",\n  \"ckpt_version\": " << RunCheckpointVersion()
      << ",\n  \"num_requests\": " << num_requests
      << ",\n  \"distinct_windows\": " << distinct_windows
      << ",\n  \"num_sensors\": " << info.num_sensors
      << ",\n  \"history\": " << settings.history
      << ",\n  \"horizon\": " << settings.horizon
      << ",\n  \"batched_vs_batch1_speedup\": " << speedup
      << ",\n  \"plan_ab_mismatches\": " << plan_ab_mismatches
      << ",\n  \"modes\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ModeResult& m = results[i];
    out << "    {\"mode\": \"" << m.name << "\", \"max_batch\": "
        << m.max_batch << ", \"seconds\": " << m.seconds
        << ", \"requests_per_second\": " << m.rps
        << ", \"mean_batch\": " << m.mean_batch << ", \"p50_us\": " << m.p50
        << ", \"p95_us\": " << m.p95 << ", \"p99_us\": " << m.p99
        << ", \"bit_mismatches\": " << m.mismatches << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"tier_throughput\": {\"requests\": " << tier_requests
      << ", \"d_model\": " << heavy.d_model
      << ", \"predictor_hidden\": " << heavy.predictor_hidden
      << ", \"bf16_vs_fp32\": " << bf16_vs_fp32 << ", \"modes\": [\n";
  for (size_t i = 0; i < tier_modes.size(); ++i) {
    const ModeResult& m = tier_modes[i];
    out << "    {\"precision\": \"" << m.name
        << "\", \"requests_per_second\": " << m.rps
        << ", \"mean_batch\": " << m.mean_batch << ", \"p50_us\": " << m.p50
        << ", \"bit_mismatches\": " << m.mismatches << "}"
        << (i + 1 < tier_modes.size() ? "," : "") << "\n";
  }
  out << "  ]},\n  \"tier_determinism\": [\n";
  for (size_t i = 0; i < tier_det.size(); ++i) {
    const TierDeterminism& d = tier_det[i];
    out << "    {\"precision\": \"" << d.precision
        << "\", \"checks\": " << d.checks
        << ", \"bit_mismatches\": " << d.mismatches << "}"
        << (i + 1 < tier_det.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"tier_accuracy\": [\n";
  for (size_t i = 0; i < acc_rows.size(); ++i) {
    const TierAccuracy& r = acc_rows[i];
    out << "    {\"model\": \"" << r.model << "\", \"fp32_mae\": " << r.mae[0]
        << ", \"fp32_rmse\": " << r.rmse[0] << ", \"bf16_mae\": " << r.mae[1]
        << ", \"bf16_rmse\": " << r.rmse[1]
        << ", \"bf16_mae_delta_pct\": " << r.mae_delta_pct
        << ", \"bf16_rmse_delta_pct\": " << r.rmse_delta_pct << "}"
        << (i + 1 < acc_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"forecast_allocs\": {\"pool_requests_per_call\": "
      << alloc_requests_per_call << ", \"heap_allocs_per_call\": "
      << alloc_heap_per_call << "},\n  \"streaming\": {\"streams\": "
      << stream_count << ", \"obs_steps\": " << obs_steps
      << ", \"speedup\": " << stream_speedup << ", \"arms\": [\n";
  for (size_t i = 0; i < stream_arms.size(); ++i) {
    const StreamingArm& a = stream_arms[i];
    out << "    {\"arm\": \"" << a.name << "\", \"model\": \"" << a.model
        << "\", \"reads_per_obs\": " << a.reads_per_obs
        << ", \"forecasts\": " << a.forecasts
        << ", \"cold_rps\": " << a.cold_rps
        << ", \"warm_rps\": " << a.warm_rps << ", \"speedup\": " << a.speedup
        << ", \"p50_us\": " << a.p50 << ", \"p95_us\": " << a.p95
        << ", \"p99_us\": " << a.p99 << ", \"output_hits\": " << a.output_hits
        << ", \"cache_misses\": " << a.cache_misses
        << ", \"stale_rejected\": " << a.stale
        << ", \"bypass\": " << a.bypass
        << ", \"bit_mismatches\": " << a.mismatches
        << ", \"warm_pool_requests\": " << a.warm_pool_requests
        << ", \"warm_heap_allocs\": " << a.warm_heap_allocs << "}"
        << (i + 1 < stream_arms.size() ? "," : "") << "\n";
  }
  out << "  ]}\n}\n";
  std::cout << "wrote " << path << "\n";
  if (results.front().mismatches + results.back().mismatches > 0) {
    std::cerr << "ERROR: served forecasts diverged from offline eval\n";
    std::exit(1);
  }
  if (plan_ab_mismatches > 0) {
    std::cerr << "ERROR: plan-replayed forecasts diverged from eager\n";
    std::exit(1);
  }
  for (const ModeResult& m : tier_modes) {
    if (m.mismatches > 0) {
      std::cerr << "ERROR: " << m.name
                << " served forecasts diverged from the tier's offline "
                   "reference\n";
      std::exit(1);
    }
  }
  for (const TierDeterminism& d : tier_det) {
    if (d.mismatches > 0) {
      std::cerr << "ERROR: " << d.precision
                << " forecasts are not bit-identical across threads/"
                   "batching\n";
      std::exit(1);
    }
  }
  if (acc_violation) {
    std::cerr << "ERROR: bf16 MAE drifted past its 0.1% bound vs fp32\n";
    std::exit(1);
  }
  for (const StreamingArm& a : stream_arms) {
    if (a.mismatches > 0) {
      std::cerr << "ERROR: streaming arm " << a.name
                << " served bytes that diverged from the plain Forecast "
                   "path (cache must never change forecasts)\n";
      std::exit(1);
    }
    if (a.stale > 0) {
      std::cerr << "ERROR: streaming arm " << a.name
                << " hit stale-generation cache entries\n";
      std::exit(1);
    }
    if (a.output_hits <= 0) {
      std::cerr << "ERROR: streaming arm " << a.name
                << " recorded zero memo hits — repeat reads were "
                   "recomputed\n";
      std::exit(1);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace stwa

int main() {
  stwa::bench::Run();
  return 0;
}
