// Per-layer probes of one model: each times a layer's public entry point
// directly (inference session, buffer pool, captured plan, ST-WA modules,
// GEMM kernel, runtime fork-join) with the workload's own model geometry.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "autograd/no_grad.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "core/latent.h"
#include "core/param_decoder.h"
#include "core/proxy_aggregator.h"
#include "core/sensor_attention.h"
#include "core/window_attention.h"
#include "fleet/profile.h"
#include "ir/plan.h"
#include "layers.h"
#include "nn/mlp.h"
#include "runtime/parallel.h"
#include "serve/checkpoint.h"
#include "serve/inference_session.h"
#include "serve/stream_cache.h"
#include "simd/gemm.h"
#include "tensor/buffer_pool.h"
#include "workloads.h"

namespace perfbench {

using stwa::Shape;
using stwa::Tensor;
namespace ag = stwa::ag;

namespace {

/// Each probe repeats its call for at least this long (and kMinReps
/// times) and reports the median.
constexpr double kProbeSeconds = 0.25;
constexpr int kMinReps = 15;

/// Median seconds of `fn` over a time-bounded number of calls.
double MedianSeconds(const std::function<void()>& fn) {
  std::vector<double> t;
  const double end = NowSeconds() + kProbeSeconds;
  while (static_cast<int>(t.size()) < kMinReps || NowSeconds() < end) {
    const double t0 = NowSeconds();
    fn();
    t.push_back(NowSeconds() - t0);
    if (t.size() >= 100000) break;
  }
  return Median(t);
}

/// Window [N, 12, 1] of synthetic flows ending at step `last` (tile 0).
Tensor RawWindow(int64_t n, uint64_t seed, int64_t last) {
  Tensor w(Shape{n, 12, 1});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t s = 0; s < 12; ++s) {
      w.data()[i * 12 + s] = FlowValue(seed, 0, i, last - 11 + s);
    }
  }
  return w;
}

Tensor Random(Shape shape, stwa::Rng& rng) { return Tensor::Randn(shape, rng); }

}  // namespace

const char* const kForwardOpKinds[] = {
    "fused_attention", "matmul", "fused_map", "permute",
    "transpose_last2", "add", "slice", "reshape",
    "concat", "sum", "log", "mean_all"};
const size_t kNumForwardOpKinds = std::size(kForwardOpKinds);
const char* const kTrainOpKinds[] = {
    "matmul", "add", "reshape", "permute",
    "transpose_last2", "slice", "softmax_last", "relu",
    "concat", "mul", "mul_scalar", "sum"};
const size_t kNumTrainOpKinds = std::size(kTrainOpKinds);

void AddOpProfile(const std::vector<stwa::ir::OpProfile>& profile, int reps,
                  const char* prefix, const char* const* kinds, size_t count,
                  Report* report) {
  std::map<std::string, double> us;
  for (const stwa::ir::OpProfile& p : profile) {
    us[p.name] = (p.forward_seconds + p.backward_seconds) * 1e6 /
                 static_cast<double>(reps);
  }
  // Every kind of the plan, by self time, for the log.
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [name, v] : us) ranked.emplace_back(v, name);
  std::sort(ranked.rbegin(), ranked.rend());
  for (const auto& [v, name] : ranked) {
    std::printf("  %s%s self %.2f us/replay\n", prefix, name.c_str(), v);
  }
  for (size_t k = 0; k < count; ++k) {
    auto it = us.find(kinds[k]);
    report->Add(std::string(prefix) + kinds[k] + ".self_us",
                it == us.end() ? 0.0 : it->second, "us");
  }
}

void ProbeModelLayers(const std::string& ckpt,
                      const stwa::baselines::ModelSettings& settings,
                      int64_t num_sensors, int64_t batch, uint64_t seed,
                      Report* report) {
  const int64_t n = num_sensors;
  // Fleet shard workers run their kernels serially by default; the model
  // probes run the way a shard worker would.
  std::optional<stwa::runtime::ScopedSerialRegion> serial;
  if (stwa::fleet::FleetProfileConfig().serial_kernels) serial.emplace();

  // --- serve.inference_session ------------------------------------------
  report->Add("session.open_ms", MedianSeconds([&] {
                stwa::serve::InferenceSession::Open(ckpt);
              }) * 1e3,
              "ms");
  auto session = stwa::serve::InferenceSession::Open(ckpt);
  const Tensor w1 = RawWindow(n, seed, 40);
  session->Forecast(w1);  // captures the B=1 plan
  report->Add("session.forecast_b1_us",
              MedianSeconds([&] { session->Forecast(w1); }) * 1e6, "us");
  Tensor w4(Shape{4, n, 12, 1});
  for (int64_t b = 0; b < 4; ++b) {
    const Tensor w = RawWindow(n, seed, 40 + b);
    std::copy(w.data(), w.data() + w.size(), w4.data() + b * w.size());
  }
  session->Forecast(w4);
  report->Add("session.forecast_b4_us",
              MedianSeconds([&] { session->Forecast(w4); }) * 1e6, "us");
  {
    // Shift hits: a live stream advancing one step per call.
    stwa::serve::StreamCache cache(1);
    int64_t last = 100;
    session->ForecastStream(RawWindow(n, seed, last), 0, last, &cache, 1);
    std::vector<double> t;
    const double t_end = NowSeconds() + kProbeSeconds;
    while (static_cast<int>(t.size()) < kMinReps || NowSeconds() < t_end) {
      ++last;
      const Tensor w = RawWindow(n, seed, last);
      const double t0 = NowSeconds();
      session->ForecastStream(w, 0, last, &cache, 1);
      t.push_back(NowSeconds() - t0);
    }
    report->Add("session.stream_shift_us", Median(t) * 1e6, "us");
    // Output hits: the same window again.
    const Tensor same = RawWindow(n, seed, last);
    session->ForecastStream(same, 0, last, &cache, 1);
    report->Add("session.stream_output_hit_us", MedianSeconds([&] {
                  session->ForecastStream(same, 0, last, &cache, 1);
                }) * 1e6,
                "us");
    const stwa::serve::StreamCacheStats st = cache.Stats();
    std::printf("  stream probe: shift_hits=%lld output_hits=%lld misses=%lld "
                "bypass=%lld\n",
                static_cast<long long>(st.shift_hits),
                static_cast<long long>(st.output_hits),
                static_cast<long long>(st.misses),
                static_cast<long long>(st.bypass));
  }

  // --- tensor.buffer_pool -------------------------------------------------
  {
    constexpr int kCalls = 50;
    const stwa::pool::PoolStats a = stwa::pool::Stats();
    for (int k = 0; k < kCalls; ++k) session->Forecast(w1);
    const stwa::pool::PoolStats b = stwa::pool::Stats();
    report->Add("pool.requests_per_forecast",
                static_cast<double>(b.requests - a.requests) / kCalls, "count");
    report->Add("pool.heap_allocs_per_forecast",
                static_cast<double>(b.misses - a.misses) / kCalls, "count");
  }

  // --- ir: the forward plan of the served model ---------------------------
  const stwa::serve::ServingInfo info = stwa::serve::ReadServingInfo(ckpt);
  auto model = stwa::baselines::MakeModel(
      info.model, stwa::serve::StubDataset(info), settings);
  {
    ag::NoGradMode no_grad;
    stwa::Rng rng(seed);
    const Tensor x = Random(Shape{1, n, 12, 1}, rng);
    const double t0 = NowSeconds();
    stwa::ir::GraphCapture capture;
    ag::Var out = model->Forward(x, /*training=*/false);
    std::unique_ptr<stwa::ir::ExecutionPlan> plan =
        capture.Finish(out, {x}, /*with_backward=*/false);
    report->Add("ir.capture_ms", (NowSeconds() - t0) * 1e3, "ms");
    if (plan == nullptr) {
      throw std::runtime_error("forward plan not capturable");
    }
    report->Add("ir.replay_fwd_us",
                MedianSeconds([&] { plan->ReplayForward({x}); }) * 1e6, "us");
    report->Add("ir.fwd_steps",
                static_cast<double>(plan->forward_steps().size()), "count");
    plan->EnableProfiling(true);
    int reps = 0;
    MedianSeconds([&] {
      plan->ReplayForward({x});
      ++reps;
    });
    AddOpProfile(plan->Profile(), reps, "ir.op.", kForwardOpKinds,
                 kNumForwardOpKinds, report);
  }

  // --- core: the ST-WA modules, standalone, under NoGradMode --------------
  {
    ag::NoGradMode no_grad;
    stwa::Rng rng(seed);
    const int64_t d = settings.d_model;
    const int64_t k = settings.latent_dim;
    stwa::core::LatentConfig lc;
    lc.num_sensors = n;
    lc.history = settings.history;
    lc.features = 1;
    lc.latent_dim = k;
    stwa::core::StLatent latent(lc, &rng);
    stwa::Rng noise(seed + 1);
    const ag::Var x{Random(Shape{batch, n, 12, 1}, rng)};
    report->Add("core.latent_us", MedianSeconds([&] {
                  latent.Forward(x, /*training=*/false, noise);
                }) * 1e6,
                "us");
    const ag::Var theta = latent.Forward(x, false, noise);
    stwa::core::DecoderConfig dc;
    dc.latent_dim = k;
    stwa::core::ParamDecoder decoder(dc, d, d, &rng);
    report->Add("core.param_decoder_us",
                MedianSeconds([&] { decoder.Forward(theta); }) * 1e6, "us");
    const ag::Var proj = decoder.Forward(theta);
    stwa::core::WindowAttentionConfig wc;
    wc.num_sensors = n;
    wc.input_len = settings.history;
    wc.window = settings.window_sizes.front();
    wc.proxies = settings.proxies;
    wc.heads = settings.heads;
    wc.d_in = d;
    wc.d_model = d;
    wc.st_aware = true;
    stwa::core::WindowAttentionLayer attention(wc, &rng);
    const ag::Var h{Random(Shape{batch, n, settings.history, d}, rng)};
    report->Add("core.window_attention_us", MedianSeconds([&] {
                  attention.Forward(h, proj, proj);
                }) * 1e6,
                "us");
    const int64_t windows = settings.history / settings.window_sizes.front();
    stwa::core::SensorCorrelationAttention sensor(d, /*st_aware=*/false, &rng);
    const ag::Var folded{Random(Shape{batch * windows, n, d}, rng)};
    report->Add("core.sensor_attention_us",
                MedianSeconds([&] { sensor.Forward(folded); }) * 1e6, "us");
    stwa::core::ProxyAggregator aggregator(
        stwa::core::AggregatorKind::kWeighted, d, &rng);
    const ag::Var proxies{Random(Shape{batch, n, settings.proxies, d}, rng)};
    report->Add("core.proxy_aggregator_us",
                MedianSeconds([&] { aggregator.Forward(proxies); }) * 1e6,
                "us");
    stwa::nn::Mlp predictor({settings.predictor_hidden,
                             settings.predictor_hidden, settings.horizon},
                            stwa::nn::Activation::kRelu,
                            stwa::nn::Activation::kNone, &rng);
    const ag::Var skip{Random(Shape{batch, n, settings.predictor_hidden}, rng)};
    report->Add("core.predictor_us",
                MedianSeconds([&] { predictor.Forward(skip); }) * 1e6, "us");
  }

  // --- simd: the model's largest dense GEMM shapes ------------------------
  {
    // Every rank-2 weight [in, out] of the model applied to batch * N rows,
    // ranked by flops. Bytes are computed from the operand sizes.
    std::set<std::tuple<int64_t, int64_t, int64_t>> shapes;
    for (const ag::Var& p : model->Parameters()) {
      if (p.value().rank() == 2) {
        shapes.emplace(batch * n, p.value().dim(0), p.value().dim(1));
      }
    }
    std::vector<std::tuple<int64_t, int64_t, int64_t>> ranked(shapes.begin(),
                                                              shapes.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      const auto fa = std::get<0>(a) * std::get<1>(a) * std::get<2>(a);
      const auto fb = std::get<0>(b) * std::get<1>(b) * std::get<2>(b);
      return fa != fb ? fa > fb : a < b;
    });
    stwa::Rng rng(seed);
    for (int r = 0; r < kGemmRanks; ++r) {
      double gflops = 0.0, bytes = 0.0;
      if (r < static_cast<int>(ranked.size())) {
        const auto [m, kk, nn] = ranked[static_cast<size_t>(r)];
        const Tensor a = Random(Shape{m, kk}, rng);
        const Tensor b = Random(Shape{kk, nn}, rng);
        Tensor c(Shape{m, nn});
        const double s = MedianSeconds([&] {
          stwa::simd::Gemm2D(a.data(), b.data(), c.data(), m, nn, kk, false,
                             false);
        });
        gflops = 2.0 * static_cast<double>(m * kk * nn) / s * 1e-9;
        bytes = 4.0 * static_cast<double>(m * kk + kk * nn + m * nn);
        std::printf("  gemm rank%d: %lldx%lldx%lld  %.2f GFLOP/s\n", r + 1,
                    static_cast<long long>(m), static_cast<long long>(kk),
                    static_cast<long long>(nn), gflops);
      }
      const std::string key = "simd.gemm.rank" + std::to_string(r + 1);
      report->Add(key + ".gflops", gflops, "GFLOP/s");
      report->Add(key + ".bytes", bytes, "bytes");
    }
  }
  serial.reset();

  // --- runtime: fork-join of an empty body at default threads -------------
  const int64_t threads = stwa::runtime::NumThreads();
  report->Add("runtime.fork_join_us", MedianSeconds([&] {
                stwa::runtime::ParallelFor(0, threads, 1,
                                           [](int64_t, int64_t) {});
              }) * 1e6,
              "us");
}

}  // namespace perfbench
