// Kernel microbenchmark: times the runtime-backed hot kernels (matmul,
// softmax, elementwise maps) across thread counts and writes
// bench_out/BENCH_kernels.json. This seeds the perf trajectory: later
// kernel/runtime PRs re-run it and diff the numbers.
//
// Beyond wall time, every measurement records the buffer-pool counters for
// one kernel invocation: `heap_allocs` (pool misses, i.e. real heap
// allocations) and `peak_bytes` (peak outstanding pooled bytes). Two extra
// sections probe the allocation work itself:
//   * dispatch: ops::UnaryOp (type-erased std::function) vs ops::UnaryMap
//     (inlined functor) on the same data — the de-virtualisation delta;
//   * train_step: heap allocations per training step on the quickstart
//     ST-WA config, pool on vs off (STWA_DISABLE_POOL A/B in one process);
//   * graph_plan: traced vs replayed train step on a captured execution
//     plan — wall time, tape nodes/bytes and pool traffic per step, plus
//     the per-OpKind forward/backward profile. The plan summary and the
//     traced-vs-replayed comparison also land in
//     bench_out/BENCH_graph.json.
//
// Thread counts swept: 1, 2, 4 and the runtime default (deduplicated).
// Each measurement is the best of several repetitions, so transient noise
// does not mask kernel-level changes.
//
// STWA_BENCH_SMOKE=1 shrinks sizes/reps/thread counts to a seconds-long CI
// smoke run that still exercises every section and emits the same JSON.

#include <algorithm>
#include <array>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "baselines/registry.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "data/sampler.h"
#include "data/traffic_generator.h"
#include "ir/plan.h"
#include "runtime/parallel.h"
#include "simd/gemm_lowp.h"
#include "simd/simd.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "train/trainer.h"

namespace stwa {
namespace bench {
namespace {

struct Measurement {
  std::string kernel;
  int64_t size = 0;
  int threads = 0;
  double seconds = 0.0;
  double gflops = 0.0;      // 0 when the kernel has no natural flop count
  uint64_t heap_allocs = 0;  // pool misses during one invocation
  uint64_t peak_bytes = 0;   // peak outstanding pooled bytes
};

/// Best-of-`reps` wall time of fn(), with one untimed warmup.
template <typename Fn>
double TimeBest(int reps, Fn&& fn) {
  fn();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

/// Runs fn() once under freshly reset pool counters and stores the
/// miss/peak columns into `m`.
template <typename Fn>
void CountAllocs(Measurement* m, Fn&& fn) {
  pool::ResetStats();
  fn();
  const pool::PoolStats s = pool::Stats();
  m->heap_allocs = s.misses;
  m->peak_bytes = s.peak_outstanding_bytes;
}

bool SmokeMode() { return GetEnvOr("STWA_BENCH_SMOKE", "") == "1"; }

std::vector<int> ThreadCounts() {
  std::vector<int> counts = {1, 2, 4, runtime::DefaultNumThreads()};
  if (SmokeMode()) counts = {1, runtime::DefaultNumThreads()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

/// ops::UnaryOp (std::function) vs ops::UnaryMap (inlined functor) on the
/// same buffer: the cost of type-erased elementwise dispatch.
void BenchDispatch(Rng& rng, std::vector<Measurement>* results) {
  const int64_t n = SmokeMode() ? (1 << 18) : (1 << 22);
  const int reps = SmokeMode() ? 3 : 8;
  Tensor x = Tensor::Randn({n}, rng);
  const std::function<float(float)> erased = [](float v) {
    return v * v + 1.0f;
  };
  const auto inlined = [](float v) { return v * v + 1.0f; };

  Measurement fn_m{"dispatch_function", n, runtime::NumThreads(), 0.0, 0.0};
  fn_m.seconds = TimeBest(reps, [&] { return ops::UnaryOp(x, erased); });
  CountAllocs(&fn_m, [&] { return ops::UnaryOp(x, erased); });
  results->push_back(fn_m);

  Measurement tmpl_m{"dispatch_template", n, runtime::NumThreads(), 0.0,
                     0.0};
  tmpl_m.seconds = TimeBest(reps, [&] { return ops::UnaryMap(x, inlined); });
  CountAllocs(&tmpl_m, [&] { return ops::UnaryMap(x, inlined); });
  results->push_back(tmpl_m);

  std::cout << "dispatch n=" << n
            << " std::function=" << fn_m.seconds * 1e3
            << " ms, template=" << tmpl_m.seconds * 1e3 << " ms ("
            << fn_m.seconds / tmpl_m.seconds << "x)\n";
}

// --- GEMM section (bench_out/BENCH_gemm.json) ----------------------------

/// Single-thread legacy-style scalar GEMM (i-k-j, k-blocked, zero-skip):
/// the loop tensor/ops.cc compiled before the SIMD layer, timed in-bench
/// as the baseline for the speedup column. The compiler may autovectorize
/// it exactly as it would in an STWA_NO_SIMD build, so the column reports
/// "SIMD kernel vs legacy kernel", not "SIMD vs strict one-lane code".
void LegacyGemmNN(const float* a, const float* b, float* c, int64_t m,
                  int64_t n, int64_t k) {
  constexpr int64_t kBlockK = 512;
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) crow[j] = 0.0f;
    for (int64_t k0 = 0; k0 < k; k0 += kBlockK) {
      const int64_t k1 = std::min(k, k0 + kBlockK);
      for (int64_t kk = k0; kk < k1; ++kk) {
        const float aik = a[i * k + kk];
        if (aik == 0.0f) continue;
        const float* brow = b + kk * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
  }
}

/// GEMM throughput on the shapes the quickstart ST-WA model emits
/// (projections, window-attention contractions, predictor head) plus the
/// 512^3 headline square, with a scalar-baseline speedup column. Writes
/// bench_out/BENCH_gemm.json.
void BenchGemm(Rng& rng, std::vector<Measurement>* results) {
  struct GemmRow {
    int64_t m, n, k;
    std::string variant;
    int threads;
    double seconds = 0.0;
    double gflops = 0.0;
    double scalar_seconds = 0.0;  // 0 outside the 1-thread NN rows
    double speedup = 0.0;
  };
  const bool smoke = SmokeMode();
  const int reps = smoke ? 2 : 6;
  // Smoke runs swap the 512^3 headline for a 192^3 square — still
  // packed-path territory, but seconds instead of minutes in CI.
  const int64_t square = smoke ? 192 : 512;
  const std::vector<std::array<int64_t, 3>> shapes = {
      {128, 16, 16},      // latent/projection: [batch*sensors, d, d]
      {1536, 16, 16},     // time-major projection sweep
      {128, 64, 144},     // predictor head: hidden x (horizon*12)
      {square, square, square}};  // headline square (packed-path territory)
  std::vector<GemmRow> rows;

  for (auto [m, n, k] : shapes) {
    Tensor a = Tensor::Randn({m, k}, rng);
    Tensor b = Tensor::Randn({k, n}, rng);
    Tensor bt = Tensor::Randn({n, k}, rng);
    Tensor at = Tensor::Randn({k, m}, rng);
    const double flops = 2.0 * m * n * k;

    // Scalar baseline: always single-thread, independent of the sweep.
    runtime::SetNumThreads(1);
    Tensor ref = Tensor::Uninit({m, n});
    const double scalar_sec = TimeBest(reps, [&] {
      LegacyGemmNN(a.data(), b.data(), ref.data(), m, n, k);
    });

    for (int threads : ThreadCounts()) {
      runtime::SetNumThreads(threads);
      GemmRow row{m, n, k, "nn", threads};
      row.seconds = TimeBest(reps, [&] { return ops::MatMul2D(a, b); });
      row.gflops = flops / row.seconds / 1e9;
      if (threads == 1) {
        row.scalar_seconds = scalar_sec;
        row.speedup = scalar_sec / row.seconds;
      }
      std::cout << "gemm " << m << "x" << n << "x" << k
                << " nn threads=" << threads << " " << row.seconds * 1e3
                << " ms (" << row.gflops << " GFLOP/s"
                << (threads == 1
                        ? ", " + FormatFloat(row.speedup, 2) + "x vs scalar"
                        : "")
                << ")\n";
      rows.push_back(row);

      // Transposed-operand variants (the backward-pass kernels) on the
      // headline shape only, to keep the sweep short.
      if (m == square && n == square) {
        GemmRow nt{m, n, k, "nt", threads};
        nt.seconds = TimeBest(reps, [&] { return ops::MatMulNT(a, bt); });
        nt.gflops = flops / nt.seconds / 1e9;
        rows.push_back(nt);
        GemmRow tn{m, n, k, "tn", threads};
        tn.seconds = TimeBest(reps, [&] { return ops::MatMulTN(at, b); });
        tn.gflops = flops / tn.seconds / 1e9;
        rows.push_back(tn);
        std::cout << "gemm " << m << "x" << n << "x" << k << " nt/tn threads="
                  << threads << " " << nt.gflops << " / " << tn.gflops
                  << " GFLOP/s\n";
      }
    }

    // The bf16 tier on the same op(B): panels packed once (as a serving
    // session does at open) and timed across the same thread sweep. The
    // flop count stays 2mnk — the gflops column reads as effective fp32
    // throughput, directly comparable to the nn rows.
    {
      const auto packed = simd::PackWeights(b.data(), k, n, /*trans=*/false);
      Tensor c = Tensor::Uninit({m, n});
      for (int threads : ThreadCounts()) {
        runtime::SetNumThreads(threads);
        GemmRow row{m, n, k, "bf16", threads};
        row.seconds = TimeBest(reps, [&] {
          simd::GemmLowp(a.data(), *packed, c.data(), m, /*trans_a=*/false);
        });
        row.gflops = flops / row.seconds / 1e9;
        rows.push_back(row);
        std::cout << "gemm " << m << "x" << n << "x" << k << " "
                  << row.variant << " threads=" << threads << " "
                  << row.seconds * 1e3 << " ms (" << row.gflops
                  << " GFLOP/s)\n";
      }
    }
    // The 1-thread headline also lands in BENCH_kernels.json for the
    // cross-PR trend line.
    Measurement m_out{std::string("gemm_") + std::to_string(m) + "x" +
                          std::to_string(n) + "x" + std::to_string(k),
                      m * n, 1, 0.0, 0.0};
    for (const GemmRow& r : rows) {
      if (r.m == m && r.variant == "nn" && r.threads == 1) {
        m_out.seconds = r.seconds;
        m_out.gflops = r.gflops;
      }
    }
    results->push_back(m_out);
  }
  runtime::SetNumThreads(0);

  // Per-tier headline summary (1-thread square): the acceptance ratios
  // the lowp PR gate reads from BENCH_gemm.json.
  const auto headline = [&](const std::string& variant) {
    for (const GemmRow& r : rows) {
      if (r.m == square && r.n == square && r.variant == variant &&
          r.threads == 1) {
        return r.gflops;
      }
    }
    return 0.0;
  };
  const double fp32_g = headline("nn");
  const double bf16_g = headline("bf16");
  std::cout << "gemm lowp " << square << "^3 1t: fp32 " << fp32_g
            << ", bf16 " << bf16_g << " ("
            << FormatFloat(fp32_g > 0 ? bf16_g / fp32_g : 0.0, 2)
            << "x) GFLOP/s, kernel=" << simd::LowpKernelName() << "\n";

  const std::string path = BenchOutPath("BENCH_gemm.json");
  std::ofstream out(path);
  out << "{\n  \"isa\": \"" << simd::IsaName()
      << "\",\n  \"lowp\": {\"kernel\": \""
      << simd::LowpKernelName() << "\", \"square\": " << square
      << ", \"fp32_gflops\": " << fp32_g << ", \"bf16_gflops\": " << bf16_g
      << ", \"bf16_vs_fp32\": " << (fp32_g > 0 ? bf16_g / fp32_g : 0.0)
      << "},\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const GemmRow& r = rows[i];
    out << "    {\"m\": " << r.m << ", \"n\": " << r.n << ", \"k\": " << r.k
        << ", \"variant\": \"" << r.variant
        << "\", \"threads\": " << r.threads << ", \"seconds\": " << r.seconds
        << ", \"gflops\": " << r.gflops
        << ", \"scalar_seconds\": " << r.scalar_seconds
        << ", \"speedup_vs_scalar\": " << r.speedup << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

/// Heap allocations per training step on the quickstart ST-WA config,
/// pool on vs off. Emits one `train_step` measurement per mode whose
/// `seconds` is wall time per step and `heap_allocs` is per-step.
void BenchTrainStep(std::vector<Measurement>* results) {
  data::GeneratorOptions gen;
  gen.name = "quickstart";
  gen.num_roads = 4;
  gen.sensors_per_road = 4;
  gen.num_days = SmokeMode() ? 4 : 10;
  gen.steps_per_day = 144;
  gen.seed = 2024;
  data::TrafficDataset dataset = data::GenerateTraffic(gen);

  baselines::ModelSettings settings;
  settings.history = 12;
  settings.horizon = 12;
  settings.d_model = 16;
  settings.window_sizes = {3, 2, 2};
  settings.latent_dim = 8;
  settings.predictor_hidden = 64;

  train::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 8;
  config.stride = 2;
  config.eval_stride = 3;
  config.max_batches_per_epoch = SmokeMode() ? 8 : 0;

  const bool pool_was_enabled = pool::Enabled();
  for (const bool pool_on : {true, false}) {
    pool::SetEnabled(pool_on);
    auto model = baselines::MakeModel("ST-WA", dataset, settings);
    train::Trainer trainer(dataset, settings.history, settings.horizon,
                           config);
    int64_t steps =
        (trainer.train_sampler().num_samples() + config.batch_size - 1) /
        config.batch_size;
    if (config.max_batches_per_epoch > 0) {
      steps = std::min(steps, config.max_batches_per_epoch);
    }
    pool::ResetStats();
    Stopwatch watch;
    train::TrainResult r = trainer.Fit(*model);
    const double secs = watch.ElapsedSeconds();
    const pool::PoolStats s = pool::Stats();
    const int64_t total_steps = steps * std::max(1, r.epochs_run);
    Measurement m{pool_on ? "train_step_pool_on" : "train_step_pool_off",
                  total_steps,
                  runtime::NumThreads(),
                  secs / total_steps,
                  0.0,
                  s.misses / static_cast<uint64_t>(total_steps),
                  s.peak_outstanding_bytes};
    results->push_back(m);
    std::cout << m.kernel << " steps=" << total_steps << " "
              << m.seconds * 1e3 << " ms/step, " << m.heap_allocs
              << " heap allocs/step, peak " << m.peak_bytes << " B\n";
  }
  pool::SetEnabled(pool_was_enabled);
}

/// Captures one ST-WA train-step execution plan on the quickstart config
/// and compares a traced (eager) step against a replayed step: wall time,
/// tape nodes/bytes and buffer-pool traffic per step. With profiling
/// enabled, the replay also yields a per-OpKind forward/backward cost
/// table. Emits `graph_*` measurements into BENCH_kernels.json and the
/// full plan summary + per-op table into bench_out/BENCH_graph.json.
void BenchGraphPlan(std::vector<Measurement>* results) {
  data::GeneratorOptions gen;
  gen.name = "quickstart";
  gen.num_roads = 4;
  gen.sensors_per_road = 4;
  gen.num_days = SmokeMode() ? 4 : 10;
  gen.steps_per_day = 144;
  gen.seed = 2024;
  data::TrafficDataset dataset = data::GenerateTraffic(gen);

  baselines::ModelSettings settings;
  settings.history = 12;
  settings.horizon = 12;
  settings.d_model = 16;
  settings.window_sizes = {3, 2, 2};
  settings.latent_dim = 8;
  settings.predictor_hidden = 64;

  train::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 8;

  auto model = baselines::MakeModel("ST-WA", dataset, settings);
  train::Trainer trainer(dataset, settings.history, settings.horizon,
                         config);
  std::vector<ag::Var> params = model->Parameters();
  const data::WindowSampler& sampler = trainer.train_sampler();
  auto batches = sampler.EpochBatches(config.batch_size, nullptr);
  data::Batch batch;
  sampler.MakeBatchInto(batches[0], &batch);

  // The same step the trainer runs: forward, Huber + regulariser, backward.
  auto traced_step = [&] {
    for (ag::Var& p : params) p.ZeroGrad();
    ag::Var pred = model->Forward(batch.x, /*training=*/true);
    ag::Var loss = ag::HuberLoss(pred, ag::Var(batch.y), 1.0f);
    ag::Var reg = model->RegularizationLoss();
    if (reg.defined()) loss = ag::Add(loss, reg);
    loss.Backward();
    return loss;
  };

  std::unique_ptr<ir::ExecutionPlan> plan;
  {
    ir::GraphCapture capture;
    ag::Var loss = traced_step();
    plan = capture.Finish(loss, {batch.x, batch.y}, /*with_backward=*/true);
  }
  if (plan == nullptr) {
    std::cout << "graph_plan: capture was unplannable, section skipped\n";
    return;
  }
  const ir::PlanStats& stats = plan->stats();
  auto replayed_step = [&] {
    for (ag::Var& p : params) p.ZeroGrad();
    plan->ReplayTrainStep({batch.x, batch.y});
  };

  const int reps = SmokeMode() ? 3 : 10;
  const int threads = runtime::NumThreads();

  Measurement traced_m{"graph_traced_step", stats.forward_ops, threads, 0.0,
                       0.0};
  traced_m.seconds = TimeBest(reps, traced_step);
  pool::ResetStats();
  traced_step();
  const pool::PoolStats traced_pool = pool::Stats();
  traced_m.heap_allocs = traced_pool.misses;
  traced_m.peak_bytes = traced_pool.peak_outstanding_bytes;
  results->push_back(traced_m);

  Measurement replay_m{"graph_replayed_step", stats.forward_ops, threads,
                       0.0, 0.0};
  replay_m.seconds = TimeBest(reps, replayed_step);
  pool::ResetStats();
  replayed_step();
  const pool::PoolStats replay_pool = pool::Stats();
  replay_m.heap_allocs = replay_pool.misses;
  replay_m.peak_bytes = replay_pool.peak_outstanding_bytes;
  results->push_back(replay_m);

  std::cout << "graph_plan: " << stats.captured_nodes << " nodes captured ("
            << stats.forward_ops << " fwd ops, " << stats.backward_ops
            << " bwd ops, " << stats.pruned_ops << " pruned)\n"
            << "  traced   " << traced_m.seconds * 1e3 << " ms/step, "
            << stats.forward_ops << " tape nodes, " << stats.tape_value_bytes
            << " tape B, " << traced_pool.requests << " buffer reqs, "
            << traced_m.heap_allocs << " heap allocs\n"
            << "  replayed " << replay_m.seconds * 1e3 << " ms/step, 0 tape "
            << "nodes, " << stats.peak_live_bytes << " peak live B, "
            << replay_pool.requests << " buffer reqs, "
            << replay_m.heap_allocs << " heap allocs ("
            << traced_m.seconds / replay_m.seconds << "x)\n";

  // Per-OpKind profile over a fixed number of instrumented replays.
  const int profile_reps = SmokeMode() ? 4 : 16;
  plan->EnableProfiling(true);
  for (int r = 0; r < profile_reps; ++r) replayed_step();
  plan->EnableProfiling(false);
  std::vector<ir::OpProfile> profile = plan->Profile();
  // Costliest kinds first, so both stdout and the JSON lead with the
  // kernels that dominate the step.
  std::sort(profile.begin(), profile.end(),
            [](const ir::OpProfile& a, const ir::OpProfile& b) {
              return a.forward_seconds + a.backward_seconds >
                     b.forward_seconds + b.backward_seconds;
            });
  std::cout << "  per-op profile (" << profile_reps << " replays):\n";
  for (const ir::OpProfile& p : profile) {
    const double fwd_ms = p.forward_seconds * 1e3 / profile_reps;
    const double bwd_ms = p.backward_seconds * 1e3 / profile_reps;
    std::cout << "    " << p.name << ": fwd " << p.forward_calls / profile_reps
              << " calls " << FormatFloat(fwd_ms, 3) << " ms, bwd "
              << p.backward_calls / profile_reps << " calls "
              << FormatFloat(bwd_ms, 3) << " ms, "
              << p.buffer_requests / profile_reps << " buffer reqs\n";
    Measurement op_m{std::string("graph_op_") + p.name,
                     p.forward_calls / profile_reps,
                     threads,
                     (p.forward_seconds + p.backward_seconds) / profile_reps,
                     0.0,
                     p.heap_allocs / static_cast<uint64_t>(profile_reps),
                     0};
    results->push_back(op_m);
  }

  const std::string path = BenchOutPath("BENCH_graph.json");
  std::ofstream out(path);
  out << "{\n  \"model\": \"ST-WA\",\n  \"batch_x\": \""
      << ShapeToString(batch.x.shape()) << "\",\n  \"plan\": {"
      << "\"captured_nodes\": " << stats.captured_nodes
      << ", \"forward_ops\": " << stats.forward_ops
      << ", \"backward_ops\": " << stats.backward_ops
      << ", \"pruned_ops\": " << stats.pruned_ops
      << ", \"tape_value_bytes\": " << stats.tape_value_bytes
      << ", \"peak_live_bytes\": " << stats.peak_live_bytes
      << ", \"released_buffers\": " << stats.released_buffers << "},\n"
      << "  \"traced\": {\"seconds_per_step\": " << traced_m.seconds
      << ", \"tape_nodes_per_step\": " << stats.forward_ops
      << ", \"tape_value_bytes\": " << stats.tape_value_bytes
      << ", \"buffer_requests\": " << traced_pool.requests
      << ", \"heap_allocs\": " << traced_m.heap_allocs << "},\n"
      << "  \"replayed\": {\"seconds_per_step\": " << replay_m.seconds
      << ", \"tape_nodes_per_step\": 0"
      << ", \"peak_live_bytes\": " << stats.peak_live_bytes
      << ", \"buffer_requests\": " << replay_pool.requests
      << ", \"heap_allocs\": " << replay_m.heap_allocs << "},\n"
      << "  \"replay_speedup\": " << traced_m.seconds / replay_m.seconds
      << ",\n  \"profile_replays\": " << profile_reps
      << ",\n  \"ops\": [\n";
  for (size_t i = 0; i < profile.size(); ++i) {
    const ir::OpProfile& p = profile[i];
    out << "    {\"name\": \"" << p.name
        << "\", \"forward_calls\": " << p.forward_calls / profile_reps
        << ", \"backward_calls\": " << p.backward_calls / profile_reps
        << ", \"forward_seconds\": " << p.forward_seconds / profile_reps
        << ", \"backward_seconds\": " << p.backward_seconds / profile_reps
        << ", \"buffer_requests\": " << p.buffer_requests / profile_reps
        << ", \"heap_allocs\": "
        << p.heap_allocs / static_cast<uint64_t>(profile_reps) << "}"
        << (i + 1 < profile.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

void Run() {
  ReportRuntime();
  Rng rng(77);
  std::vector<Measurement> results;
  const bool smoke = SmokeMode();
  if (smoke) std::cout << "[bench] smoke mode (STWA_BENCH_SMOKE=1)\n";

  std::vector<int64_t> matmul_sizes = {64, 128, 256, 512, 1024};
  if (smoke) matmul_sizes = {64, 128, 256};
  for (int threads : ThreadCounts()) {
    runtime::SetNumThreads(threads);

    for (int64_t s : matmul_sizes) {
      Tensor a = Tensor::Randn({s, s}, rng);
      Tensor b = Tensor::Randn({s, s}, rng);
      const int reps = smoke ? 2 : (s >= 512 ? 3 : 8);
      Measurement m{"matmul", s, threads, 0.0, 0.0};
      m.seconds = TimeBest(reps, [&] { return ops::MatMul2D(a, b); });
      CountAllocs(&m, [&] { return ops::MatMul2D(a, b); });
      const double flops = 2.0 * s * s * s;
      m.gflops = flops / m.seconds / 1e9;
      results.push_back(m);
      std::cout << "matmul " << s << "x" << s << " threads=" << threads
                << " " << m.seconds * 1e3 << " ms (" << m.gflops
                << " GFLOP/s)\n";
    }

    {
      // Rows of 512: the shape window attention produces.
      const int64_t rows = smoke ? 256 : 4096;
      Tensor x = Tensor::Randn({rows, 512}, rng);
      Measurement m{"softmax", rows * 512, threads, 0.0, 0.0};
      m.seconds =
          TimeBest(smoke ? 3 : 8, [&] { return ops::SoftmaxLast(x); });
      CountAllocs(&m, [&] { return ops::SoftmaxLast(x); });
      results.push_back(m);
      std::cout << "softmax " << rows << "x512 threads=" << threads << " "
                << m.seconds * 1e3 << " ms\n";
    }

    {
      const int64_t n = smoke ? (1 << 18) : (1 << 22);  // 4M floats full
      Tensor x = Tensor::Randn({n}, rng);
      Tensor y = Tensor::Randn({n}, rng);
      Measurement add_m{"add", n, threads, 0.0, 0.0};
      add_m.seconds = TimeBest(smoke ? 3 : 8, [&] { return ops::Add(x, y); });
      CountAllocs(&add_m, [&] { return ops::Add(x, y); });
      results.push_back(add_m);
      std::cout << "add " << n << " threads=" << threads << " "
                << add_m.seconds * 1e3 << " ms\n";
      Measurement tanh_m{"tanh", n, threads, 0.0, 0.0};
      tanh_m.seconds = TimeBest(smoke ? 3 : 8, [&] { return ops::Tanh(x); });
      CountAllocs(&tanh_m, [&] { return ops::Tanh(x); });
      results.push_back(tanh_m);
      std::cout << "tanh " << n << " threads=" << threads << " "
                << tanh_m.seconds * 1e3 << " ms\n";
      // In-place vs out-of-place: the allocation-free fused path.
      Measurement axpy_m{"axpy_inplace", n, threads, 0.0, 0.0};
      Tensor dst = Tensor::Randn({n}, rng);
      axpy_m.seconds = TimeBest(smoke ? 3 : 8,
                                [&] { ops::AxpyInPlace(dst, 0.5f, y); });
      CountAllocs(&axpy_m, [&] { ops::AxpyInPlace(dst, 0.5f, y); });
      results.push_back(axpy_m);
      std::cout << "axpy_inplace " << n << " threads=" << threads << " "
                << axpy_m.seconds * 1e3 << " ms\n";
    }

    BenchDispatch(rng, &results);
  }
  runtime::SetNumThreads(0);

  BenchGemm(rng, &results);
  BenchTrainStep(&results);
  BenchGraphPlan(&results);

  // Headline number for the PR gate: 512x512 matmul speedup over 1 thread.
  double base512 = 0.0;
  for (const Measurement& m : results) {
    if (m.kernel == "matmul" && m.size == 512 && m.threads == 1) {
      base512 = m.seconds;
    }
  }
  for (const Measurement& m : results) {
    if (m.kernel == "matmul" && m.size == 512 && m.threads != 1 &&
        base512 > 0.0) {
      std::cout << "matmul 512 speedup at " << m.threads
                << " threads: " << base512 / m.seconds << "x\n";
    }
  }
  // And the allocation headline: pool-off vs pool-on allocs per step.
  uint64_t allocs_on = 0, allocs_off = 0;
  for (const Measurement& m : results) {
    if (m.kernel == "train_step_pool_on") allocs_on = m.heap_allocs;
    if (m.kernel == "train_step_pool_off") allocs_off = m.heap_allocs;
  }
  if (allocs_off > 0) {
    std::cout << "train-step heap allocs: pool off " << allocs_off
              << "/step, pool on " << allocs_on << "/step ("
              << (allocs_on > 0
                      ? static_cast<double>(allocs_off) / allocs_on
                      : static_cast<double>(allocs_off))
              << "x fewer)\n";
  }

  const std::string path = BenchOutPath("BENCH_kernels.json");
  std::ofstream out(path);
  out << "{\n  \"simd\": \"" << simd::IsaName()
      << "\",\n  \"measurements\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    out << "    {\"kernel\": \"" << m.kernel << "\", \"size\": " << m.size
        << ", \"threads\": " << m.threads << ", \"seconds\": " << m.seconds
        << ", \"gflops\": " << m.gflops
        << ", \"heap_allocs\": " << m.heap_allocs
        << ", \"peak_bytes\": " << m.peak_bytes << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace
}  // namespace bench
}  // namespace stwa

int main() {
  stwa::bench::Run();
  return 0;
}
