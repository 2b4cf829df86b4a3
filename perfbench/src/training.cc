// train_pems08: steady-state ST-WA training on the PEMS08-like dataset at
// batch 8 through train::StepEngine (the engine behind Trainer::Fit), plus
// the training-path probes every workload's traced run shares.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "autograd/ops.h"
#include "baselines/registry.h"
#include "common/rng.h"
#include "data/traffic_generator.h"
#include "ir/plan.h"
#include "layers.h"
#include "optim/optimizer.h"
#include "runtime/parallel.h"
#include "train/step_engine.h"
#include "train/trainer.h"
#include "workloads.h"

namespace perfbench {

using stwa::Tensor;

namespace {

constexpr int64_t kBatch = 8;
constexpr int64_t kHistory = 12;

/// Training cycles per run, each on a fresh set-up: as many as --seconds
/// allows, at least kMinCycles. Optimizer steps per cycle after the
/// capturing one are fixed, so the validation MAE after a cycle depends
/// only on the seed and the cycle. Many short cycles rather than a few long
/// ones, so that setup_s is a median of many set-ups spread over the run.
constexpr int kMinCycles = 10;
constexpr int64_t kStepsPerCycle = 100;
/// Validation passes per cycle (the first scores MAE, all are timed).
constexpr int kEvalPasses = 1;
/// B=1 forward calls per cycle for the single-window rate.
constexpr int kSingleReps = 120;

/// Validation MAE (flow units) after a cycle, averaged over the run's
/// cycles, on the PEMS08-like dataset at the seed commit, and the
/// tolerance every run must stay within. The batch order follows --seed
/// and the cycle, so one cycle's MAE varies by several units (25.7-34.0
/// over two seeds); the run means of 10-37 cycles spread 27.4-28.9 over 41
/// runs. A broken kernel, gradient or optimizer moves it far more.
constexpr double kReferenceMae = 28.0;
constexpr double kMaeTolerance = 2.0;

double Seconds(double t0) { return NowSeconds() - t0; }

/// 90th percentile of a sample of operation times. The host alternates, in
/// stretches of a tenth of a second to minutes, between a slow mode and one
/// about 1.6 times faster; a run may spend anywhere from none to four fifths
/// of its time in the fast one. The median and the mean follow that share
/// and spread 10-24 % between runs of the same code, the upper quartile up
/// to 17 %; the 90th percentile stays in the slow mode unless the fast one
/// holds nine tenths of the run.
double P90(const std::vector<double>& v) {
  return Percentile(v, 9000).value_or(INFINITY);
}

/// Prints percentiles of a sample of operation times (seconds) in ms.
void PrintTimes(const char* what, const std::vector<double>& v) {
  std::printf("  %-18s n=%zu p25 %.4f ms, p50 %.4f ms, p75 %.4f ms, "
              "p90 %.4f ms\n",
              what, v.size(), Percentile(v, 2500).value_or(NAN) * 1e3,
              Median(v) * 1e3, Percentile(v, 7500).value_or(NAN) * 1e3,
              P90(v) * 1e3);
}

stwa::train::TrainConfig Config() {
  stwa::train::TrainConfig c;
  c.batch_size = kBatch;
  return c;
}

}  // namespace

stwa::baselines::ModelSettings TrainSettings() {
  return stwa::baselines::ModelSettings();
}

const ServingSpec& TrainServeSpec() {
  static const ServingSpec spec = [] {
    const stwa::baselines::ModelSettings m = TrainSettings();
    ServingSpec s = Pems08City();
    s.name = "train_pems08";
    s.num_sensors = stwa::data::Pems08Profile().num_roads *
                    stwa::data::Pems08Profile().sensors_per_road;
    s.d_model = m.d_model;
    s.predictor_hidden = m.predictor_hidden;
    s.latent_dim = m.latent_dim;
    s.light_rps = 100.0;
    s.heavy_rps = 250.0;
    s.probe_batch = kBatch;
    return s;
  }();
  return spec;
}

void ProbeTrainLayers(const stwa::data::TrafficDataset& dataset,
                      const stwa::baselines::ModelSettings& settings,
                      uint64_t seed, Report* report) {
  namespace ag = stwa::ag;
  stwa::train::Trainer trainer(dataset, kHistory, settings.horizon, Config());
  const auto& sampler = trainer.train_sampler();
  stwa::Rng order(seed);
  const auto batches = sampler.EpochBatches(kBatch, &order);
  stwa::data::Batch batch;
  std::vector<double> make_us;
  for (size_t i = 0; i < std::min<size_t>(200, batches.size()); ++i) {
    const double t0 = NowSeconds();
    sampler.MakeBatchInto(batches[i], &batch);
    make_us.push_back(Seconds(t0) * 1e6);
  }
  report->Add("train.make_batch_us", Median(make_us), "us");

  auto model = stwa::baselines::MakeModel("ST-WA", dataset, settings);
  stwa::train::StepEngine engine(*model, stwa::train::StepEngineConfig());
  sampler.MakeBatchInto(batches[0], &batch);
  double t0 = NowSeconds();
  engine.Step(batch);
  report->Add("train.capture_ms", Seconds(t0) * 1e3, "ms");
  std::vector<double> step_ms;
  for (size_t i = 1; i < std::min<size_t>(21, batches.size()); ++i) {
    if (batches[i].size() != static_cast<size_t>(kBatch)) continue;
    sampler.MakeBatchInto(batches[i], &batch);
    t0 = NowSeconds();
    const float loss = engine.Step(batch);
    step_ms.push_back(Seconds(t0) * 1e3);
    ++report->attempted;
    if (!std::isfinite(loss)) ++report->failed;
  }
  report->Add("train.step_p50_ms", Median(step_ms), "ms");
  engine.Predict(batch.x);  // captures the forward plan
  std::vector<double> predict_ms;
  for (int i = 0; i < 20; ++i) {
    t0 = NowSeconds();
    engine.Predict(batch.x);
    predict_ms.push_back(Seconds(t0) * 1e3);
  }
  report->Add("train.predict_p50_ms", Median(predict_ms), "ms");

  // Adam on the model's parameters, gradients from one traced step.
  {
    auto probe = stwa::baselines::MakeModel("ST-WA", dataset, settings);
    stwa::optim::Adam adam(probe->Parameters(), 1e-3f);
    adam.ZeroGrad();
    ag::Var loss = ag::HuberLoss(probe->Forward(batch.x, true),
                                 ag::Var(batch.y), 1.0f);
    loss.Backward();
    std::vector<double> adam_ms;
    for (int i = 0; i < 40; ++i) {
      t0 = NowSeconds();
      adam.Step();
      adam_ms.push_back(Seconds(t0) * 1e3);
    }
    report->Add("optim.adam_step_ms", Median(adam_ms), "ms");
  }

  // The train-step plan, replayed with per-OpKind profiling.
  {
    auto probe = stwa::baselines::MakeModel("ST-WA", dataset, settings);
    stwa::optim::Adam adam(probe->Parameters(), 1e-3f);
    adam.ZeroGrad();
    std::unique_ptr<stwa::ir::ExecutionPlan> plan;
    {
      stwa::ir::GraphCapture capture;
      ag::Var loss = ag::HuberLoss(probe->Forward(batch.x, true),
                                   ag::Var(batch.y), 1.0f);
      ag::Var reg = probe->RegularizationLoss();
      if (reg.defined()) loss = ag::Add(loss, reg);
      loss.Backward();
      plan = capture.Finish(loss, {batch.x, batch.y}, /*with_backward=*/true);
    }
    if (plan == nullptr) throw std::runtime_error("train plan not capturable");
    plan->EnableProfiling(true);
    constexpr int kReps = 10;
    for (int i = 0; i < kReps; ++i) {
      adam.ZeroGrad();
      plan->ReplayTrainStep({batch.x, batch.y});
    }
    AddOpProfile(plan->Profile(), kReps, "ir.train_op.", kTrainOpKinds,
                 kNumTrainOpKinds, report);
  }
}

stwa::data::TrafficDataset ServingDataset(const ServingSpec& spec,
                                          uint64_t seed, int64_t steps) {
  stwa::data::TrafficDataset d;
  d.name = spec.name;
  d.steps_per_day = 288;
  d.values = Tensor(stwa::Shape{spec.num_sensors, steps, 1});
  for (int64_t i = 0; i < spec.num_sensors; ++i) {
    for (int64_t s = 0; s < steps; ++s) {
      d.values.data()[i * steps + s] = FlowValue(seed, 0, i, s);
    }
    d.road_of_sensor.push_back(0);
    d.coords.emplace_back(0.0f, 0.0f);
  }
  return d;
}

TrainRates MeasureTrainRates(const stwa::data::TrafficDataset& dataset,
                             const stwa::baselines::ModelSettings& settings,
                             uint64_t seed, int segments, double budget_s) {
  // Each segment runs a fresh model and engine for at most one epoch.
  // Serial kernels, as in the training workload's untraced run.
  const stwa::runtime::ScopedSerialRegion serial;
  const double segment_s = budget_s / (2 * segments);
  TrainRates rates;
  stwa::train::Trainer trainer(dataset, kHistory, settings.horizon, Config());
  const auto& val = trainer.val_sampler();
  const auto val_batches = val.EpochBatches(kBatch, nullptr);
  std::vector<double> step_s, batch_s;
  for (int seg = 0; seg < segments; ++seg) {
    auto model = stwa::baselines::MakeModel("ST-WA", dataset, settings);
    stwa::train::StepEngine engine(*model, stwa::train::StepEngineConfig());
    stwa::Rng order(SubSeed(seed, 0x7a2, static_cast<uint64_t>(seg)));
    const auto batches = trainer.train_sampler().EpochBatches(kBatch, &order);
    stwa::data::Batch batch;
    bool captured = false;
    int timed = 0;
    const double t_end = NowSeconds() + segment_s;
    for (size_t i = 0; i < batches.size(); ++i) {
      if (batches[i].size() != static_cast<size_t>(kBatch)) continue;
      const double t0 = NowSeconds();
      trainer.train_sampler().MakeBatchInto(batches[i], &batch);
      const float loss = engine.Step(batch);
      if (captured) {  // the first step captures
        step_s.push_back(Seconds(t0));
        ++timed;
      }
      captured = true;
      ++rates.steps;
      if (!std::isfinite(loss)) ++rates.nonfinite_losses;
      if (timed >= 5 && NowSeconds() > t_end) break;
    }
    // Forward-only validation batches, as the training workload times them.
    engine.EvaluateOn(val, trainer.scaler(), kBatch);  // captures eval plans
    const double e_end = NowSeconds() + segment_s;
    for (size_t i = 0; NowSeconds() < e_end; i = (i + 1) % val_batches.size()) {
      if (val_batches[i].size() != static_cast<size_t>(kBatch)) continue;
      const double t0 = NowSeconds();
      val.MakeBatchInto(val_batches[i], &batch);
      engine.Predict(batch.x);
      batch_s.push_back(Seconds(t0));
    }
  }
  PrintTimes("fine-tune step", step_s);
  PrintTimes("validation batch", batch_s);
  rates.train_samples_per_s = kBatch / P90(step_s);
  rates.eval_samples_per_s = kBatch / P90(batch_s);
  return rates;
}

Report RunTraining(const Options& options) {
  Report report;
  if (options.trace) {
    // The serving layers measured on the trained model geometry, then the
    // training-path probes on the workload's own dataset.
    WorkDir dir("train_pems08");
    TraceServingLayers(TrainServeSpec(), options, dir.path(), &report);
    ProbeTrainLayers(stwa::data::GenerateTraffic(stwa::data::Pems08Profile()),
                     TrainSettings(), options.seed, &report);
    return report;
  }
  // One rig per cycle: dataset, split and scaler, model, engine and the
  // first (capturing) step, timed as setup_s. The set-ups interleave with
  // the cycles, so both sample the whole run's conditions.
  struct Rig {
    stwa::data::TrafficDataset dataset;
    std::unique_ptr<stwa::train::Trainer> trainer;
    std::unique_ptr<stwa::train::ForecastModel> model;
    std::unique_ptr<stwa::train::StepEngine> engine;
    std::vector<std::vector<int64_t>> batches;
    stwa::data::Batch batch;
  };
  auto make_rig = [&](int cycle) {
    auto rig = std::make_unique<Rig>();
    rig->dataset = stwa::data::GenerateTraffic(stwa::data::Pems08Profile());
    rig->trainer = std::make_unique<stwa::train::Trainer>(
        rig->dataset, kHistory, TrainSettings().horizon, Config());
    rig->model =
        stwa::baselines::MakeModel("ST-WA", rig->dataset, TrainSettings());
    rig->engine = std::make_unique<stwa::train::StepEngine>(
        *rig->model, stwa::train::StepEngineConfig());
    stwa::Rng order(SubSeed(options.seed, 0x7a1, static_cast<uint64_t>(cycle)));
    while (static_cast<int64_t>(rig->batches.size()) <= kStepsPerCycle) {
      for (auto& b : rig->trainer->train_sampler().EpochBatches(kBatch, &order)) {
        if (b.size() == static_cast<size_t>(kBatch)) rig->batches.push_back(b);
      }
    }
    rig->trainer->train_sampler().MakeBatchInto(rig->batches[0], &rig->batch);
    const float loss = rig->engine->Step(rig->batch);
    ++report.attempted;
    if (!std::isfinite(loss)) ++report.failed;
    return rig;
  };

  // Per-operation times, pooled over the cycles: training steps and
  // validation batches (batch 8) and B=1 forwards.
  std::vector<double> step_s, batch_s, single_s;
  double mae_sum = 0.0;
  auto run_cycle = [&](int cycle, Rig& rig) {
    stwa::train::StepEngine& engine = *rig.engine;
    const auto& sampler = rig.trainer->train_sampler();
    float loss = 0.0f;
    for (int64_t i = 1; i <= kStepsPerCycle; ++i) {
      const double t0 = NowSeconds();
      sampler.MakeBatchInto(rig.batches[static_cast<size_t>(i)], &rig.batch);
      loss = engine.Step(rig.batch);
      step_s.push_back(Seconds(t0));
      ++report.attempted;
      if (!std::isfinite(loss)) ++report.failed;
    }

    // Forward-only validation, timed per batch through StepEngine::Predict
    // (what EvaluateOn runs per batch); the first pass scores MAE.
    const auto& val = rig.trainer->val_sampler();
    const stwa::metrics::ForecastMetrics scored =
        engine.EvaluateOn(val, rig.trainer->scaler(), kBatch);
    mae_sum += scored.mae;
    std::printf("  cycle %d: %lld steps, final loss %.5f, val MAE %.6f\n",
                cycle, static_cast<long long>(kStepsPerCycle),
                static_cast<double>(loss), scored.mae);
    stwa::data::Batch vb;
    for (int pass = 0; pass < kEvalPasses; ++pass) {
      for (const auto& idx : val.EpochBatches(kBatch, nullptr)) {
        if (idx.size() != static_cast<size_t>(kBatch)) continue;
        const double t0 = NowSeconds();
        val.MakeBatchInto(idx, &vb);
        engine.Predict(vb.x);
        batch_s.push_back(Seconds(t0));
      }
    }

    // Single-window forward (B=1), as a fleet shard worker answers it.
    stwa::data::Batch one;
    val.MakeBatchInto({0}, &one);
    engine.Predict(one.x);  // captures the B=1 plan
    for (int r = 0; r < kSingleReps; ++r) {
      const double t0 = NowSeconds();
      engine.Predict(one.x);
      single_s.push_back(Seconds(t0));
    }
  };

  // Serial kernels throughout. On the 4-vCPU host the default four threads
  // trained no faster at batch 8 (about 10 ms per step either way) but
  // used 1.65 CPUs and drew host steal of up to 18 %, which tripled the
  // median step time; one thread drew none.
  const stwa::runtime::ScopedSerialRegion serial;
  const StealMeter steal;
  std::vector<double> setups;
  const double t_end = NowSeconds() + options.seconds;
  int cycles = 0;
  for (int cycle = 0; cycle < kMinCycles || NowSeconds() < t_end; ++cycle) {
    ++cycles;
    const double t0 = NowSeconds();
    std::unique_ptr<Rig> rig = make_rig(cycle);
    setups.push_back(Seconds(t0));
    run_cycle(cycle, *rig);
  }
  std::printf("  host steal during the run: %.1f%% of the CPU\n",
              100.0 * steal.Share());
  const double mae = mae_sum / cycles;
  ++report.attempted;
  const bool mae_ok =
      std::isfinite(mae) && std::fabs(mae - kReferenceMae) <= kMaeTolerance;
  if (!mae_ok) {
    ++report.failed;
    report.correct = false;
  }
  std::printf("  validation MAE, mean of %d cycles: %.6f (%s)\n", cycles,
              mae, mae_ok ? "ok" : "OUT OF TOLERANCE");
  PrintTimes("training step", step_s);
  PrintTimes("validation batch", batch_s);
  PrintTimes("B=1 forward", single_s);
  report.Add("setup_s", Median(setups), "s");
  report.Add("latency_ms_light", P90(single_s) * 1e3, "ms");
  report.Add("max_rate_rps", 1.0 / P90(single_s), "req/s");
  report.Add("ok_frac",
             1.0 - static_cast<double>(report.failed) /
                       static_cast<double>(report.attempted),
             "ratio");
  report.Add("train_samples_per_s", kBatch / P90(step_s),
             "samples/s");
  report.Add("eval_samples_per_s", kBatch / P90(batch_s),
             "samples/s");
  report.Add("peak_rss_mb", PeakRssMb("self"), "MiB");
  return report;
}

}  // namespace perfbench
