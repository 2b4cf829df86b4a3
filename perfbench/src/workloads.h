// The three workloads and the layer probes they share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "baselines/registry.h"
#include "core.h"
#include "data/dataset.h"
#include "report.h"

namespace perfbench {

/// Command-line options of one invocation.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Measurement budget of the run (the fixed-size parts may exceed it).
  double seconds = 20.0;
  /// 0: end-to-end metrics, untraced. 1: per-layer metrics, traced.
  bool trace = false;
  /// Path of the stwa_fleet binary under test.
  std::string fleet_binary;
  /// Commit of the code under test, for the result stamp.
  std::string commit = "unknown";
};

/// dashboard_small.
Report RunServing(const ServingSpec& spec, const Options& options);

/// train_pems08.
Report RunTraining(const Options& options);

/// The serving part of a traced run: the light schedule over TCP and
/// in-process without spans, light and heavy in-process with spans, reload
/// probes, then ProbeModelLayers on the profile's checkpoint.
void TraceServingLayers(const ServingSpec& spec, const Options& options,
                        const std::string& dir, Report* report);

/// The serving spec whose profile deploys the train_pems08 model geometry;
/// only its traced run uses it, to measure the serving layers on the same
/// model the training workload trains.
const ServingSpec& TrainServeSpec();

/// Model settings of train_pems08 (the registry's paper defaults).
stwa::baselines::ModelSettings TrainSettings();

/// A dataset of `spec`'s synthetic flows (tile 0, `steps` steps), for
/// training-throughput probes on the serving model geometry.
stwa::data::TrafficDataset ServingDataset(const ServingSpec& spec,
                                          uint64_t seed, int64_t steps);

/// Training and forward-only throughput of one model on one dataset at
/// batch 8, through train::StepEngine (the engine behind Trainer::Fit),
/// with serial kernels: batch over the 90th percentile of the step or
/// validation-batch times, pooled over `segments` fresh engines,
/// `budget_s` in all.
struct TrainRates {
  double train_samples_per_s = 0.0;
  double eval_samples_per_s = 0.0;
  int64_t steps = 0;
  int64_t nonfinite_losses = 0;
};
TrainRates MeasureTrainRates(const stwa::data::TrafficDataset& dataset,
                             const stwa::baselines::ModelSettings& settings,
                             uint64_t seed, int segments, double budget_s);

/// Per-layer probes of one model: session, pool, ir (forward plan), core
/// modules, simd GEMM shapes, runtime. `ckpt` is a serving checkpoint of
/// the model; `batch` the batch the core-module and GEMM probes use.
void ProbeModelLayers(const std::string& ckpt,
                      const stwa::baselines::ModelSettings& settings,
                      int64_t num_sensors, int64_t batch, uint64_t seed,
                      Report* report);

/// Per-layer probes of the training path (train, optim, ir train plan)
/// on `dataset` with `settings` at batch 8.
void ProbeTrainLayers(const stwa::data::TrafficDataset& dataset,
                      const stwa::baselines::ModelSettings& settings,
                      uint64_t seed, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
