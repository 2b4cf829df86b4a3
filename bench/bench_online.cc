// Online continual-learning benchmark: a planted regime shift, three arms.
//
// A demo-scale stream is generated with a network-wide level shift at a
// known row (data::GeneratorOptions::shift_step). A base ST-WA is trained
// on the pre-shift rows only, then each arm forecasts the same stream on
// the same cadence and its raw MAE is bucketed into pre-shift and
// post-shift windows:
//
//   frozen  — the base checkpoint served as-is (what a fleet does today);
//   adapted — the base checkpoint behind a single-tile fleet::ModelProfile
//             with an online::OnlineLearner riding the same rows; every
//             drift-triggered adaptation cycle publishes adapted weights
//             and hot-reloads the profile mid-stream, so the adapted MAE
//             is measured through the real serving path;
//   oracle  — the same model retrained from scratch on the full stream,
//             shift included (the hindsight upper bound).
//
// Writes bench_out/BENCH_online.json with the per-arm MAEs, adaptation
// cycle count and latency, drift events, and per-reload swap/drain
// timings. Exit code 1 when the adapted arm fails to beat the frozen arm
// post-shift, when any fleet request is dropped around the reloads, or
// when no adaptation cycle ran at all.
//
// STWA_BENCH_SMOKE=1 shrinks the stream and training epochs to a
// seconds-long CI run producing the same JSON.

#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "fleet/profile.h"
#include "online/adaptation.h"
#include "serve/checkpoint.h"
#include "serve/inference_session.h"
#include "tensor/ops.h"

namespace stwa {
namespace bench {
namespace {

/// Forecasts are requested every this many rows.
constexpr int64_t kEvalEvery = 2;

/// Raw-scale MAE bucketed around the shift row. Forecast windows that
/// straddle the shift go to neither bucket, keeping the comparison clean.
struct ArmMae {
  double pre_abs = 0.0;
  double post_abs = 0.0;
  int64_t pre_elems = 0;
  int64_t post_elems = 0;

  void Accumulate(const Tensor& pred, const Tensor& truth, int64_t target_row,
                  int64_t horizon, int64_t shift_row) {
    const float* p = pred.data();
    const float* y = truth.data();
    double abs_sum = 0.0;
    for (int64_t k = 0; k < truth.size(); ++k) {
      abs_sum += std::abs(p[k] - y[k]);
    }
    if (target_row >= shift_row) {
      post_abs += abs_sum;
      post_elems += truth.size();
    } else if (target_row + horizon <= shift_row) {
      pre_abs += abs_sum;
      pre_elems += truth.size();
    }
  }

  double pre_mae() const {
    return pre_elems > 0 ? pre_abs / static_cast<double>(pre_elems) : 0.0;
  }
  double post_mae() const {
    return post_elems > 0 ? post_abs / static_cast<double>(post_elems) : 0.0;
  }
};

/// Trains the bench's ST-WA on `dataset` and writes a serving checkpoint.
void TrainArm(const std::string& label, const data::TrafficDataset& dataset,
              const baselines::ModelSettings& settings, int epochs,
              const std::string& path) {
  auto model = baselines::MakeModel("ST-WA", dataset, settings);
  train::TrainConfig config;
  config.epochs = epochs;
  config.batch_size = 8;
  config.stride = 2;
  config.eval_stride = 4;
  train::Trainer trainer(dataset, settings.history, settings.horizon,
                         config);
  train::TrainResult result = trainer.Fit(*model);
  std::cout << label << ": trained " << result.epochs_run
            << " epochs, test MAE " << FormatFloat(result.test.mae, 3)
            << "\n";
  serve::ServingInfo info;
  info.model = "ST-WA";
  info.settings = settings;
  info.num_sensors = dataset.num_sensors();
  info.num_features = dataset.num_features();
  info.scaler_mean = trainer.scaler().mean();
  info.scaler_std = trainer.scaler().stddev();
  serve::SaveServingCheckpoint(*model, info, path);
}

/// Offline arm: forecast the stream on the eval cadence through an
/// InferenceSession over `ckpt`.
ArmMae RunOffline(const std::string& ckpt,
                  const data::TrafficDataset& stream, int64_t history,
                  int64_t horizon, int64_t shift_row) {
  auto session = serve::InferenceSession::Open(ckpt);
  ArmMae mae;
  const int64_t rows = stream.num_steps();
  for (int64_t t = history - 1; t + horizon < rows; t += kEvalEvery) {
    const Tensor window =
        ops::Slice(stream.values, 1, t - history + 1, history);
    const Tensor truth = ops::Slice(stream.values, 1, t + 1, horizon);
    mae.Accumulate(session->Forecast(window), truth, t + 1, horizon,
                   shift_row);
  }
  return mae;
}

void Run() {
  SetRunCheckpoint("online", 1);
  ReportRuntime();
  const bool smoke = GetEnvIntOr("STWA_BENCH_SMOKE", 0) != 0;

  // The drifted stream: demo-scale network, shift halfway through.
  data::GeneratorOptions gen;
  gen.name = "online-bench";
  gen.num_roads = 2;
  gen.sensors_per_road = 2;
  gen.num_days = smoke ? 4 : 8;
  gen.steps_per_day = 96;
  gen.seed = 17;
  // Scale > 1: the shift raises flow levels, so the frozen model
  // under-predicts and its absolute error grows — the detectable regime.
  gen.shift_step = gen.num_days * gen.steps_per_day / 2;
  gen.shift_scale = 1.5f;
  data::ShiftSchedule schedule;
  const data::TrafficDataset stream = data::GenerateTraffic(gen, &schedule);
  const int64_t rows = stream.num_steps();
  const int64_t shift_row = gen.shift_step;
  const int epochs = smoke ? 2 : 6;

  baselines::ModelSettings settings;
  settings.history = 12;
  settings.horizon = 12;
  settings.d_model = 8;
  settings.window_sizes = {3, 2, 2};
  settings.latent_dim = 4;
  settings.predictor_hidden = 16;
  const int64_t history = settings.history;
  const int64_t horizon = settings.horizon;
  std::cout << "stream: " << stream.num_sensors() << " sensors x " << rows
            << " rows, shift at row " << shift_row << " x"
            << FormatFloat(gen.shift_scale, 2) << " ("
            << schedule.events.size() << " planted events)\n";

  // Base model: pre-shift rows only (the honest deployment situation).
  data::TrafficDataset pre_shift = stream;
  pre_shift.values = ops::Slice(stream.values, 1, 0, shift_row);
  const std::string base_ckpt = BenchOutPath("online_base.bin");
  TrainArm("base (pre-shift)", pre_shift, settings, epochs, base_ckpt);

  // Oracle: retrained from scratch on the full stream, shift included.
  const std::string oracle_ckpt = BenchOutPath("online_oracle.bin");
  TrainArm("oracle (full stream)", stream, settings, epochs, oracle_ckpt);

  const ArmMae frozen =
      RunOffline(base_ckpt, stream, history, horizon, shift_row);
  const ArmMae oracle =
      RunOffline(oracle_ckpt, stream, history, horizon, shift_row);

  // Adapted arm: the base checkpoint served by a single-tile fleet
  // profile, adapted mid-stream and hot-reloaded on every publish.
  online::OnlineConfig online_config;
  online_config.publish_path = BenchOutPath("online_adapted.bin");
  online::OnlineLearner learner(base_ckpt, online_config);
  fleet::FleetProfileConfig profile_config;
  profile_config.name = "online";
  profile_config.checkpoint = base_ckpt;
  fleet::ModelProfile profile(profile_config);

  ArmMae adapted;
  int64_t dropped = 0;
  int64_t forecasts = 0;
  std::vector<fleet::ReloadResult> reloads;
  std::vector<float> observation(
      static_cast<size_t>(stream.num_sensors()));
  for (int64_t t = 0; t < rows; ++t) {
    for (int64_t i = 0; i < stream.num_sensors(); ++i) {
      observation[static_cast<size_t>(i)] = stream.values({i, t, 0});
    }
    profile.PushTile(0, observation);
    if (t >= history - 1 && t + horizon < rows &&
        (t - (history - 1)) % kEvalEvery == 0) {
      serve::Response resp = profile.ForecastTile(0).get();
      ++forecasts;
      if (!resp.ok || resp.degraded) {
        ++dropped;
      } else {
        const Tensor truth = ops::Slice(stream.values, 1, t + 1, horizon);
        adapted.Accumulate(resp.forecast, truth, t + 1, horizon, shift_row);
      }
    }
    if (learner.Observe(observation)) {
      reloads.push_back(profile.Reload(learner.publish_path()));
      std::cout << "row " << t << ": adapted ("
                << FormatFloat(learner.stats().last_cycle_ms, 1)
                << " ms) and reloaded to gen " << reloads.back().version
                << " (ckpt_version " << reloads.back().ckpt_version
                << ", swap " << FormatFloat(reloads.back().swap_us, 0)
                << " us)\n";
    }
  }
  const serve::ServerStats fleet_stats = profile.Stats();
  const online::AdaptStats& adapt_stats = learner.stats();

  auto print_arm = [](const std::string& name, const ArmMae& arm) {
    std::cout << "  " << name << ": pre-shift MAE "
              << FormatFloat(arm.pre_mae(), 3) << ", post-shift MAE "
              << FormatFloat(arm.post_mae(), 3) << "\n";
  };
  std::cout << "arms (" << forecasts << " fleet forecasts, " << dropped
            << " dropped):\n";
  print_arm("frozen ", frozen);
  print_arm("adapted", adapted);
  print_arm("oracle ", oracle);
  std::cout << "  adaptation: " << adapt_stats.cycles << " cycle(s), "
            << adapt_stats.fine_tune_steps << " fine-tune steps, last "
            << FormatFloat(adapt_stats.last_cycle_ms, 1) << " ms, "
            << learner.drift().triggers() << " drift event(s)\n";

  const std::string path = BenchOutPath("BENCH_online.json");
  {
    std::ofstream out(path);
    out << "{\n  \"profile\": \"" << RunProfileName()
        << "\",\n  \"smoke\": " << (smoke ? "true" : "false")
        << ",\n  \"rows\": " << rows
        << ",\n  \"sensors\": " << stream.num_sensors()
        << ",\n  \"shift_row\": " << shift_row
        << ",\n  \"shift_scale\": " << gen.shift_scale
        << ",\n  \"planted_events\": " << schedule.events.size()
        << ",\n  \"epochs\": " << epochs << ",\n  \"arms\": {\n";
    const std::vector<std::pair<const char*, const ArmMae*>> arms = {
        {"frozen", &frozen}, {"adapted", &adapted}, {"oracle", &oracle}};
    for (size_t i = 0; i < arms.size(); ++i) {
      out << "    \"" << arms[i].first
          << "\": {\"pre_shift_mae\": " << arms[i].second->pre_mae()
          << ", \"post_shift_mae\": " << arms[i].second->post_mae() << "}"
          << (i + 1 < arms.size() ? "," : "") << "\n";
    }
    out << "  },\n  \"adaptation\": {\"cycles\": " << adapt_stats.cycles
        << ", \"fine_tune_steps\": " << adapt_stats.fine_tune_steps
        << ", \"publishes\": " << adapt_stats.publishes
        << ", \"drift_events\": " << learner.drift().triggers()
        << ", \"last_cycle_ms\": " << adapt_stats.last_cycle_ms
        << ", \"total_ms\": " << adapt_stats.total_ms
        << ", \"replay_examples\": " << learner.replay().total_added()
        << ", \"replay_evicted\": " << learner.replay().evicted()
        << "},\n  \"reloads\": [\n";
    for (size_t i = 0; i < reloads.size(); ++i) {
      out << "    {\"generation\": " << reloads[i].version
          << ", \"ckpt_version\": " << reloads[i].ckpt_version
          << ", \"prepare_us\": " << reloads[i].prepare_us
          << ", \"swap_stall_us\": " << reloads[i].swap_us
          << ", \"drain_us\": " << reloads[i].drain_us << "}"
          << (i + 1 < reloads.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"fleet\": {\"forecasts\": " << forecasts
        << ", \"completed\": " << fleet_stats.completed
        << ", \"dropped\": " << dropped
        << ", \"shed\": " << fleet_stats.shed << "}\n}\n";
  }
  std::cout << "wrote " << path << "\n";

  bool failed = false;
  if (adapt_stats.cycles == 0) {
    std::cerr << "ERROR: no adaptation cycle ran (drift never triggered "
                 "or replay never filled)\n";
    failed = true;
  }
  if (adapted.post_mae() >= frozen.post_mae()) {
    std::cerr << "ERROR: adapted post-shift MAE "
              << FormatFloat(adapted.post_mae(), 3)
              << " does not beat frozen "
              << FormatFloat(frozen.post_mae(), 3) << "\n";
    failed = true;
  }
  if (dropped > 0 || fleet_stats.shed > 0) {
    std::cerr << "ERROR: " << dropped + fleet_stats.shed
              << " request(s) dropped — reloads must drain, not shed\n";
    failed = true;
  }
  if (failed) std::exit(1);
}

}  // namespace
}  // namespace bench
}  // namespace stwa

int main() {
  stwa::bench::Run();
  return 0;
}
