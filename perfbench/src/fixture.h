// Serving fixture: the checkpoint and fleet config a serving workload
// deploys, the seeded observation stream it pushes, and the offline
// reference answers its outputs are checked against.
#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core.h"
#include "serve/inference_session.h"
#include "tensor/tensor.h"

namespace perfbench {

/// Everything a serving workload needs besides the server itself.
class Fixture {
 public:
  /// Writes the generation-1 checkpoint, `reloads` byte-identical copies
  /// with bumped ckpt_version, and the fleet config into `dir`.
  Fixture(const ServingSpec& spec, uint64_t seed, const std::string& dir,
          int reloads);

  const ServingSpec& spec() const { return spec_; }
  const std::string& profile() const { return profile_; }
  const std::string& config_path() const { return config_path_; }
  const std::string& checkpoint() const { return ckpt_; }
  /// Checkpoint path carried by reload number `ordinal` (cycled).
  const std::string& ReloadPath(int64_t ordinal) const;

  /// Observation row [N*F] of `tile` at stream step `step`.
  std::vector<float> Row(int64_t tile, int64_t step) const;
  /// Protocol line pushing that row.
  std::string ObsLine(int64_t tile, int64_t step) const;
  /// Protocol line for a forecast of `tile`.
  std::string ForecastLine(int64_t tile) const;
  /// Raw window [N, H, F] whose newest column is step `last`.
  stwa::Tensor Window(int64_t tile, int64_t last) const;
  /// Offline InferenceSession answer for that window (memoised).
  const stwa::Tensor& Expected(int64_t tile, int64_t last);
  /// Computes every not-yet-memoised expected answer for `keys` in
  /// batches (same bytes as one at a time: outputs are batch-independent).
  void Prefetch(const std::vector<std::pair<int64_t, int64_t>>& keys);

  /// True when `line` is a forecast response whose values are bytewise
  /// equal to Expected(tile, last).
  bool Matches(const std::string& line, int64_t tile, int64_t last);

 private:
  const ServingSpec& spec_;
  uint64_t seed_;
  std::string profile_ = "city";
  std::string ckpt_;
  std::vector<std::string> reload_ckpts_;
  std::string config_path_;
  int64_t n_ = 0, h_ = 12, u_ = 12, f_ = 1;
  std::unique_ptr<stwa::serve::InferenceSession> offline_;
  std::map<std::pair<int64_t, int64_t>, stwa::Tensor> expected_;
};

/// The model settings of a serving workload's checkpoint.
stwa::baselines::ModelSettings ServingSettings(const ServingSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
