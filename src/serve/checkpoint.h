// Serving checkpoints: a parameter checkpoint (nn/serialize) whose
// metadata blob additionally records everything needed to reconstruct the
// frozen model without the original training program — the registry model
// name, the ModelSettings it was built with, the dataset dimensions and
// the fitted scaler statistics.

#ifndef STWA_SERVE_CHECKPOINT_H_
#define STWA_SERVE_CHECKPOINT_H_

#include <string>
#include <vector>

#include "baselines/registry.h"
#include "nn/serialize.h"

namespace stwa {
namespace serve {

/// Everything a server needs to rebuild a frozen model from its file.
struct ServingInfo {
  /// Registry name passed to baselines::MakeModel (e.g. "ST-WA").
  std::string model;
  baselines::ModelSettings settings;
  int64_t num_sensors = 0;
  int64_t num_features = 1;
  /// Fitted z-score statistics; serving normalises inputs and
  /// denormalises forecasts with exactly these.
  float scaler_mean = 0.0f;
  float scaler_std = 1.0f;
  /// Monotone checkpoint version stamped by the producer (a trainer or a
  /// fleet hot-reload pipeline bumps it per re-save). Purely advisory
  /// provenance: serving layers report it (stats lines, bench banners) so
  /// an operator can tell *which* weights answered a request. Pre-existing
  /// files without the entry read back as 1.
  int64_t ckpt_version = 1;
};

/// Encodes `info` into checkpoint metadata entries.
nn::CheckpointMeta MakeServingMeta(const ServingInfo& info);

/// Saves `module`'s parameters plus the serving metadata to `path`
/// (crash-safe, see nn::SaveParameters).
void SaveServingCheckpoint(const nn::Module& module, const ServingInfo& info,
                           const std::string& path);

/// Reads the serving metadata back from a checkpoint. Throws when the file
/// is not a serving checkpoint (plain parameter checkpoints lack the
/// model entry).
ServingInfo ReadServingInfo(const std::string& path);

/// True when the metadata blob carries serving information.
bool IsServingMeta(const nn::CheckpointMeta& meta);

}  // namespace serve
}  // namespace stwa

#endif  // STWA_SERVE_CHECKPOINT_H_
