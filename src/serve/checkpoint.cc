#include "serve/checkpoint.h"

#include <sstream>

#include "common/check.h"
#include "common/string_util.h"

namespace stwa {
namespace serve {
namespace {

std::string JoinInts(const std::vector<int64_t>& values) {
  std::ostringstream oss;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) oss << ',';
    oss << values[i];
  }
  return oss.str();
}

std::vector<int64_t> SplitInts(const std::string& s) {
  std::vector<int64_t> out;
  for (const std::string& part : Split(s, ',')) {
    const std::string t = Trim(part);
    if (t.empty()) continue;
    out.push_back(std::stoll(t));
  }
  return out;
}

}  // namespace

nn::CheckpointMeta MakeServingMeta(const ServingInfo& info) {
  nn::CheckpointMeta meta;
  meta.Set("model", info.model);
  meta.SetInt("num_sensors", info.num_sensors);
  meta.SetInt("num_features", info.num_features);
  meta.SetInt("history", info.settings.history);
  meta.SetInt("horizon", info.settings.horizon);
  meta.SetInt("d_model", info.settings.d_model);
  meta.SetInt("num_layers", info.settings.num_layers);
  meta.SetInt("predictor_hidden", info.settings.predictor_hidden);
  meta.Set("window_sizes", JoinInts(info.settings.window_sizes));
  meta.SetInt("proxies", info.settings.proxies);
  meta.SetInt("heads", info.settings.heads);
  meta.SetInt("latent_dim", info.settings.latent_dim);
  meta.SetFloat("kl_weight", info.settings.kl_weight);
  meta.SetInt("seed", static_cast<int64_t>(info.settings.seed));
  meta.SetFloat("scaler_mean", info.scaler_mean);
  meta.SetFloat("scaler_std", info.scaler_std);
  meta.SetInt("ckpt_version", info.ckpt_version);
  return meta;
}

void SaveServingCheckpoint(const nn::Module& module, const ServingInfo& info,
                           const std::string& path) {
  STWA_CHECK(!info.model.empty(), "serving checkpoint needs a model name");
  STWA_CHECK(info.num_sensors > 0, "serving checkpoint needs num_sensors");
  nn::SaveParameters(module, path, MakeServingMeta(info));
}

bool IsServingMeta(const nn::CheckpointMeta& meta) {
  return meta.Has("model") && meta.Has("num_sensors") &&
         meta.Has("scaler_mean");
}

ServingInfo ReadServingInfo(const std::string& path) {
  const nn::CheckpointMeta meta = nn::LoadCheckpointMeta(path);
  STWA_CHECK(IsServingMeta(meta), "'", path,
             "' is a parameter checkpoint without serving metadata; "
             "re-save it with serve::SaveServingCheckpoint");
  ServingInfo info;
  info.model = meta.Get("model");
  info.num_sensors = meta.GetInt("num_sensors");
  info.num_features = meta.GetInt("num_features");
  info.settings.history = meta.GetInt("history");
  info.settings.horizon = meta.GetInt("horizon");
  info.settings.d_model = meta.GetInt("d_model");
  info.settings.num_layers = meta.GetInt("num_layers");
  info.settings.predictor_hidden = meta.GetInt("predictor_hidden");
  info.settings.window_sizes = SplitInts(meta.Get("window_sizes"));
  info.settings.proxies = meta.GetInt("proxies");
  info.settings.heads = meta.GetInt("heads");
  info.settings.latent_dim = meta.GetInt("latent_dim");
  info.settings.kl_weight = meta.GetFloat("kl_weight");
  info.settings.seed = static_cast<uint64_t>(meta.GetInt("seed"));
  info.scaler_mean = meta.GetFloat("scaler_mean");
  info.scaler_std = meta.GetFloat("scaler_std");
  info.ckpt_version = std::stoll(meta.GetOr("ckpt_version", "1"));
  // Any other entry is ignored: older v3 files also carry per-channel
  // weight scales for a retired precision tier (nn/serialize.cc).
  return info;
}

}  // namespace serve
}  // namespace stwa
