#include "fixture.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "baselines/registry.h"
#include "serve/checkpoint.h"

namespace perfbench {

using stwa::Tensor;

stwa::baselines::ModelSettings ServingSettings(const ServingSpec& spec) {
  stwa::baselines::ModelSettings s;
  s.history = 12;
  s.horizon = 12;
  s.d_model = spec.d_model;
  s.predictor_hidden = spec.predictor_hidden;
  s.latent_dim = spec.latent_dim;
  s.window_sizes = {3, 2, 2};
  // Weights are fixed across seeds; the seed varies the traffic only.
  s.seed = 7;
  return s;
}

Fixture::Fixture(const ServingSpec& spec, uint64_t seed,
                 const std::string& dir, int reloads)
    : spec_(spec), seed_(seed), n_(spec.num_sensors) {
  stwa::serve::ServingInfo info;
  info.model = "ST-WA";
  info.settings = ServingSettings(spec);
  info.num_sensors = n_;
  info.num_features = f_;
  info.scaler_mean = 150.0f;
  info.scaler_std = 90.0f;
  info.ckpt_version = 1;
  auto model = stwa::baselines::MakeModel(
      info.model, stwa::serve::StubDataset(info), info.settings);
  ckpt_ = dir + "/" + spec.name + ".bin";
  stwa::serve::SaveServingCheckpoint(*model, info, ckpt_);
  // Hot reloads carry the same weights under a bumped ckpt_version, so
  // every answer has one correct byte pattern across generations.
  for (int r = 0; r < reloads; ++r) {
    info.ckpt_version = 2 + r;
    reload_ckpts_.push_back(dir + "/" + spec.name + ".v" +
                            std::to_string(info.ckpt_version) + ".bin");
    stwa::serve::SaveServingCheckpoint(*model, info, reload_ckpts_.back());
  }
  // Deployment facts only: every serving knob stays at its default.
  config_path_ = dir + "/fleet.conf";
  std::ofstream conf(config_path_);
  conf << "profile " << profile_ << " ckpt=" << ckpt_
       << " tiles=" << spec.tiles << "\n";
  if (!conf) throw std::runtime_error("cannot write " + config_path_);
  offline_ = stwa::serve::InferenceSession::Open(ckpt_);
}

const std::string& Fixture::ReloadPath(int64_t ordinal) const {
  const int64_t count = static_cast<int64_t>(reload_ckpts_.size());
  return reload_ckpts_.at(static_cast<size_t>(ordinal % count));
}

std::vector<float> Fixture::Row(int64_t tile, int64_t step) const {
  std::vector<float> row(static_cast<size_t>(n_ * f_));
  for (int64_t i = 0; i < n_ * f_; ++i) {
    row[static_cast<size_t>(i)] = FlowValue(seed_, tile, i, step);
  }
  return row;
}

std::string Fixture::ObsLine(int64_t tile, int64_t step) const {
  const std::vector<float> row = Row(tile, step);
  return FormatObsLine(profile_, tile, row.data(), n_ * f_);
}

std::string Fixture::ForecastLine(int64_t tile) const {
  return profile_ + " forecast " + std::to_string(tile);
}

Tensor Fixture::Window(int64_t tile, int64_t last) const {
  Tensor w(stwa::Shape{n_, h_, f_});
  for (int64_t s = 0; s < h_; ++s) {
    const std::vector<float> row = Row(tile, last - h_ + 1 + s);
    for (int64_t i = 0; i < n_; ++i) {
      for (int64_t j = 0; j < f_; ++j) {
        w.data()[(i * h_ + s) * f_ + j] = row[static_cast<size_t>(i * f_ + j)];
      }
    }
  }
  return w;
}

void Fixture::Prefetch(const std::vector<std::pair<int64_t, int64_t>>& keys) {
  constexpr int64_t kBatch = 16;
  std::vector<std::pair<int64_t, int64_t>> todo;
  for (const auto& k : keys) {
    if (expected_.count(k) == 0 &&
        std::find(todo.begin(), todo.end(), k) == todo.end()) {
      todo.push_back(k);
    }
  }
  const int64_t sample = n_ * h_ * f_;
  const int64_t out_sample = n_ * u_ * f_;
  for (size_t begin = 0; begin < todo.size(); begin += kBatch) {
    const int64_t b = std::min<int64_t>(
        kBatch, static_cast<int64_t>(todo.size() - begin));
    Tensor batch(stwa::Shape{b, n_, h_, f_});
    for (int64_t i = 0; i < b; ++i) {
      const auto& [tile, last] = todo[begin + static_cast<size_t>(i)];
      const Tensor w = Window(tile, last);
      std::memcpy(batch.data() + i * sample, w.data(),
                  sizeof(float) * static_cast<size_t>(sample));
    }
    const Tensor out = offline_->Forecast(batch);
    for (int64_t i = 0; i < b; ++i) {
      Tensor one(stwa::Shape{n_, u_, f_});
      std::memcpy(one.data(), out.data() + i * out_sample,
                  sizeof(float) * static_cast<size_t>(out_sample));
      expected_.emplace(todo[begin + static_cast<size_t>(i)], std::move(one));
    }
  }
}

const Tensor& Fixture::Expected(int64_t tile, int64_t last) {
  const auto key = std::make_pair(tile, last);
  auto it = expected_.find(key);
  if (it == expected_.end()) {
    it = expected_.emplace(key, offline_->Forecast(Window(tile, last))).first;
  }
  return it->second;
}

bool Fixture::Matches(const std::string& line, int64_t tile, int64_t last) {
  const std::optional<perfbench::ForecastLine> parsed =
      ParseForecastLine(line, f_);
  if (!parsed || parsed->n != n_ || parsed->u != u_) return false;
  const Tensor& ref = Expected(tile, last);
  return std::memcmp(parsed->values.data(), ref.data(),
                     sizeof(float) * parsed->values.size()) == 0;
}

}  // namespace perfbench
