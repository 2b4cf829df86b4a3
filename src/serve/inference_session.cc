#include "serve/inference_session.h"

#include <cmath>
#include <utility>

#include "autograd/no_grad.h"
#include "common/check.h"
#include "ir/registry.h"
#include "simd/gemm_lowp.h"
#include "tensor/lowp_cache.h"

namespace stwa {
namespace serve {
bool DatasetFreeModel(const std::string& name) {
  static const char* kNames[] = {"ST-WA", "S-WA",   "WA",    "WA-1",
                                 "Det-ST-WA", "ST-WA-mean", "GRU",
                                 "GRU+S", "GRU+ST", "ATT",   "SA",
                                 "ATT+S", "ATT+ST"};
  for (const char* n : kNames) {
    if (name == n) return true;
  }
  return false;
}

bool AllFinite(const Tensor& t) {
  const float* p = t.data();
  for (int64_t i = 0; i < t.size(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

data::TrafficDataset StubDataset(const ServingInfo& info) {
  data::TrafficDataset dataset;
  dataset.name = "serving-stub";
  dataset.values =
      Tensor(Shape{info.num_sensors, 1, info.num_features});
  return dataset;
}

InferenceSession::InferenceSession(
    ServingInfo info, std::unique_ptr<train::ForecastModel> model,
    SessionConfig config)
    : info_(std::move(info)),
      scaler_(info_.scaler_mean, info_.scaler_std),
      model_(std::move(model)),
      config_(config),
      use_plan_(ir::PlanModeEnabled()) {
  RegisterLowpWeights();
}

InferenceSession::~InferenceSession() {
  for (const float* key : lowp_keys_) lowp::Unregister(key);
}

void InferenceSession::RegisterLowpWeights() {
  if (config_.precision == simd::Precision::kFp32) return;
  for (const auto& [name, var] : model_->NamedParameters()) {
    const Tensor& t = var.value();
    if (t.rank() != 2) continue;
    const int64_t k = t.dim(0);
    const int64_t n = t.dim(1);
    if (k > (int64_t{1} << 16)) continue;  // outside the exact-i32 window
    const std::vector<float>* scales = nullptr;
    if (config_.precision == simd::Precision::kInt8) {
      const auto it = info_.int8_scales.find(name);
      if (it != info_.int8_scales.end()) {
        STWA_CHECK(static_cast<int64_t>(it->second.size()) == n,
                   "checkpoint bakes ", it->second.size(),
                   " int8 scales for '", name, "' but the parameter has ",
                   n, " output channels — the file is inconsistent");
        scales = &it->second;
      }
    }
    lowp::Register(t.data(),
                   simd::PackWeights(t.data(), k, n, /*trans=*/false,
                                     config_.precision, scales,
                                     /*bf16_trunc=*/false));
    lowp_keys_.push_back(t.data());
  }
}

std::unique_ptr<InferenceSession> InferenceSession::Open(
    const std::string& path, const SessionConfig& config) {
  ServingInfo info = ReadServingInfo(path);
  STWA_CHECK(DatasetFreeModel(info.model), "model '", info.model,
             "' needs its training dataset to rebuild graph supports; "
             "use InferenceSession::Open(path, dataset)");
  auto model =
      baselines::MakeModel(info.model, StubDataset(info), info.settings);
  nn::LoadParameters(*model, path);
  return std::unique_ptr<InferenceSession>(
      new InferenceSession(std::move(info), std::move(model), config));
}

std::unique_ptr<InferenceSession> InferenceSession::Open(
    const std::string& path, const data::TrafficDataset& dataset,
    const SessionConfig& config) {
  ServingInfo info = ReadServingInfo(path);
  STWA_CHECK(dataset.num_sensors() == info.num_sensors,
             "checkpoint expects ", info.num_sensors, " sensors, dataset has ",
             dataset.num_sensors());
  auto model = baselines::MakeModel(info.model, dataset, info.settings);
  nn::LoadParameters(*model, path);
  return std::unique_ptr<InferenceSession>(
      new InferenceSession(std::move(info), std::move(model), config));
}

Tensor InferenceSession::Forecast(const Tensor& raw_window) {
  const bool batched = raw_window.rank() == 4;
  STWA_CHECK(batched || raw_window.rank() == 3,
             "Forecast expects [B, N, H, F] or [N, H, F], got ",
             ShapeToString(raw_window.shape()));
  const int64_t n = info_.num_sensors;
  const int64_t h = info_.settings.history;
  const int64_t f = info_.num_features;
  Tensor window = batched
                      ? raw_window
                      : raw_window.Reshape({1, raw_window.dim(0),
                                            raw_window.dim(1),
                                            raw_window.dim(2)});
  STWA_CHECK(window.dim(1) == n && window.dim(2) == h && window.dim(3) == f,
             "window shape ", ShapeToString(raw_window.shape()),
             " does not match the checkpoint's [*, ", n, ", ", h, ", ", f,
             "]");

  // Inference-only: no gradient bookkeeping anywhere in the pass.
  ag::NoGradMode no_grad;
  Tensor pred_value;
  const int64_t batch = window.dim(0);
  const uint64_t rng_draws = ir::RngDrawCount();
  // One snapshot (taken at session construction) gates both the lookup and
  // the capture: a global toggle between two calls can neither orphan a
  // cached plan nor capture into a session opened with plans off.
  auto it = use_plan_ ? plans_.find(batch) : plans_.end();
  if (use_plan_ && it == plans_.end()) {
    // First request at this batch size: trace eagerly while recording and
    // freeze a forward-only plan for every later request. The feed is a
    // fresh transform (not staging): the captured leaf pins its buffer
    // for the plan's lifetime.
    Tensor normalised = scaler_.Transform(window);
    ir::GraphCapture capture;
    ag::Var pred = model_->Forward(normalised, /*training=*/false);
    STWA_CHECK(!pred.node()->requires_grad,
               "InferenceSession forward built gradient state under "
               "NoGradMode");
    pred_value = pred.value();
    plans_.emplace(batch, capture.Finish(pred, {normalised},
                                         /*with_backward=*/false));
  } else if (it != plans_.end() && it->second != nullptr) {
    scaler_.TransformInto(window, &norm_staging_);
    pred_value = it->second->ReplayForward({norm_staging_});
  } else {
    Tensor normalised = scaler_.Transform(window);
    ag::Var pred = model_->Forward(normalised, /*training=*/false);
    // The NoGradMode contract: every op result is a detached constant. A
    // violation here means some op bypassed the recording switch and the
    // session is silently paying autograd costs — fail loudly instead.
    STWA_CHECK(!pred.node()->requires_grad && pred.node()->parents.empty(),
               "InferenceSession forward built autograd state under "
               "NoGradMode");
    pred_value = pred.value();
  }
  if (ir::RngDrawCount() != rng_draws) deterministic_ = false;
  ++forward_count_;
  scaler_.InverseTransformInto(pred_value, &out_staging_);
  Tensor out = out_staging_;
  if (!batched) {
    out = out.Reshape({out.dim(1), out.dim(2), out.dim(3)});
  }
  return out;
}

bool InferenceSession::LookupMemo(const Tensor& raw_window,
                                  int64_t stream_id, int64_t anchor,
                                  StreamCache* cache, uint64_t generation,
                                  Tensor* out) {
  if (!deterministic_) return false;
  Tensor hit = Tensor::Uninit(
      {info_.num_sensors, info_.settings.horizon, info_.num_features});
  if (!cache->Lookup(stream_id, anchor, generation, config_.precision,
                     raw_window.data(), raw_window.size(), hit.data(),
                     hit.size())) {
    return false;
  }
  *out = std::move(hit);
  return true;
}

void InferenceSession::StoreMemo(const Tensor& raw_window,
                                 const Tensor& output, int64_t stream_id,
                                 int64_t anchor, StreamCache* cache,
                                 uint64_t generation) {
  if (deterministic_ && AllFinite(output)) {
    cache->Store(stream_id, anchor, generation, config_.precision,
                 raw_window.data(), raw_window.size(), output.data(),
                 output.size());
  } else {
    cache->CountBypass();
  }
}

Tensor InferenceSession::ForecastStream(const Tensor& raw_window,
                                        int64_t stream_id, int64_t anchor,
                                        StreamCache* cache,
                                        uint64_t generation) {
  if (cache == nullptr || stream_id < 0) return Forecast(raw_window);
  const int64_t n = info_.num_sensors;
  const int64_t h = info_.settings.history;
  const int64_t f = info_.num_features;
  const bool batched = raw_window.rank() == 4;
  const Shape want = batched ? Shape{1, n, h, f} : Shape{n, h, f};
  STWA_CHECK(raw_window.shape() == want, "ForecastStream expects ",
             ShapeToString(want), ", got ",
             ShapeToString(raw_window.shape()));
  Tensor out;
  if (LookupMemo(raw_window, stream_id, anchor, cache, generation, &out)) {
    return batched ? out.Reshape({1, out.dim(0), out.dim(1), out.dim(2)})
                   : out;
  }
  out = Forecast(raw_window);
  StoreMemo(raw_window, out, stream_id, anchor, cache, generation);
  return out;
}

}  // namespace serve
}  // namespace stwa
