// Forward-only inference over a frozen checkpoint.
//
// An InferenceSession owns one model instance reconstructed from a serving
// checkpoint (serve/checkpoint.h) and answers raw-scale forecast queries:
// inputs are normalised with the checkpoint's scaler, the forward pass
// runs under ag::NoGradMode (no tape nodes — asserted), and outputs are
// denormalised back to flow units. Sessions are deliberately not
// thread-safe: models carry per-forward state, so the server gives every
// worker thread its own session; identical weights make their outputs
// bit-identical.

#ifndef STWA_SERVE_INFERENCE_SESSION_H_
#define STWA_SERVE_INFERENCE_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/scaler.h"
#include "ir/plan.h"
#include "serve/checkpoint.h"
#include "serve/stream_cache.h"
#include "simd/lowp.h"
#include "train/trainer.h"

namespace stwa {
namespace serve {

/// Per-session serving configuration.
struct SessionConfig {
  /// Weight precision tier for the session's GEMMs (simd/lowp.h):
  /// kFp32 serves the checkpoint bytes as-is; kBf16 prepacks every
  /// rank-2 parameter into bf16 panels at open, so the hot path never
  /// repacks. Activations stay fp32 in both tiers, and within one tier
  /// outputs are bit-identical across thread counts, batching and plan
  /// toggles.
  simd::Precision precision = simd::Precision::kFp32;
};

/// True for models whose construction depends only on sensor/feature
/// counts, so a checkpoint alone is enough to rebuild them (the ST-WA
/// family and the enhanced GRU/ATT models). Graph-convolutional baselines
/// recompute supports from dataset content and need the real dataset.
bool DatasetFreeModel(const std::string& name);

/// Minimal dataset carrying only the dimensions the dataset-free models
/// read (num_sensors / num_features).
data::TrafficDataset StubDataset(const ServingInfo& info);

/// True when every element of `t` is finite (no NaN, no Inf).
bool AllFinite(const Tensor& t);

/// One frozen model + scaler behind a raw-in/raw-out forecast call.
class InferenceSession {
 public:
  /// Opens a checkpoint whose model can be rebuilt from metadata alone
  /// (the ST-WA family and the enhanced GRU/ATT models — anything that
  /// only needs sensor/feature counts). Graph-convolutional baselines
  /// need the dataset-bearing overload and are rejected here with a
  /// clear error.
  static std::unique_ptr<InferenceSession> Open(const std::string& path,
                                                const SessionConfig& config =
                                                    SessionConfig());

  /// Opens a checkpoint for any registered model, rebuilding it against
  /// `dataset` (graph supports, temporal similarity etc. are recomputed
  /// from it, so pass the dataset the model was trained on).
  static std::unique_ptr<InferenceSession> Open(
      const std::string& path, const data::TrafficDataset& dataset,
      const SessionConfig& config = SessionConfig());

  /// Unregisters any reduced-precision weight panels before the model is
  /// destroyed (tensor/lowp_cache.h lifetime rule).
  ~InferenceSession();

  /// Raw-scale forecast: window [B, N, H, F] (or [N, H, F], treated as
  /// B=1) -> forecast of the same batch rank with U steps. Runs under
  /// NoGradMode. Deterministic: eval mode uses the latent mean, so equal
  /// inputs give bit-equal outputs for any batch size. The first call per
  /// batch size captures a forward-only execution plan (ir/plan.h); later
  /// calls replay it with the new window data — bit-identical outputs, no
  /// graph construction. STWA_NO_PLAN=1 (at open time) keeps every call
  /// eager.
  Tensor Forecast(const Tensor& raw_window);

  /// Forecast for one live stream through the output memo
  /// (serve/stream_cache.h). `raw_window` is a single window ([N, H, F]
  /// or [1, N, H, F]); `stream_id` names the stream, `anchor` its position
  /// (StreamState::anchor()), `generation` the weights generation the
  /// caller serves (tags new entries, gates lookups). A repeat of the
  /// memoised window at the same anchor is answered by a copy; anything
  /// else runs Forecast and memoises the result. Byte-identical to
  /// Forecast on the same window either way. A null `cache` or negative
  /// `stream_id` is a plain Forecast; a forward that draws from an rng
  /// or yields a non-finite value is never memoised (counted bypass).
  Tensor ForecastStream(const Tensor& raw_window, int64_t stream_id,
                        int64_t anchor, StreamCache* cache,
                        uint64_t generation);

  /// The two halves of ForecastStream, for callers that batch the misses
  /// (serve::Server). LookupMemo sets *out to the memoised [N, U, F]
  /// answer and returns true on an output hit. StoreMemo memoises
  /// `output`, Forecast's answer to `raw_window`, or counts a bypass when
  /// it must not be memoised.
  bool LookupMemo(const Tensor& raw_window, int64_t stream_id,
                  int64_t anchor, StreamCache* cache, uint64_t generation,
                  Tensor* out);
  void StoreMemo(const Tensor& raw_window, const Tensor& output,
                 int64_t stream_id, int64_t anchor, StreamCache* cache,
                 uint64_t generation);

  const ServingInfo& info() const { return info_; }
  const data::StandardScaler& scaler() const { return scaler_; }

  /// Precision tier this session serves at.
  simd::Precision precision() const { return config_.precision; }

  /// Number of Forward calls served (one per batch).
  int64_t forward_count() const { return forward_count_; }

 private:
  InferenceSession(ServingInfo info,
                   std::unique_ptr<train::ForecastModel> model,
                   SessionConfig config);

  /// Packs every rank-2 parameter into bf16 panels and registers them in
  /// the lowp weight cache (no-op at kFp32).
  void RegisterLowpWeights();

  ServingInfo info_;
  data::StandardScaler scaler_;
  std::unique_ptr<train::ForecastModel> model_;
  SessionConfig config_;
  /// Weight buffers registered in the lowp cache; unregistered in the
  /// destructor, strictly before model_ frees them.
  std::vector<const float*> lowp_keys_;
  /// Plan gate snapshotted when the session was constructed
  /// (ir::PlanModeEnabled): every Forecast of one session agrees on it
  /// even if a global toggle flips mid-stream.
  bool use_plan_;
  int64_t forward_count_ = 0;
  /// False once a forward of this session drew from an rng: its outputs
  /// then depend on more than the window, so they must not be memoised.
  bool deterministic_ = true;
  /// Forward-only plans keyed by batch size (all other input dims are
  /// fixed by the checkpoint). Null entry: shape not plannable, stay
  /// eager. Sessions are single-threaded, so no lock.
  std::unordered_map<int64_t, std::unique_ptr<ir::ExecutionPlan>> plans_;

  /// Reused elementwise staging (data/scaler.h Into variants): zero
  /// steady-state allocations on the forecast hot path. The use_count
  /// guard automatically falls back to a fresh buffer whenever a previous
  /// result is still referenced (e.g. held by a caller).
  Tensor norm_staging_;
  Tensor out_staging_;
};

}  // namespace serve
}  // namespace stwa

#endif  // STWA_SERVE_INFERENCE_SESSION_H_
