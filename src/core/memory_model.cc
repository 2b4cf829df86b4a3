#include "core/memory_model.h"

#include "common/check.h"

namespace stwa {
namespace core {
namespace {

// float32 with a x2 factor for gradient buffers.
constexpr double kBytesPerValue = 4.0 * 2.0;
constexpr double kGb = 1024.0 * 1024.0 * 1024.0;

double ToGb(double values) { return values * kBytesPerValue / kGb; }

}  // namespace

double CanonicalAttentionGb(const MemoryWorkload& w) {
  // Per layer: score matrices B*N*heads*H^2 plus q/k/v B*N*H*d each.
  const double scores = static_cast<double>(w.batch) * w.sensors * w.heads *
                        w.history * w.history;
  const double qkv = 3.0 * w.batch * w.sensors * w.history * w.d_model;
  return ToGb(w.layers * (scores + qkv));
}

double WindowAttentionGb(const MemoryWorkload& w,
                         const std::vector<int64_t>& window_sizes,
                         int64_t proxies) {
  STWA_CHECK(!window_sizes.empty(), "need window sizes");
  double total = 0.0;
  int64_t len = w.history;
  for (int64_t s : window_sizes) {
    STWA_CHECK(s > 0, "bad window size");
    // Scores B*N*p*len, k/v B*N*len*d, outputs B*N*(len/s)*d.
    total += static_cast<double>(w.batch) * w.sensors *
             (proxies * len + 2.0 * len * w.d_model +
              (len / s) * w.d_model);
    len = std::max<int64_t>(1, len / s);
  }
  return ToGb(total);
}

double SlidingWindowAttentionGb(const MemoryWorkload& w, int64_t window) {
  const double scores = static_cast<double>(w.batch) * w.sensors * w.heads *
                        w.history * window;
  const double qkv = 3.0 * w.batch * w.sensors * w.history * w.d_model;
  return ToGb(w.layers * (scores + qkv));
}

double RnnGb(const MemoryWorkload& w) {
  // Unrolled gate activations: ~4 gate tensors of B*N*d per step per layer.
  return ToGb(4.0 * w.layers * w.batch * w.sensors * w.history * w.d_model);
}

double AdaptiveGraphRnnGb(const MemoryWorkload& w) {
  const double rnn = 4.0 * w.layers * w.batch * w.sensors * w.history *
                     w.d_model;
  // The adaptive adjacency softmax(relu(E E^T)) is computed once per step,
  // not per batch element, so it adds only N^2 per layer — AGCRN stays
  // below the budget even at PEMS07 scale, matching Table VI.
  const double adj = static_cast<double>(w.sensors) * w.sensors;
  return ToGb(rnn + w.layers * adj);
}

double EnhanceNetGb(const MemoryWorkload& w) {
  const double rnn = 4.0 * w.layers * w.batch * w.sensors * w.history *
                     w.d_model;
  // Per-(batch, node, step) generated gate caches dominate: the plugin
  // generates distinct parameters for every node, cached across the unroll
  // for backprop: ~ B * N * H * d^2 / 2.
  const double generated = static_cast<double>(w.batch) * w.sensors *
                           w.history * w.d_model * w.d_model / 2.0;
  return ToGb(rnn + generated);
}

double FusionGraphGb(const MemoryWorkload& w) {
  // Localized spatio-temporal fusion graph: dense (4N)x(4N) operator
  // applied per batch element and layer.
  const double fused = 4.0 * w.sensors;
  const double adj = static_cast<double>(w.batch) * fused * fused;
  const double states = static_cast<double>(w.batch) * fused * w.history *
                        w.d_model;
  return ToGb(w.layers * (adj + states));
}

bool WouldOom(double gb, double budget_gb) { return gb > budget_gb; }

}  // namespace core
}  // namespace stwa
