// Reduced-precision GEMM: prepacked bf16 weight panels and the
// microkernels that consume them (DESIGN.md §4g).
//
// Only the *weight* (op(B)) operand of C = op(A) @ op(B) is narrowed;
// activations and C stay fp32. Weights are packed as round-to-nearest-even
// bf16 panels and widened back to fp32 inside the microkernel; every C
// element is the same k-ascending fma(a, widen(b), acc) chain as a scalar
// loop using simd::MulAddRef, so the kernel is bit-identical to
// GemmBf16Ref within one build.
//
// Panels are packed once (PackWeights — serving sessions do this at open
// and cache the result, see tensor/lowp_cache.h); the per-call cost is
// A-side only. Panel layout is build-specific (panel width kLowpNR), so
// packs are never serialized.
//
// Determinism: all loops assign work by index (panel jp covers columns
// [jp*NR, jp*NR+NR)), C tiles are disjoint, and K is never split across
// threads, so results are bit-identical across thread counts, batching
// and plan modes within one build — the same contract as simd/gemm.h.

#ifndef STWA_SIMD_GEMM_LOWP_H_
#define STWA_SIMD_GEMM_LOWP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "simd/lowp.h"
#include "simd/simd.h"

namespace stwa {
namespace simd {

/// bf16 panels for one GEMM weight operand.
/// Logical shape is op(B) = [k, n] (n = output channels); `trans` records
/// that the source buffer was stored [n, k] (the MatMulNT orientation).
struct PackedWeights {
  int64_t k = 0;
  int64_t n = 0;
  bool trans = false;
  int64_t nr = 0;  ///< panel width the build packed with (kLowpNR)

  /// num_panels x [k][nr] zero-padded column panels.
  std::vector<uint16_t> bf16;

  int64_t num_panels() const { return (n + nr - 1) / nr; }
  /// Bytes held by the packed panels (footprint accounting).
  int64_t PanelBytes() const;
};

/// Packs a weight buffer into bf16 panels (round-to-nearest-even).
std::shared_ptr<PackedWeights> PackWeights(const float* b, int64_t k,
                                           int64_t n, bool trans);

/// C[m, n] = op(A) @ op(B) with op(B) prepacked; op(A) is a[m, k] (or
/// a[k, m] with trans_a). Writes every C element (safe on uninit storage).
/// Parallelises internally; deterministic per the header contract.
void GemmLowp(const float* a, const PackedWeights& w, float* c, int64_t m,
              bool trans_a);

/// Scalar reference (always compiled; tests pin the kernel to it). It
/// accumulates with simd::MulAddRef so it is bit-exact vs the vector
/// kernel within one build.
void GemmBf16Ref(const float* a, const PackedWeights& w, float* c,
                 int64_t m, bool trans_a);

/// Name of the bf16 kernel variant this build dispatches to
/// ("avx512", "avx2", "scalar") — bench/banner metadata.
const char* LowpKernelName();

}  // namespace simd
}  // namespace stwa

#endif  // STWA_SIMD_GEMM_LOWP_H_
