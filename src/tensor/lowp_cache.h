// Process-wide registry of prepacked reduced-precision GEMM weights,
// keyed by the weight tensor's data pointer.
//
// Serving sessions pack their rank-2 parameters once at open
// (simd::PackWeights) and register them here; tensor/ops.cc's MatMul
// entry points consult the registry on their B operand and dispatch to
// simd::GemmLowp on a hit. A pointer key is what makes the hook work
// under parallel kernels: ParallelFor chunks run on shared pool worker
// threads, so a thread-local "current precision" would never be visible
// there — the operand pointer is, on whatever thread executes the kernel.
//
// Lifetime: a session must Unregister its weights before the model that
// owns them is destroyed. The buffer pool recycles freed allocations, so
// a stale entry could otherwise alias a future tensor at the same
// address. While a weight is registered its pointer is unique.
//
// Cost when unused: Find() bails on one relaxed atomic load while the
// registry is empty, so training and fp32 serving pay no lock traffic.

#ifndef STWA_TENSOR_LOWP_CACHE_H_
#define STWA_TENSOR_LOWP_CACHE_H_

#include <cstdint>
#include <memory>

#include "simd/gemm_lowp.h"

namespace stwa {
namespace lowp {

/// Registers packed panels for the weight buffer at `data`. The pack's
/// own k/n/trans describe the orientation it serves (trans=false: buffer
/// is op(B)=[k,n]; trans=true: buffer is [n,k], the MatMulNT operand).
/// Both orientations of one buffer may be registered. Re-registering an
/// orientation replaces it.
void Register(const float* data,
              std::shared_ptr<const simd::PackedWeights> pack);

/// Drops every pack registered for `data` (both orientations). No-op if
/// none are registered.
void Unregister(const float* data);

/// Looks up a pack for a GEMM whose B operand is the buffer at `data`
/// with logical op(B) = [k, n] (trans per the MatMulNT convention).
/// Returns nullptr on miss or any dimension mismatch — callers fall back
/// to the fp32 path, never fail.
std::shared_ptr<const simd::PackedWeights> Find(const float* data, int64_t k,
                                                int64_t n, bool trans);

/// Number of buffers currently registered (tests / stats).
int64_t ActiveCount();

/// Total bytes held in registered panels (serving footprint accounting).
int64_t TotalPanelBytes();

}  // namespace lowp
}  // namespace stwa

#endif  // STWA_TENSOR_LOWP_CACHE_H_
