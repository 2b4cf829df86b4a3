// SIMD GEMM kernels behind tensor/ops.cc's MatMul2D / MatMul / MatMulNT /
// MatMulTN.
//
// One kernel family, writing every output element (safe on Tensor::Uninit
// storage): a 4-row x 2-vector register tile of broadcast-FMA over a row
// range, op(B) read in 2-vector column blocks with masked column tails.
// NN and TN read B in place; NT packs op(B) into a small stack panel per
// column block and 64-step K block (a single row with k <= 2 vectors
// instead runs as its own transpose, B's rows against A's row). The
// batched matmul drivers call these per (batch, row-chunk); Gemm2D runs
// them in parallel over whole row tiles.
//
// Determinism: every C element of NN, NT and TN is one k-ascending
// Vec::Fma chain started from zero — NT's K blocks resume the chain by
// loading the partial C value back into the accumulator, which is exact —
// so every path is bit-identical to a scalar loop accumulating with
// simd::MulAddRef. Tails use masked vector loads/stores, so results never
// depend on chunk boundaries or thread count. Kernel selection depends
// only on the shape and the row range.

#ifndef STWA_SIMD_GEMM_H_
#define STWA_SIMD_GEMM_H_

#include <cstdint>

#include "simd/simd.h"

namespace stwa {
namespace simd {

/// Rows of the register tile. Callers that chunk rows for threads round
/// their grain to it, so chunks rarely end in a lone row.
inline constexpr int64_t kGemmRowTile = 4;

/// C[i,:] = A[i,:] @ B for rows i in [i0, i1); A is [m,k], B is [k,n],
/// all row-major contiguous.
void GemmRowsNN(const float* a, const float* b, float* c, int64_t i0,
                int64_t i1, int64_t k, int64_t n);

/// C[i,j] = sum_kk A[i,kk] * B[j,kk] for rows i in [i0, i1); A is [m,k],
/// B is [n,k] (i.e. C = A @ B^T without materialising the transpose).
void GemmRowsNT(const float* a, const float* b, float* c, int64_t i0,
                int64_t i1, int64_t k, int64_t n);

/// C[i,j] = sum_kk A[kk,i] * B[kk,j] for rows i in [i0, i1); A is [k,m],
/// B is [k,n] (i.e. C = A^T @ B without materialising the transpose).
void GemmRowsTN(const float* a, const float* b, float* c, int64_t i0,
                int64_t i1, int64_t k, int64_t m, int64_t n);

/// Full parallel 2-D GEMM: C[m,n] = op(A) @ op(B), where op(A) is A[m,k]
/// (or A[k,m] with trans_a) and op(B) is B[k,n] (or B[n,k] with trans_b).
/// Parallelises internally via runtime::ParallelFor over whole row tiles.
/// trans_a && trans_b is unsupported.
void Gemm2D(const float* a, const float* b, float* c, int64_t m, int64_t n,
            int64_t k, bool trans_a, bool trans_b);

}  // namespace simd
}  // namespace stwa

#endif  // STWA_SIMD_GEMM_H_
