#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/check.h"
#include "runtime/parallel.h"
#include "simd/gemm.h"
#include "simd/gemm_lowp.h"
#include "simd/vec_math.h"
#include "tensor/lowp_cache.h"

namespace stwa {
namespace ops {
namespace {

// Grain sizes below derive from the shared per-chunk work floor.
using detail::kMinChunkWork;

// SIMD kernels below follow the simd.h determinism contract: ragged tails
// use partial vector loads/stores (never scalar remainder loops), lane
// reductions combine in a fixed tree, and kernel selection depends only
// on the shape — so within one build, results are bit-identical across
// thread counts, pool on/off and plan on/off. On STWA_NO_SIMD builds
// (simd::kEnabled == false) every `if constexpr` below compiles the
// legacy scalar kernel, keeping scalar builds bit-identical to PR 4.
using simd::Vec;
constexpr int64_t kVecW = Vec::kWidth;

// Odometer-style iteration over an output shape with per-input strides
// that are zero on broadcast dimensions, split across the worker pool.
// The output is visited one innermost row at a time: fn(out_flat, a_off,
// b_off, len, a_stride, b_stride) handles a whole run, the odometer
// advances once per run instead of once per element, and the caller's
// inner loop sees fixed strides (0 or the innermost stride) so broadcast
// bias-adds vectorise. Element visit order is row-major and every flat
// output index belongs to exactly one chunk, so results match the serial
// loop bit-for-bit at any thread count.
template <typename Fn>
void ForEachBroadcastRuns(const Shape& out_shape,
                          const std::vector<int64_t>& a_strides,
                          const std::vector<int64_t>& b_strides, Fn&& fn) {
  const int64_t rank = static_cast<int64_t>(out_shape.size());
  const int64_t total = NumElements(out_shape);
  if (total == 0) return;
  if (rank == 0) {
    fn(0, 0, 0, 1, 0, 0);
    return;
  }
  const int64_t inner = out_shape[rank - 1];
  const int64_t sa = a_strides[rank - 1];
  const int64_t sb = b_strides[rank - 1];
  const int64_t outer = rank - 1;
  const int64_t num_runs = total / std::max<int64_t>(1, inner);
  const int64_t* shape_p = out_shape.data();
  const int64_t* as_p = a_strides.data();
  const int64_t* bs_p = b_strides.data();
  runtime::ParallelFor(
      0, num_runs, std::max<int64_t>(1, kMinChunkWork / inner),
      [shape_p, as_p, bs_p, outer, inner, sa, sb, &fn](int64_t r0,
                                                       int64_t r1) {
        std::vector<int64_t> idx(outer, 0);
        int64_t a_off = 0;
        int64_t b_off = 0;
        int64_t rem = r0;
        for (int64_t d = outer - 1; d >= 0; --d) {
          idx[d] = rem % shape_p[d];
          rem /= shape_p[d];
          a_off += idx[d] * as_p[d];
          b_off += idx[d] * bs_p[d];
        }
        for (int64_t r = r0; r < r1; ++r) {
          fn(r * inner, a_off, b_off, inner, sa, sb);
          for (int64_t d = outer - 1; d >= 0; --d) {
            ++idx[d];
            a_off += as_p[d];
            b_off += bs_p[d];
            if (idx[d] < shape_p[d]) break;
            a_off -= as_p[d] * shape_p[d];
            b_off -= bs_p[d] * shape_p[d];
            idx[d] = 0;
          }
        }
      });
}

// Strides of `shape` aligned to `out_rank` dims, with 0 stride where the
// dimension is broadcast (missing or extent 1 against a larger extent).
std::vector<int64_t> BroadcastStrides(const Shape& shape,
                                      const Shape& out_shape) {
  const int64_t out_rank = static_cast<int64_t>(out_shape.size());
  const int64_t rank = static_cast<int64_t>(shape.size());
  std::vector<int64_t> strides = Strides(shape);
  std::vector<int64_t> out(out_rank, 0);
  for (int64_t d = 0; d < rank; ++d) {
    int64_t out_d = out_rank - rank + d;
    if (shape[d] == out_shape[out_d]) {
      out[out_d] = strides[d];
    } else {
      STWA_CHECK(shape[d] == 1, "broadcast mismatch: ", ShapeToString(shape),
                 " vs ", ShapeToString(out_shape));
      out[out_d] = 0;
    }
  }
  return out;
}

// One broadcast run with a constant side: out[j] = fn(row[j], cv) (or
// fn(cv, row[j]) with SwapArgs). Vectorized with a broadcast lane for the
// constant; run boundaries are shape-derived, so tails are deterministic.
template <bool SwapArgs, typename Fn>
inline void VecRunWithConst(float* po, const float* row, float cv,
                            int64_t len, const Fn& fn) {
  const Vec c = Vec::Broadcast(cv);
  int64_t j = 0;
  for (; j + kVecW <= len; j += kVecW) {
    const Vec r = Vec::Load(row + j);
    (SwapArgs ? fn(c, r) : fn(r, c)).Store(po + j);
  }
  if (j < len) {
    const int64_t rem = len - j;
    const Vec r = simd::LoadPartial(row + j, rem);
    simd::StorePartial(SwapArgs ? fn(c, r) : fn(r, c), po + j, rem);
  }
}

template <typename Fn>
Tensor BinaryImpl(const Tensor& a, const Tensor& b, Fn&& fn) {
  using RawFn = std::remove_cvref_t<Fn>;
  constexpr bool kVec = simd::kEnabled && simd::kIsVecBinary<RawFn>;
  if (a.shape() == b.shape()) {
    Tensor out = Tensor::Uninit(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    runtime::ParallelFor(0, a.size(), kMinChunkWork,
                         [po, pa, pb, &fn](int64_t begin, int64_t end) {
                           if constexpr (kVec) {
                             detail::VecBinaryRange(po, pa, pb, begin, end,
                                                    fn);
                           } else {
                             for (int64_t i = begin; i < end; ++i) {
                               po[i] = fn(pa[i], pb[i]);
                             }
                           }
                         });
    return out;
  }
  Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  Tensor out = Tensor::Uninit(out_shape);
  auto as = BroadcastStrides(a.shape(), out_shape);
  auto bs = BroadcastStrides(b.shape(), out_shape);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  ForEachBroadcastRuns(
      out_shape, as, bs,
      [po, pa, pb, &fn](int64_t o, int64_t a0, int64_t b0, int64_t len,
                        int64_t sa, int64_t sb) {
        // Specialise the common stride patterns so the inner loop
        // vectorises: bias-add style (one side constant) and elementwise
        // rows (both advancing). Generic strides stay scalar (arithmetic
        // functors compute identical values either way).
        if (sa == 1 && sb == 0) {
          if constexpr (kVec) {
            VecRunWithConst<false>(po + o, pa + a0, pb[b0], len, fn);
          } else {
            const float bv = pb[b0];
            for (int64_t j = 0; j < len; ++j) po[o + j] = fn(pa[a0 + j], bv);
          }
        } else if (sa == 0 && sb == 1) {
          if constexpr (kVec) {
            VecRunWithConst<true>(po + o, pb + b0, pa[a0], len, fn);
          } else {
            const float av = pa[a0];
            for (int64_t j = 0; j < len; ++j) po[o + j] = fn(av, pb[b0 + j]);
          }
        } else if (sa == 1 && sb == 1) {
          if constexpr (kVec) {
            detail::VecBinaryRange(po + o, pa + a0, pb + b0, 0, len, fn);
          } else {
            for (int64_t j = 0; j < len; ++j) {
              po[o + j] = fn(pa[a0 + j], pb[b0 + j]);
            }
          }
        } else {
          for (int64_t j = 0; j < len; ++j) {
            po[o + j] = fn(pa[a0 + j * sa], pb[b0 + j * sb]);
          }
        }
      });
  return out;
}

template <typename Fn>
Tensor UnaryImpl(const Tensor& a, Fn&& fn) {
  Tensor out = Tensor::Uninit(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  runtime::ParallelFor(0, a.size(), kMinChunkWork,
                       [po, pa, &fn](int64_t begin, int64_t end) {
                         for (int64_t i = begin; i < end; ++i) {
                           po[i] = fn(pa[i]);
                         }
                       });
  return out;
}

int64_t NormalizeAxis(int64_t axis, int64_t rank) {
  if (axis < 0) axis += rank;
  STWA_CHECK(axis >= 0 && axis < rank, "axis ", axis,
             " out of range for rank ", rank);
  return axis;
}

// Collapses `shape` around `axis` into (outer, extent, inner).
void AxisSplit(const Shape& shape, int64_t axis, int64_t* outer,
               int64_t* extent, int64_t* inner) {
  *outer = 1;
  *inner = 1;
  for (int64_t d = 0; d < axis; ++d) *outer *= shape[d];
  *extent = shape[axis];
  for (int64_t d = axis + 1; d < static_cast<int64_t>(shape.size()); ++d) {
    *inner *= shape[d];
  }
}

// Matmul row kernel: accumulates A[i0:i1, :] * B into O[i0:i1, :]. Large k
// is blocked so a panel of B stays hot in cache while it is reused across
// the rows of the chunk; small k skips the blocking pass so each out row is
// written exactly once. Within one output element the k accumulation order
// stays ascending either way, identical to the naive i-k-j loop, so
// blocking does not change the result. The inner j loop is contiguous on
// both B and O, which auto-vectorises well.
void MatMulRowRange(const float* __restrict__ A, const float* __restrict__ B,
                    float* __restrict__ O, int64_t i0, int64_t i1, int64_t k,
                    int64_t n) {
  constexpr int64_t kBlockK = 512;
  if (k <= kBlockK) {
    // Single k panel: plain i-k-j sweep, one write pass over each out row.
    for (int64_t i = i0; i < i1; ++i) {
      float* __restrict__ out_row = O + i * n;
      const float* __restrict__ a_row = A + i * k;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float aik = a_row[kk];
        if (aik == 0.0f) continue;
        const float* __restrict__ b_row = B + kk * n;
        for (int64_t j = 0; j < n; ++j) out_row[j] += aik * b_row[j];
      }
    }
    return;
  }
  for (int64_t kb = 0; kb < k; kb += kBlockK) {
    const int64_t ke = std::min(k, kb + kBlockK);
    for (int64_t i = i0; i < i1; ++i) {
      float* __restrict__ out_row = O + i * n;
      const float* __restrict__ a_row = A + i * k;
      for (int64_t kk = kb; kk < ke; ++kk) {
        const float aik = a_row[kk];
        if (aik == 0.0f) continue;
        const float* __restrict__ b_row = B + kk * n;
        for (int64_t j = 0; j < n; ++j) out_row[j] += aik * b_row[j];
      }
    }
  }
}

// Row grain so one chunk holds at least ~kMinChunkWork multiply-adds.
int64_t MatMulRowGrain(int64_t k, int64_t n) {
  const int64_t flops_per_row = std::max<int64_t>(1, k * n);
  return std::max<int64_t>(1, kMinChunkWork / flops_per_row);
}

// Row kernels for the transposed-operand products. Both write each output
// element exactly once (safe on Uninit storage) and accumulate k in
// ascending order, so results are chunking-independent.

// O[i, j] = dot(A[i, :], B[j, :]); A is [m, k], B is [n, k]. Both reads
// are contiguous along k — the transpose never materialises. The dot uses
// 8 independent partial sums (a single accumulator is a serial FP
// dependency chain the compiler may not vectorise under strict IEEE
// semantics) combined in a fixed order, so the result is still
// independent of threading and chunking.
void MatMulNTRowRange(const float* __restrict__ A, const float* __restrict__ B,
                      float* __restrict__ O, int64_t i0, int64_t i1,
                      int64_t k, int64_t n) {
  constexpr int64_t kLanes = 8;
  for (int64_t i = i0; i < i1; ++i) {
    const float* __restrict__ a_row = A + i * k;
    float* __restrict__ out_row = O + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* __restrict__ b_row = B + j * k;
      float acc[kLanes] = {0.0f};
      int64_t kk = 0;
      for (; kk + kLanes <= k; kk += kLanes) {
        for (int64_t l = 0; l < kLanes; ++l) {
          acc[l] += a_row[kk + l] * b_row[kk + l];
        }
      }
      float s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
                ((acc[4] + acc[5]) + (acc[6] + acc[7]));
      for (; kk < k; ++kk) s += a_row[kk] * b_row[kk];
      out_row[j] = s;
    }
  }
}

// O[i, j] = sum_kk A[kk, i] * B[kk, j]; A is [k, m], B is [k, n]. Same
// i-k-j sweep as MatMulRowRange, with A read down a column.
void MatMulTNRowRange(const float* __restrict__ A, const float* __restrict__ B,
                      float* __restrict__ O, int64_t i0, int64_t i1,
                      int64_t k, int64_t m, int64_t n) {
  for (int64_t i = i0; i < i1; ++i) {
    float* __restrict__ out_row = O + i * n;
    std::fill(out_row, out_row + n, 0.0f);
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aki = A[kk * m + i];
      if (aki == 0.0f) continue;
      const float* __restrict__ b_row = B + kk * n;
      for (int64_t j = 0; j < n; ++j) out_row[j] += aki * b_row[j];
    }
  }
}

// Shared batched driver for the transposed-operand products: broadcasts
// the batch dims like MatMul and hands each (batch, row-range) pair to
// `row_fn(a_panel, b_panel, o_panel, i0, i1)`.
template <typename RowFn>
Tensor BatchedTransposedProduct(const Tensor& a, const Tensor& b, int64_t m,
                                int64_t n, int64_t k, RowFn&& row_fn) {
  Shape a_batch(a.shape().begin(), a.shape().end() - 2);
  Shape b_batch(b.shape().begin(), b.shape().end() - 2);
  Shape batch = BroadcastShapes(a_batch, b_batch);
  const int64_t batch_count = NumElements(batch);
  Shape out_shape = batch;
  out_shape.push_back(m);
  out_shape.push_back(n);
  Tensor out = Tensor::Uninit(out_shape);  // row kernels write every element
  if (out.size() == 0) return out;
  std::vector<int64_t> a_strides = BroadcastStrides(a_batch, batch);
  std::vector<int64_t> b_strides = BroadcastStrides(b_batch, batch);
  std::vector<int64_t> batch_strides = Strides(batch);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t a_mat = a.dim(-2) * a.dim(-1);
  const int64_t b_mat = b.dim(-2) * b.dim(-1);
  const int64_t o_mat = m * n;
  const int64_t* batch_p = batch_strides.data();
  const int64_t* as_p = a_strides.data();
  const int64_t* bs_p = b_strides.data();
  const int64_t batch_rank = static_cast<int64_t>(batch.size());
  runtime::ParallelFor(
      0, batch_count * m, MatMulRowGrain(k, n),
      [=, &row_fn](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1;) {
          const int64_t bi = r / m;
          const int64_t i0 = r % m;
          const int64_t i1 = std::min(m, i0 + (r1 - r));
          int64_t a_off = 0;
          int64_t b_off = 0;
          int64_t rem = bi;
          for (int64_t d = 0; d < batch_rank; ++d) {
            int64_t coord = rem / batch_p[d];
            rem %= batch_p[d];
            a_off += coord * as_p[d];
            b_off += coord * bs_p[d];
          }
          row_fn(pa + a_off * a_mat, pb + b_off * b_mat, po + bi * o_mat,
                 i0, i1);
          r += i1 - i0;
        }
      });
  return out;
}

}  // namespace

Shape BroadcastShapes(const Shape& a, const Shape& b) {
  const int64_t rank = std::max(a.size(), b.size());
  Shape out(rank);
  for (int64_t d = 0; d < rank; ++d) {
    int64_t ad = d >= rank - static_cast<int64_t>(a.size())
                     ? a[d - (rank - a.size())]
                     : 1;
    int64_t bd = d >= rank - static_cast<int64_t>(b.size())
                     ? b[d - (rank - b.size())]
                     : 1;
    STWA_CHECK(ad == bd || ad == 1 || bd == 1, "cannot broadcast ",
               ShapeToString(a), " with ", ShapeToString(b));
    out[d] = std::max(ad, bd);
  }
  return out;
}

std::vector<int64_t> Strides(const Shape& shape) {
  std::vector<int64_t> strides(shape.size());
  int64_t acc = 1;
  for (int64_t d = static_cast<int64_t>(shape.size()) - 1; d >= 0; --d) {
    strides[d] = acc;
    acc *= shape[d];
  }
  return strides;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryImpl(a, b, simd::AddOp{});
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryImpl(a, b, simd::SubOp{});
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryImpl(a, b, simd::MulOp{});
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryImpl(a, b, simd::DivOp{});
}
Tensor Maximum(const Tensor& a, const Tensor& b) {
  return BinaryImpl(a, b, simd::MaxOp{});
}
Tensor Minimum(const Tensor& a, const Tensor& b) {
  return BinaryImpl(a, b, simd::MinOp{});
}

Tensor BinaryOp(const Tensor& a, const Tensor& b,
                const std::function<float(float, float)>& fn) {
  return BinaryImpl(a, b, fn);
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryMap(a, simd::AddScalarOp{s});
}
Tensor MulScalar(const Tensor& a, float s) {
  return UnaryMap(a, simd::MulScalarOp{s});
}

Tensor Neg(const Tensor& a) { return UnaryMap(a, simd::NegOp{}); }
Tensor Exp(const Tensor& a) { return UnaryMap(a, simd::ExpOp{}); }
Tensor Log(const Tensor& a) {
  // No vectorized log polynomial yet; stays scalar on every build.
  return UnaryImpl(a, [](float x) { return std::log(x); });
}
Tensor Sqrt(const Tensor& a) { return UnaryMap(a, simd::SqrtOp{}); }
Tensor Abs(const Tensor& a) { return UnaryMap(a, simd::AbsOp{}); }
Tensor Square(const Tensor& a) { return UnaryMap(a, simd::SquareOp{}); }
Tensor Tanh(const Tensor& a) { return UnaryMap(a, simd::TanhOp{}); }
Tensor Sigmoid(const Tensor& a) { return UnaryMap(a, simd::SigmoidOp{}); }
Tensor Relu(const Tensor& a) { return UnaryMap(a, simd::ReluOp{}); }

Tensor UnaryOp(const Tensor& a, const std::function<float(float)>& fn) {
  return UnaryImpl(a, fn);
}

Tensor MatMul2D(const Tensor& a, const Tensor& b) {
  STWA_CHECK(a.rank() == 2 && b.rank() == 2, "MatMul2D needs rank-2 inputs, ",
             ShapeToString(a.shape()), " x ", ShapeToString(b.shape()));
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  const int64_t n = b.dim(1);
  STWA_CHECK(b.dim(0) == k, "inner dimensions mismatch: ",
             ShapeToString(a.shape()), " x ", ShapeToString(b.shape()));
  // Reduced-precision hook: a serving session registered prepacked bf16
  // panels for this weight operand (tensor/lowp_cache.h). Selection
  // depends only on the operand pointer, so eager and plan replay
  // dispatch the same way on any thread.
  if (const auto pack = lowp::Find(b.data(), k, n, /*trans=*/false)) {
    Tensor out = Tensor::Uninit(Shape{m, n});
    simd::GemmLowp(a.data(), *pack, out.data(), m, /*trans_a=*/false);
    return out;
  }
  if constexpr (simd::kEnabled) {
    // Gemm2D writes every element (packed or row path), so the output can
    // skip the zero fill the accumulating legacy kernel needed.
    Tensor out = Tensor::Uninit(Shape{m, n});
    simd::Gemm2D(a.data(), b.data(), out.data(), m, n, k,
                 /*trans_a=*/false, /*trans_b=*/false);
    return out;
  }
  Tensor out(Shape{m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  runtime::ParallelFor(0, m, MatMulRowGrain(k, n),
                       [pa, pb, po, k, n](int64_t i0, int64_t i1) {
                         MatMulRowRange(pa, pb, po, i0, i1, k, n);
                       });
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  if (a.rank() == 2 && b.rank() == 2) return MatMul2D(a, b);
  STWA_CHECK(a.rank() >= 2 && b.rank() >= 2,
             "MatMul needs rank >= 2 inputs");
  // Normalise to equal batch shapes; a rank-2 operand is shared.
  Shape a_batch(a.shape().begin(), a.shape().end() - 2);
  Shape b_batch(b.shape().begin(), b.shape().end() - 2);
  Shape batch = BroadcastShapes(a_batch, b_batch);
  const int64_t m = a.dim(-2);
  const int64_t k = a.dim(-1);
  const int64_t n = b.dim(-1);
  STWA_CHECK(b.dim(-2) == k, "inner dimensions mismatch: ",
             ShapeToString(a.shape()), " x ", ShapeToString(b.shape()));
  const int64_t batch_count = NumElements(batch);
  Shape out_shape = batch;
  out_shape.push_back(m);
  out_shape.push_back(n);
  // A shared rank-2 B multiplies every batch matrix by the same weights,
  // so the whole product is one [batch*m, k] x [k, n] GEMM over A's
  // contiguous storage. The flat NN kernels are bit-identical to the
  // per-batch row kernels (the NN packed and row paths share their
  // k-ascending FMA chains — SimdGemmTest pins this), and the flatten is
  // what routes nn::Linear through the packed fp32 path and the
  // reduced-precision weight hook.
  if (b.rank() == 2) {
    const int64_t rows = batch_count * m;
    if (const auto pack = lowp::Find(b.data(), k, n, /*trans=*/false)) {
      Tensor out = Tensor::Uninit(out_shape);
      simd::GemmLowp(a.data(), *pack, out.data(), rows, /*trans_a=*/false);
      return out;
    }
    if constexpr (simd::kEnabled) {
      Tensor out = Tensor::Uninit(out_shape);
      simd::Gemm2D(a.data(), b.data(), out.data(), rows, n, k,
                   /*trans_a=*/false, /*trans_b=*/false);
      return out;
    } else {
      Tensor out(out_shape);
      const float* pa = a.data();
      const float* pb = b.data();
      float* po = out.data();
      runtime::ParallelFor(0, rows, MatMulRowGrain(k, n),
                           [pa, pb, po, k, n](int64_t i0, int64_t i1) {
                             MatMulRowRange(pa, pb, po, i0, i1, k, n);
                           });
      return out;
    }
  }
  // The SIMD row kernel writes every element; the legacy kernel
  // accumulates into zeros.
  Tensor out = simd::kEnabled ? Tensor::Uninit(out_shape)
                              : Tensor(out_shape);

  // Per-batch offsets honouring broadcasting over the batch dims.
  std::vector<int64_t> a_strides =
      BroadcastStrides(a_batch, batch);
  std::vector<int64_t> b_strides =
      BroadcastStrides(b_batch, batch);
  std::vector<int64_t> batch_strides = Strides(batch);

  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t a_mat = m * k;
  const int64_t b_mat = k * n;
  const int64_t o_mat = m * n;
  const int64_t* batch_p = batch_strides.data();
  const int64_t* as_p = a_strides.data();
  const int64_t* bs_p = b_strides.data();
  const int64_t batch_rank = static_cast<int64_t>(batch.size());
  // Parallel over the flattened (batch, row) space so small-m batches and
  // single large matrices both load every worker. Pointers and scalars are
  // captured by value to keep them in registers across output stores.
  runtime::ParallelFor(
      0, batch_count * m, MatMulRowGrain(k, n),
      [=](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1;) {
          const int64_t bi = r / m;
          const int64_t i0 = r % m;
          const int64_t i1 = std::min(m, i0 + (r1 - r));
          int64_t a_off = 0;
          int64_t b_off = 0;
          int64_t rem = bi;
          for (int64_t d = 0; d < batch_rank; ++d) {
            int64_t coord = rem / batch_p[d];
            rem %= batch_p[d];
            a_off += coord * as_p[d];
            b_off += coord * bs_p[d];
          }
          if constexpr (simd::kEnabled) {
            simd::GemmRowsNN(pa + a_off * a_mat, pb + b_off * b_mat,
                             po + bi * o_mat, i0, i1, k, n);
          } else {
            MatMulRowRange(pa + a_off * a_mat, pb + b_off * b_mat,
                           po + bi * o_mat, i0, i1, k, n);
          }
          r += i1 - i0;
        }
      });
  return out;
}

Tensor MatMulNT(const Tensor& a, const Tensor& b) {
  STWA_CHECK(a.rank() >= 2 && b.rank() >= 2,
             "MatMulNT needs rank >= 2 inputs");
  const int64_t m = a.dim(-2);
  const int64_t k = a.dim(-1);
  const int64_t n = b.dim(-2);
  STWA_CHECK(b.dim(-1) == k, "inner dimensions mismatch: ",
             ShapeToString(a.shape()), " x ", ShapeToString(b.shape()),
             "^T");
  // Reduced-precision hook for a registered [n, k] weight operand. A
  // shared rank-2 B lets the batch flatten into one [batch*m, k] GEMM,
  // same as MatMul's flatten.
  if (b.rank() == 2) {
    if (const auto pack = lowp::Find(b.data(), k, n, /*trans=*/true)) {
      Shape out_shape(a.shape().begin(), a.shape().end() - 2);
      out_shape.push_back(m);
      out_shape.push_back(n);
      Tensor out = Tensor::Uninit(out_shape);
      simd::GemmLowp(a.data(), *pack, out.data(), out.size() / std::max<int64_t>(1, n),
                     /*trans_a=*/false);
      return out;
    }
  }
  if constexpr (simd::kEnabled) {
    if (a.rank() == 2 && b.rank() == 2 && simd::GemmUsesPackedPath(m, n, k)) {
      Tensor out = Tensor::Uninit(Shape{m, n});
      simd::Gemm2D(a.data(), b.data(), out.data(), m, n, k,
                   /*trans_a=*/false, /*trans_b=*/true);
      return out;
    }
  }
  return BatchedTransposedProduct(
      a, b, m, n, k,
      [k, n](const float* pa, const float* pb, float* po, int64_t i0,
             int64_t i1) {
        if constexpr (simd::kEnabled) {
          simd::GemmRowsNT(pa, pb, po, i0, i1, k, n);
        } else {
          MatMulNTRowRange(pa, pb, po, i0, i1, k, n);
        }
      });
}

Tensor MatMulTN(const Tensor& a, const Tensor& b) {
  STWA_CHECK(a.rank() >= 2 && b.rank() >= 2,
             "MatMulTN needs rank >= 2 inputs");
  const int64_t k = a.dim(-2);
  const int64_t m = a.dim(-1);
  const int64_t n = b.dim(-1);
  STWA_CHECK(b.dim(-2) == k, "inner dimensions mismatch: ",
             ShapeToString(a.shape()), "^T x ", ShapeToString(b.shape()));
  // Reduced-precision hook: op(B) is B's natural [k, n] layout here, so a
  // registered NN pack serves TN too; only op(A) differs.
  if (a.rank() == 2 && b.rank() == 2) {
    if (const auto pack = lowp::Find(b.data(), k, n, /*trans=*/false)) {
      Tensor out = Tensor::Uninit(Shape{m, n});
      simd::GemmLowp(a.data(), *pack, out.data(), m, /*trans_a=*/true);
      return out;
    }
  }
  if constexpr (simd::kEnabled) {
    if (a.rank() == 2 && b.rank() == 2 && simd::GemmUsesPackedPath(m, n, k)) {
      Tensor out = Tensor::Uninit(Shape{m, n});
      simd::Gemm2D(a.data(), b.data(), out.data(), m, n, k,
                   /*trans_a=*/true, /*trans_b=*/false);
      return out;
    }
  }
  return BatchedTransposedProduct(
      a, b, m, n, k,
      [k, m, n](const float* pa, const float* pb, float* po, int64_t i0,
                int64_t i1) {
        if constexpr (simd::kEnabled) {
          simd::GemmRowsTN(pa, pb, po, i0, i1, k, m, n);
        } else {
          MatMulTNRowRange(pa, pb, po, i0, i1, k, m, n);
        }
      });
}

Tensor TransposeLast2(const Tensor& a) {
  STWA_CHECK(a.rank() >= 2, "TransposeLast2 needs rank >= 2");
  std::vector<int64_t> axes(a.rank());
  for (int64_t d = 0; d < a.rank(); ++d) axes[d] = d;
  std::swap(axes[a.rank() - 1], axes[a.rank() - 2]);
  return Permute(a, axes);
}

Tensor Permute(const Tensor& a, const std::vector<int64_t>& axes) {
  const int64_t rank = a.rank();
  STWA_CHECK(static_cast<int64_t>(axes.size()) == rank,
             "Permute axes rank mismatch");
  std::vector<bool> seen(rank, false);
  Shape out_shape(rank);
  for (int64_t d = 0; d < rank; ++d) {
    STWA_CHECK(axes[d] >= 0 && axes[d] < rank && !seen[axes[d]],
               "invalid permutation");
    seen[axes[d]] = true;
    out_shape[d] = a.shape()[axes[d]];
  }
  Tensor out = Tensor::Uninit(out_shape);
  if (a.size() == 0) return out;
  std::vector<int64_t> in_strides = Strides(a.shape());
  // stride in the input for each output axis
  std::vector<int64_t> strides(rank);
  for (int64_t d = 0; d < rank; ++d) strides[d] = in_strides[axes[d]];
  const float* pa = a.data();
  float* po = out.data();

  // Collapse the trailing output axes that are contiguous in the input
  // into a single run: one memcpy per run replaces the per-element
  // odometer (the dominant cost for the [0,2,1,3]-style permutes window
  // attention performs on every head).
  int64_t run = 1;
  int64_t outer = rank;
  while (outer > 0 && strides[outer - 1] == run) {
    run *= out_shape[outer - 1];
    --outer;
  }
  if (outer == 0) {  // input already laid out in output order
    std::copy(pa, pa + a.size(), po);
    return out;
  }
  // Without a contiguous tail, runs still cover the last axis with a
  // fixed stride — a strided gather loop, but no odometer per element.
  const int64_t inner = run > 1 ? run : out_shape[rank - 1];
  const int64_t inner_stride = run > 1 ? 1 : strides[rank - 1];
  if (run == 1) outer = rank - 1;
  const int64_t num_runs = a.size() / inner;
  const int64_t* shape_p = out_shape.data();
  const int64_t* strides_p = strides.data();
  runtime::ParallelFor(
      0, num_runs, std::max<int64_t>(1, kMinChunkWork / inner),
      [=](int64_t r0, int64_t r1) {
        std::vector<int64_t> idx(outer, 0);
        int64_t in_off = 0;
        int64_t rem = r0;
        for (int64_t d = outer - 1; d >= 0; --d) {
          idx[d] = rem % shape_p[d];
          rem /= shape_p[d];
          in_off += idx[d] * strides_p[d];
        }
        for (int64_t r = r0; r < r1; ++r) {
          float* dst = po + r * inner;
          const float* src = pa + in_off;
          if (inner_stride == 1) {
            std::memcpy(dst, src, sizeof(float) * inner);
          } else {
            for (int64_t j = 0; j < inner; ++j) {
              dst[j] = src[j * inner_stride];
            }
          }
          for (int64_t d = outer - 1; d >= 0; --d) {
            ++idx[d];
            in_off += strides_p[d];
            if (idx[d] < shape_p[d]) break;
            in_off -= strides_p[d] * shape_p[d];
            idx[d] = 0;
          }
        }
      });
  return out;
}

Tensor SumAll(const Tensor& a) {
  double acc = 0.0;
  const float* p = a.data();
  for (int64_t i = 0; i < a.size(); ++i) acc += p[i];
  Tensor out(Shape{});
  out.data()[0] = static_cast<float>(acc);
  return out;
}

Tensor MeanAll(const Tensor& a) {
  STWA_CHECK(a.size() > 0, "MeanAll of empty tensor");
  Tensor s = SumAll(a);
  s.data()[0] /= static_cast<float>(a.size());
  return s;
}

Tensor Sum(const Tensor& a, int64_t axis, bool keepdims) {
  axis = NormalizeAxis(axis, a.rank());
  int64_t outer;
  int64_t extent;
  int64_t inner;
  AxisSplit(a.shape(), axis, &outer, &extent, &inner);
  Shape out_shape = a.shape();
  if (keepdims) {
    out_shape[axis] = 1;
  } else {
    out_shape.erase(out_shape.begin() + axis);
  }
  Tensor out(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  // Parallel over `outer` slices: each output element is reduced by one
  // chunk. inner > 1 vectorizes across the inner axis keeping the exact
  // ascending-e per-element order of the serial loop; inner == 1 (last
  // axis) uses fixed lane accumulators over the extent (zero pad lanes
  // are the add identity), deterministic but lane-split, so it differs
  // from the scalar build in low-order bits.
  const bool vec_last = simd::kEnabled && inner == 1 && extent >= kVecW;
  runtime::ParallelFor(
      0, outer, std::max<int64_t>(1, kMinChunkWork / (extent * inner + 1)),
      [=](int64_t o0, int64_t o1) {
        for (int64_t o = o0; o < o1; ++o) {
          if (vec_last) {
            const float* src = pa + o * extent;
            Vec acc = Vec::Zero();
            int64_t e = 0;
            for (; e + kVecW <= extent; e += kVecW) {
              acc = acc + Vec::Load(src + e);
            }
            if (e < extent) {
              acc = acc + simd::LoadPartial(src + e, extent - e);
            }
            po[o] = simd::ReduceAdd(acc);
            continue;
          }
          for (int64_t e = 0; e < extent; ++e) {
            const float* src = pa + (o * extent + e) * inner;
            float* dst = po + o * inner;
            if constexpr (simd::kEnabled) {
              if (inner > 1) {
                detail::VecBinaryRange(dst, dst, src, 0, inner,
                                       simd::AddOp{});
                continue;
              }
            }
            for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
          }
        }
      });
  return out;
}

Tensor Mean(const Tensor& a, int64_t axis, bool keepdims) {
  axis = NormalizeAxis(axis, a.rank());
  Tensor s = Sum(a, axis, keepdims);
  const float inv = 1.0f / static_cast<float>(a.shape()[axis]);
  float* p = s.data();
  for (int64_t i = 0; i < s.size(); ++i) p[i] *= inv;
  return s;
}

Tensor Max(const Tensor& a, int64_t axis, bool keepdims) {
  axis = NormalizeAxis(axis, a.rank());
  int64_t outer;
  int64_t extent;
  int64_t inner;
  AxisSplit(a.shape(), axis, &outer, &extent, &inner);
  STWA_CHECK(extent > 0, "Max over empty axis");
  Shape out_shape = a.shape();
  if (keepdims) {
    out_shape[axis] = 1;
  } else {
    out_shape.erase(out_shape.begin() + axis);
  }
  Tensor out(out_shape, -std::numeric_limits<float>::infinity());
  const float* pa = a.data();
  float* po = out.data();
  // Same split as Sum: vector-across-inner keeps the serial per-element
  // order (max is exact either way); last-axis rows use lane maxima with
  // -inf pad lanes.
  const bool vec_last = simd::kEnabled && inner == 1 && extent >= kVecW;
  runtime::ParallelFor(
      0, outer, std::max<int64_t>(1, kMinChunkWork / (extent * inner + 1)),
      [=](int64_t o0, int64_t o1) {
        for (int64_t o = o0; o < o1; ++o) {
          if (vec_last) {
            const float* src = pa + o * extent;
            Vec acc = Vec::Broadcast(-std::numeric_limits<float>::infinity());
            int64_t e = 0;
            for (; e + kVecW <= extent; e += kVecW) {
              acc = Vec::Max(acc, Vec::Load(src + e));
            }
            if (e < extent) {
              acc = Vec::Max(
                  acc, simd::LoadPartial(
                           src + e, extent - e,
                           -std::numeric_limits<float>::infinity()));
            }
            po[o] = simd::ReduceMax(acc);
            continue;
          }
          for (int64_t e = 0; e < extent; ++e) {
            const float* src = pa + (o * extent + e) * inner;
            float* dst = po + o * inner;
            if constexpr (simd::kEnabled) {
              if (inner > 1) {
                detail::VecBinaryRange(dst, dst, src, 0, inner,
                                       simd::MaxOp{});
                continue;
              }
            }
            for (int64_t i = 0; i < inner; ++i) {
              dst[i] = std::max(dst[i], src[i]);
            }
          }
        }
      });
  return out;
}

Tensor ArgMaxLast(const Tensor& a) {
  STWA_CHECK(a.rank() >= 1, "ArgMaxLast needs rank >= 1");
  const int64_t last = a.dim(-1);
  STWA_CHECK(last > 0, "ArgMaxLast over empty axis");
  const int64_t rows = a.size() / last;
  Shape out_shape(a.shape().begin(), a.shape().end() - 1);
  Tensor out = Tensor::Uninit(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = pa + r * last;
    int64_t best = 0;
    for (int64_t j = 1; j < last; ++j) {
      if (row[j] > row[best]) best = j;
    }
    po[r] = static_cast<float>(best);
  }
  return out;
}

Tensor ReduceToShape(const Tensor& grad, const Shape& shape) {
  if (grad.shape() == shape) return grad;
  // Align target shape to grad rank with leading 1s, sum where target is 1
  // or missing, then reshape to the target.
  const int64_t grank = grad.rank();
  const int64_t trank = static_cast<int64_t>(shape.size());
  Tensor cur = grad;
  // Sum away extra leading axes.
  for (int64_t d = 0; d < grank - trank; ++d) cur = Sum(cur, 0, false);
  // Sum broadcast (extent-1) axes, keeping dims.
  for (int64_t d = 0; d < trank; ++d) {
    if (shape[d] == 1 && cur.shape()[d] != 1) {
      cur = Sum(cur, d, /*keepdims=*/true);
    } else {
      STWA_CHECK(shape[d] == cur.shape()[d], "ReduceToShape mismatch: ",
                 ShapeToString(grad.shape()), " -> ", ShapeToString(shape));
    }
  }
  return cur.Reshape(shape);
}

Tensor BroadcastTo(const Tensor& a, const Shape& shape) {
  if (a.shape() == shape) return a;
  STWA_CHECK(BroadcastShapes(a.shape(), shape) == shape,
             "cannot broadcast ", ShapeToString(a.shape()), " to ",
             ShapeToString(shape));
  Tensor out = Tensor::Uninit(shape);
  if (out.size() == 0) return out;
  std::vector<int64_t> a_strides = BroadcastStrides(a.shape(), shape);
  const std::vector<int64_t> zero(shape.size(), 0);
  const float* pa = a.data();
  float* po = out.data();
  ForEachBroadcastRuns(
      shape, a_strides, zero,
      [po, pa](int64_t o, int64_t a0, int64_t, int64_t len, int64_t sa,
               int64_t) {
        if (sa == 1) {
          std::memcpy(po + o, pa + a0, sizeof(float) * len);
        } else if (sa == 0) {
          std::fill(po + o, po + o + len, pa[a0]);
        } else {
          for (int64_t j = 0; j < len; ++j) po[o + j] = pa[a0 + j * sa];
        }
      });
  return out;
}

// Per-row softmax body of SoftmaxLast: rows are independent, so a range
// [r0, r1) computes the same bits regardless of which worker runs it.
// In-place safe (src == dst): every element is read before its slot is
// overwritten. `vec_rows` must be the
// shape-only decision `simd::kEnabled && last >= kVecW`.
static void SoftmaxRowRange(const float* pa, float* po, int64_t r0,
                            int64_t r1, int64_t last, bool vec_rows) {
  for (int64_t r = r0; r < r1; ++r) {
    const float* src = pa + r * last;
    float* dst = po + r * last;
    if (vec_rows) {
      // Row max: -inf pad lanes are the max identity.
      Vec vmax = Vec::Broadcast(-std::numeric_limits<float>::infinity());
      int64_t j = 0;
      for (; j + kVecW <= last; j += kVecW) {
        vmax = Vec::Max(vmax, Vec::Load(src + j));
      }
      if (j < last) {
        vmax = Vec::Max(
            vmax, simd::LoadPartial(
                      src + j, last - j,
                      -std::numeric_limits<float>::infinity()));
      }
      const float mx = simd::ReduceMax(vmax);
      // exp and the row sum in one sweep; tail pad lanes hold
      // exp(0 - mx) garbage, so they are masked to the add
      // identity before accumulating (and never stored).
      const Vec vmx = Vec::Broadcast(mx);
      Vec vsum = Vec::Zero();
      j = 0;
      for (; j + kVecW <= last; j += kVecW) {
        const Vec e = simd::ExpV(Vec::Load(src + j) - vmx);
        e.Store(dst + j);
        vsum = vsum + e;
      }
      if (j < last) {
        const int64_t rem = last - j;
        const Vec e = simd::ExpV(simd::LoadPartial(src + j, rem) - vmx);
        simd::StorePartial(e, dst + j, rem);
        vsum = vsum + simd::MaskFirstN(e, rem);
      }
      const Vec vinv = Vec::Broadcast(1.0f / simd::ReduceAdd(vsum));
      j = 0;
      for (; j + kVecW <= last; j += kVecW) {
        (Vec::Load(dst + j) * vinv).Store(dst + j);
      }
      if (j < last) {
        simd::StorePartial(simd::LoadPartial(dst + j, last - j) * vinv,
                           dst + j, last - j);
      }
    } else {
      float mx = src[0];
      for (int64_t j = 1; j < last; ++j) mx = std::max(mx, src[j]);
      float sum = 0.0f;
      for (int64_t j = 0; j < last; ++j) {
        dst[j] = std::exp(src[j] - mx);
        sum += dst[j];
      }
      const float inv = 1.0f / sum;
      for (int64_t j = 0; j < last; ++j) dst[j] *= inv;
    }
  }
}

Tensor SoftmaxLast(const Tensor& a) {
  STWA_CHECK(a.rank() >= 1, "SoftmaxLast needs rank >= 1");
  const int64_t last = a.dim(-1);
  STWA_CHECK(last > 0, "SoftmaxLast over empty axis");
  const int64_t rows = a.size() / last;
  Tensor out = Tensor::Uninit(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  // Vector path only when a row holds at least one full vector: window
  // attention softmaxes rows of 2-3 where the scalar loop wins. The choice
  // depends only on the shape, so it is deterministic.
  const bool vec_rows = simd::kEnabled && last >= kVecW;
  runtime::ParallelFor(
      0, rows, std::max<int64_t>(1, kMinChunkWork / (4 * last)),
      [=](int64_t r0, int64_t r1) {
        SoftmaxRowRange(pa, po, r0, r1, last, vec_rows);
      });
  return out;
}

Tensor SoftmaxLastBackward(const Tensor& y, const Tensor& g) {
  STWA_CHECK(y.shape() == g.shape(), "SoftmaxLastBackward shape mismatch: ",
             ShapeToString(y.shape()), " vs ", ShapeToString(g.shape()));
  STWA_CHECK(y.rank() >= 1, "SoftmaxLastBackward needs rank >= 1");
  const int64_t last = y.dim(-1);
  STWA_CHECK(last > 0, "SoftmaxLastBackward over empty axis");
  const int64_t rows = y.size() / last;
  Tensor out = Tensor::Uninit(y.shape());
  const float* py = y.data();
  const float* pg = g.data();
  float* po = out.data();
  // Scalar path: row-serial accumulation in ascending j order,
  // bit-identical to the unfused Mul/Sum/Sub/Mul composition it replaces.
  // Vector path (rows of at least one full vector): fixed lane
  // accumulators for s — zero pad lanes contribute fma(0, 0, acc) == acc
  // exactly, so the ragged tail needs no mask.
  const bool vec_rows = simd::kEnabled && last >= kVecW;
  runtime::ParallelFor(
      0, rows, std::max<int64_t>(1, kMinChunkWork / (4 * last)),
      [=](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const float* yr = py + r * last;
          const float* gr = pg + r * last;
          float* dst = po + r * last;
          if (vec_rows) {
            Vec vs = Vec::Zero();
            int64_t j = 0;
            for (; j + kVecW <= last; j += kVecW) {
              vs = Vec::Fma(Vec::Load(gr + j), Vec::Load(yr + j), vs);
            }
            if (j < last) {
              const int64_t rem = last - j;
              vs = Vec::Fma(simd::LoadPartial(gr + j, rem),
                            simd::LoadPartial(yr + j, rem), vs);
            }
            const Vec s = Vec::Broadcast(simd::ReduceAdd(vs));
            j = 0;
            for (; j + kVecW <= last; j += kVecW) {
              (Vec::Load(yr + j) * (Vec::Load(gr + j) - s)).Store(dst + j);
            }
            if (j < last) {
              const int64_t rem = last - j;
              simd::StorePartial(simd::LoadPartial(yr + j, rem) *
                                     (simd::LoadPartial(gr + j, rem) - s),
                                 dst + j, rem);
            }
          } else {
            float s = 0.0f;
            for (int64_t j = 0; j < last; ++j) s += gr[j] * yr[j];
            for (int64_t j = 0; j < last; ++j) dst[j] = yr[j] * (gr[j] - s);
          }
        }
      });
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t axis) {
  STWA_CHECK(!parts.empty(), "Concat of zero tensors");
  const int64_t rank = parts[0].rank();
  axis = NormalizeAxis(axis, rank);
  Shape out_shape = parts[0].shape();
  int64_t total_axis = 0;
  for (const Tensor& t : parts) {
    STWA_CHECK(t.rank() == rank, "Concat rank mismatch");
    for (int64_t d = 0; d < rank; ++d) {
      if (d != axis) {
        STWA_CHECK(t.shape()[d] == out_shape[d],
                   "Concat shape mismatch on dim ", d);
      }
    }
    total_axis += t.shape()[axis];
  }
  out_shape[axis] = total_axis;
  Tensor out = Tensor::Uninit(out_shape);
  int64_t outer;
  int64_t extent;
  int64_t inner;
  AxisSplit(out_shape, axis, &outer, &extent, &inner);
  float* po = out.data();
  int64_t axis_offset = 0;
  for (const Tensor& t : parts) {
    const int64_t t_extent = t.shape()[axis];
    const float* pt = t.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(po + (o * extent + axis_offset) * inner,
                  pt + o * t_extent * inner,
                  sizeof(float) * t_extent * inner);
    }
    axis_offset += t_extent;
  }
  return out;
}

Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t len) {
  axis = NormalizeAxis(axis, a.rank());
  STWA_CHECK(start >= 0 && len >= 0 && start + len <= a.shape()[axis],
             "Slice range [", start, ", ", start + len,
             ") out of bounds for extent ", a.shape()[axis]);
  int64_t outer;
  int64_t extent;
  int64_t inner;
  AxisSplit(a.shape(), axis, &outer, &extent, &inner);
  Shape out_shape = a.shape();
  out_shape[axis] = len;
  Tensor out = Tensor::Uninit(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    std::memcpy(po + o * len * inner, pa + (o * extent + start) * inner,
                sizeof(float) * len * inner);
  }
  return out;
}

Tensor Stack(const std::vector<Tensor>& parts) {
  STWA_CHECK(!parts.empty(), "Stack of zero tensors");
  for (const Tensor& t : parts) {
    STWA_CHECK(t.shape() == parts[0].shape(), "Stack shape mismatch");
  }
  Shape out_shape = parts[0].shape();
  out_shape.insert(out_shape.begin(),
                   static_cast<int64_t>(parts.size()));
  Tensor out = Tensor::Uninit(out_shape);
  float* po = out.data();
  const int64_t each = parts[0].size();
  for (size_t i = 0; i < parts.size(); ++i) {
    std::memcpy(po + i * each, parts[i].data(), sizeof(float) * each);
  }
  return out;
}

Tensor IndexSelect0(const Tensor& a, const std::vector<int64_t>& indices) {
  STWA_CHECK(a.rank() >= 1, "IndexSelect0 needs rank >= 1");
  const int64_t rows = a.dim(0);
  const int64_t row_size = rows == 0 ? 0 : a.size() / rows;
  Shape out_shape = a.shape();
  out_shape[0] = static_cast<int64_t>(indices.size());
  Tensor out = Tensor::Uninit(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t r = indices[i];
    STWA_CHECK(r >= 0 && r < rows, "index ", r, " out of range [0, ", rows,
               ")");
    std::memcpy(po + i * row_size, pa + r * row_size,
                sizeof(float) * row_size);
  }
  return out;
}

void ScatterAddRows(Tensor& dst, const std::vector<int64_t>& indices,
                    const Tensor& src) {
  STWA_CHECK(dst.rank() >= 1 && src.rank() >= 1, "rank >= 1 required");
  const int64_t rows = dst.dim(0);
  const int64_t row_size = rows == 0 ? 0 : dst.size() / rows;
  STWA_CHECK(src.dim(0) == static_cast<int64_t>(indices.size()),
             "ScatterAddRows row count mismatch");
  STWA_CHECK(src.size() == row_size * src.dim(0),
             "ScatterAddRows row size mismatch");
  const float* ps = src.data();
  float* pd = dst.data();
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t r = indices[i];
    STWA_CHECK(r >= 0 && r < rows, "index ", r, " out of range");
    const float* srow = ps + i * row_size;
    float* drow = pd + r * row_size;
    for (int64_t j = 0; j < row_size; ++j) drow[j] += srow[j];
  }
}

void AddInPlace(Tensor& dst, const Tensor& src) {
  STWA_CHECK(dst.shape() == src.shape(), "AddInPlace shape mismatch: ",
             ShapeToString(dst.shape()), " vs ", ShapeToString(src.shape()));
  float* pd = dst.data();
  const float* ps = src.data();
  runtime::ParallelFor(0, dst.size(), kMinChunkWork,
                       [pd, ps](int64_t begin, int64_t end) {
                         if constexpr (simd::kEnabled) {
                           detail::VecBinaryRange(pd, pd, ps, begin, end,
                                                  simd::AddOp{});
                         } else {
                           for (int64_t i = begin; i < end; ++i) {
                             pd[i] += ps[i];
                           }
                         }
                       });
}

void AxpyInPlace(Tensor& dst, float s, const Tensor& src) {
  STWA_CHECK(dst.shape() == src.shape(), "AxpyInPlace shape mismatch");
  float* pd = dst.data();
  const float* ps = src.data();
  runtime::ParallelFor(
      0, dst.size(), kMinChunkWork, [pd, ps, s](int64_t begin, int64_t end) {
        if constexpr (simd::kEnabled) {
          const Vec vs = Vec::Broadcast(s);
          int64_t i = begin;
          for (; i + kVecW <= end; i += kVecW) {
            Vec::Fma(vs, Vec::Load(ps + i), Vec::Load(pd + i)).Store(pd + i);
          }
          if (i < end) {
            const int64_t rem = end - i;
            simd::StorePartial(Vec::Fma(vs, simd::LoadPartial(ps + i, rem),
                                        simd::LoadPartial(pd + i, rem)),
                               pd + i, rem);
          }
        } else {
          for (int64_t i = begin; i < end; ++i) {
            pd[i] += s * ps[i];
          }
        }
      });
}

void MulInPlace(Tensor& dst, const Tensor& src) {
  STWA_CHECK(dst.shape() == src.shape(), "MulInPlace shape mismatch: ",
             ShapeToString(dst.shape()), " vs ", ShapeToString(src.shape()));
  float* pd = dst.data();
  const float* ps = src.data();
  runtime::ParallelFor(0, dst.size(), kMinChunkWork,
                       [pd, ps](int64_t begin, int64_t end) {
                         if constexpr (simd::kEnabled) {
                           detail::VecBinaryRange(pd, pd, ps, begin, end,
                                                  simd::MulOp{});
                         } else {
                           for (int64_t i = begin; i < end; ++i) {
                             pd[i] *= ps[i];
                           }
                         }
                       });
}

void MulScalarInPlace(Tensor& dst, float s) {
  float* pd = dst.data();
  runtime::ParallelFor(0, dst.size(), kMinChunkWork,
                       [pd, s](int64_t begin, int64_t end) {
                         if constexpr (simd::kEnabled) {
                           detail::VecUnaryRange(pd, pd, begin, end,
                                                 simd::MulScalarOp{s});
                         } else {
                           for (int64_t i = begin; i < end; ++i) {
                             pd[i] *= s;
                           }
                         }
                       });
}

void AddMulInPlace(Tensor& dst, const Tensor& a, const Tensor& b) {
  STWA_CHECK(dst.shape() == a.shape() && dst.shape() == b.shape(),
             "AddMulInPlace shape mismatch: ", ShapeToString(dst.shape()),
             " vs ", ShapeToString(a.shape()), " vs ",
             ShapeToString(b.shape()));
  float* pd = dst.data();
  const float* pa = a.data();
  const float* pb = b.data();
  runtime::ParallelFor(
      0, dst.size(), kMinChunkWork, [pd, pa, pb](int64_t begin, int64_t end) {
        if constexpr (simd::kEnabled) {
          int64_t i = begin;
          for (; i + kVecW <= end; i += kVecW) {
            Vec::Fma(Vec::Load(pa + i), Vec::Load(pb + i), Vec::Load(pd + i))
                .Store(pd + i);
          }
          if (i < end) {
            const int64_t rem = end - i;
            simd::StorePartial(Vec::Fma(simd::LoadPartial(pa + i, rem),
                                        simd::LoadPartial(pb + i, rem),
                                        simd::LoadPartial(pd + i, rem)),
                               pd + i, rem);
          }
        } else {
          for (int64_t i = begin; i < end; ++i) {
            pd[i] += pa[i] * pb[i];
          }
        }
      });
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  STWA_CHECK(a.shape() == b.shape(), "MaxAbsDiff shape mismatch");
  float mx = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    mx = std::max(mx, std::fabs(pa[i] - pb[i]));
  }
  return mx;
}

bool AllClose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::fabs(pa[i] - pb[i]) > atol + rtol * std::fabs(pb[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace ops
}  // namespace stwa
