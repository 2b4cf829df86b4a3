#include "simd/gemm.h"

#include <algorithm>

#include "common/check.h"
#include "runtime/parallel.h"

namespace stwa {
namespace simd {
namespace {

constexpr int64_t kW = Vec::kWidth;
// Matches ops::detail::kMinChunkWork (kept local: simd must not depend on
// tensor/ops.h, which includes this layer).
constexpr int64_t kMinChunkFlops = 16384;
// Column block of the register tile: two vectors.
constexpr int64_t kGemmNR = 2 * kW;
// NT panels hold at most kPanelK k steps (4 KiB of stack on AVX2); longer
// k runs in K blocks that resume each chain from C.
constexpr int64_t kPanelK = 64;

int64_t RowGrain(int64_t k, int64_t n) {
  const int64_t flops_per_row = std::max<int64_t>(1, k * n);
  return std::max<int64_t>(1, kMinChunkFlops / flops_per_row);
}

// --- Row kernels ---------------------------------------------------------

// R x V register tile over kc k steps: C[r, 0:cols] for r < R, where
// cols <= V*kW. A(r, kk) = a[r * a_row + kk * a_k]; row kk of op(B) starts
// at b + kk * ldb. Each element is one k-ascending Vec::Fma chain, started
// from zero or, with `resume`, from the value already in C (exact: a
// load/store round trip does not round). kMaskB loads the last vector of
// each op(B) row through a tail mask (a ragged column block: lanes past
// `cols` are never read); C tails are always masked.
template <int R, int V, bool kMaskB>
inline void RowTile(const float* a, int64_t a_row, int64_t a_k,
                    const float* b, int64_t ldb, float* c, int64_t ldc,
                    int64_t kc, int64_t cols, bool resume) {
  const int64_t tail = cols - (V - 1) * kW;  // lanes of the last vector
  Vec acc[R][V];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      const float* cp = c + r * ldc + v * kW;
      acc[r][v] = !resume         ? Vec::Zero()
                  : v == V - 1    ? LoadPartial(cp, tail)
                                  : Vec::Load(cp);
    }
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* br = b + kk * ldb;
    Vec bv[V];
    for (int v = 0; v < V; ++v) {
      bv[v] = kMaskB && v == V - 1 ? LoadPartial(br + v * kW, tail)
                                   : Vec::Load(br + v * kW);
    }
    const float* ak = a + kk * a_k;
    for (int r = 0; r < R; ++r) {
      const Vec av = Vec::Broadcast(ak[r * a_row]);
      for (int v = 0; v < V; ++v) acc[r][v] = Vec::Fma(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < R; ++r) {
    float* cr = c + r * ldc;
    for (int v = 0; v < V - 1; ++v) acc[r][v].Store(cr + v * kW);
    if (tail == kW) {
      acc[r][V - 1].Store(cr + (V - 1) * kW);
    } else {
      StorePartial(acc[r][V - 1], cr + (V - 1) * kW, tail);
    }
  }
}

// Rows [i0, i1) of one column block (cols <= kGemmNR columns starting at
// b and c) in kGemmRowTile-row tiles plus one remainder tile.
template <int V, bool kMaskB>
void RowSweep(const float* a, int64_t a_row, int64_t a_k, const float* b,
              int64_t ldb, float* c, int64_t ldc, int64_t i0, int64_t i1,
              int64_t kc, int64_t cols, bool resume) {
  int64_t i = i0;
  for (; i + kGemmRowTile <= i1; i += kGemmRowTile) {
    RowTile<kGemmRowTile, V, kMaskB>(a + i * a_row, a_row, a_k, b, ldb,
                                 c + i * ldc, ldc, kc, cols, resume);
  }
  const float* ai = a + i * a_row;
  float* ci = c + i * ldc;
  switch (i1 - i) {
    case 3:
      RowTile<3, V, kMaskB>(ai, a_row, a_k, b, ldb, ci, ldc, kc, cols, resume);
      break;
    case 2:
      RowTile<2, V, kMaskB>(ai, a_row, a_k, b, ldb, ci, ldc, kc, cols, resume);
      break;
    case 1:
      RowTile<1, V, kMaskB>(ai, a_row, a_k, b, ldb, ci, ldc, kc, cols, resume);
      break;
    default:
      break;
  }
}

// One column block: two vectors when it is wider than one, and a masked
// last B vector when the block is ragged.
void RowBlock(const float* a, int64_t a_row, int64_t a_k, const float* b,
              int64_t ldb, float* c, int64_t ldc, int64_t i0, int64_t i1,
              int64_t kc, int64_t cols, bool resume) {
  const bool ragged = cols % kW != 0;
  if (cols > kW) {
    (ragged ? RowSweep<2, true> : RowSweep<2, false>)(
        a, a_row, a_k, b, ldb, c, ldc, i0, i1, kc, cols, resume);
  } else {
    (ragged ? RowSweep<1, true> : RowSweep<1, false>)(
        a, a_row, a_k, b, ldb, c, ldc, i0, i1, kc, cols, resume);
  }
}

// NN/TN: op(B) is B[k, n] itself, read in place in kGemmNR-column blocks.
void RowKernel(const float* a, int64_t a_row, int64_t a_k, const float* b,
               float* c, int64_t i0, int64_t i1, int64_t k, int64_t n) {
  for (int64_t j0 = 0; j0 < n; j0 += kGemmNR) {
    RowBlock(a, a_row, a_k, b + j0, n, c + j0, n, i0, i1, k,
             std::min(kGemmNR, n - j0), /*resume=*/false);
  }
}

}  // namespace

void GemmRowsNN(const float* a, const float* b, float* c, int64_t i0,
                int64_t i1, int64_t k, int64_t n) {
  RowKernel(a, /*a_row=*/k, /*a_k=*/1, b, c, i0, i1, k, n);
}

void GemmRowsNT(const float* a, const float* b, float* c, int64_t i0,
                int64_t i1, int64_t k, int64_t n) {
  if (i1 - i0 == 1 && k <= 2 * kW) {
    // A single short row is its own transpose: C[i, :]^T = B A[i, :]^T,
    // so the NN tiles run over B's rows against A's row read as a [k, 1]
    // column. Same products in the same k order, and no panel: a freshly
    // written panel read back at once would stall on store forwarding.
    // Only for short k (the window-attention shapes): each FMA here does
    // one useful lane.
    RowKernel(b, /*a_row=*/k, /*a_k=*/1, a + i0 * k, c + i0 * n, 0, n, k, 1);
    return;
  }
  // op(B) = B^T, packed one column block and K block at a time into a
  // stack panel [kc][width] (width = the block's vector count times kW)
  // and swept by the NN tiles; a ragged block's tail lanes are loaded
  // through a mask, so pad columns are never written or read. Later K
  // blocks resume each element's chain from C. The do-while runs once
  // for k == 0, writing zeros.
  alignas(64) float panel[kPanelK * kGemmNR];
  for (int64_t j0 = 0; j0 < n; j0 += kGemmNR) {
    const int64_t cols = std::min(kGemmNR, n - j0);
    const int64_t width = cols > kW ? kGemmNR : kW;
    int64_t kb = 0;
    do {
      const int64_t kc = std::min(kPanelK, k - kb);
      for (int64_t j = 0; j < cols; ++j) {
        const float* src = b + (j0 + j) * k + kb;
        for (int64_t kk = 0; kk < kc; ++kk) panel[kk * width + j] = src[kk];
      }
      RowBlock(a + kb, /*a_row=*/k, /*a_k=*/1, panel, width, c + j0, n, i0,
               i1, kc, cols, /*resume=*/kb > 0);
      kb += kPanelK;
    } while (kb < k);
  }
}

void GemmRowsTN(const float* a, const float* b, float* c, int64_t i0,
                int64_t i1, int64_t k, int64_t m, int64_t n) {
  RowKernel(a, /*a_row=*/1, /*a_k=*/m, b, c, i0, i1, k, n);
}

void Gemm2D(const float* a, const float* b, float* c, int64_t m, int64_t n,
            int64_t k, bool trans_a, bool trans_b) {
  STWA_CHECK(!(trans_a && trans_b), "Gemm2D: TT is unsupported");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::fill(c, c + m * n, 0.0f);
    return;
  }
  // Parallel over whole kGemmRowTile-row tiles, so no chunk hands a kernel a
  // lone row (a 1-row tile re-reads all of op(B) for one row of C).
  const int64_t tiles = (m + kGemmRowTile - 1) / kGemmRowTile;
  const int64_t grain = (RowGrain(k, n) + kGemmRowTile - 1) / kGemmRowTile;
  runtime::ParallelFor(0, tiles, grain, [=](int64_t t0, int64_t t1) {
    const int64_t i0 = t0 * kGemmRowTile;
    const int64_t i1 = std::min(m, t1 * kGemmRowTile);
    if (trans_a) {
      GemmRowsTN(a, b, c, i0, i1, k, m, n);
    } else if (trans_b) {
      GemmRowsNT(a, b, c, i0, i1, k, n);
    } else {
      GemmRowsNN(a, b, c, i0, i1, k, n);
    }
  });
}

}  // namespace simd
}  // namespace stwa
