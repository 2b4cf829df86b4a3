#include "simd/gemm_lowp.h"

#include <algorithm>

#include "common/check.h"
#include "runtime/parallel.h"
#include "tensor/buffer_pool.h"

// Kernel tier selection. Inside an AVX2 build, AVX-512 (F+BW for the
// widening shuffles) upgrades the microkernel to 512-bit vectors — double
// the fp32 FMA throughput of the 256-bit fp32 path on hosts with two
// 512-bit FMA pipes, which is what makes the bf16 tier *faster* than fp32
// despite widening in-kernel. Without AVX-512 the 256-bit fallback keeps
// the same per-element fma chain; non-AVX2 builds use the scalar
// reference path.
#if defined(STWA_SIMD_AVX2) && defined(__AVX512F__) && defined(__AVX512BW__)
#define STWA_LOWP_AVX512 1
#endif

namespace stwa {
namespace simd {
namespace {

#if defined(STWA_LOWP_AVX512)
constexpr int64_t kLowpNR = 32;
// The per-k overhead is the two widening shuffles, so amortising them over
// 12 rows (24 of the 32 zmm registers as accumulators) buys ~10% over 6.
constexpr int64_t kBf16MR = 12;
#elif defined(STWA_SIMD_AVX2)
constexpr int64_t kLowpNR = 16;
constexpr int64_t kBf16MR = 6;
#else
constexpr int64_t kLowpNR = 1;  // column-major panels for the scalar tier
#endif

// Word offset of logical column `c` within one k-row of a bf16 panel.
// The AVX-512 kernel widens a panel row with vpunpck{l,h}wd against
// zeros — one shuffle per output vector instead of three — but those
// interleave within 128-bit sublanes. Storing the columns pre-permuted
// makes the widened vectors come out in natural column order, so the
// epilogue masks and the scalar reference agree on which column is
// which. Identity on every other tier.
inline int64_t Bf16PanelWord(int64_t c) {
#if defined(STWA_LOWP_AVX512)
  const int64_t h = c / 16;  // 0 → vpunpcklwd vector, 1 → vpunpckhwd
  const int64_t e = c % 16;
  return 8 * (e / 4) + 4 * h + e % 4;
#else
  return c;
#endif
}

// Matches the grain heuristic in simd/gemm.cc.
constexpr int64_t kMinChunkFlops = 16384;

inline float OpA(const float* a, int64_t i, int64_t kk, int64_t k,
                 int64_t m, bool trans_a) {
  return trans_a ? a[kk * m + i] : a[i * k + kk];
}

// --- Scalar implementations (reference on vector builds, production on
// --- scalar/SSE2/NEON builds) --------------------------------------------

void ScalarBf16(const float* a, const PackedWeights& w, float* c, int64_t m,
                bool trans_a) {
  const int64_t k = w.k;
  const int64_t n = w.n;
  const int64_t nr = w.nr;
  runtime::ParallelFor(
      0, m,
      std::max<int64_t>(1, kMinChunkFlops / std::max<int64_t>(1, k * n)),
      [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          float* cr = c + i * n;
          for (int64_t j = 0; j < n; ++j) {
            const uint16_t* col =
                w.bf16.data() + (j / nr) * k * nr + Bf16PanelWord(j % nr);
            float acc = 0.0f;
            for (int64_t kk = 0; kk < k; ++kk) {
              acc = MulAddRef(OpA(a, i, kk, k, m, trans_a),
                              F32FromBf16(col[kk * nr]), acc);
            }
            cr[j] = acc;
          }
        }
      });
}

// --- AVX-512 kernels -----------------------------------------------------

#if defined(STWA_LOWP_AVX512)

// 12 x 32 bf16 tile: same k-ascending fma(a, widen(b), acc) chain per C
// element as ScalarBf16's MulAddRef loop (kHasFma on this tier), so the
// two are bit-identical. Interleaving zeros below each panel word is
// exactly the <<16 widening, and the Bf16PanelWord pack permutation
// cancels the sublane interleave, so b0/b1 hold columns 0..15/16..31 in
// natural order.
void Bf16Tile512(const float* ap, const uint16_t* bp, float* c, int64_t ldc,
                 int64_t k, int64_t rows, int64_t cols) {
  const __m512i zero = _mm512_setzero_si512();
  __m512 acc[kBf16MR][2];
  for (int64_t r = 0; r < kBf16MR; ++r) {
    acc[r][0] = _mm512_setzero_ps();
    acc[r][1] = _mm512_setzero_ps();
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const __m512i raw = _mm512_loadu_si512(bp + kk * kLowpNR);
    const __m512 b0 = _mm512_castsi512_ps(_mm512_unpacklo_epi16(zero, raw));
    const __m512 b1 = _mm512_castsi512_ps(_mm512_unpackhi_epi16(zero, raw));
    const float* ar = ap + kk * kBf16MR;
    for (int64_t r = 0; r < kBf16MR; ++r) {
      const __m512 av = _mm512_set1_ps(ar[r]);
      acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  const __mmask16 m0 =
      cols >= 16 ? 0xFFFF : static_cast<__mmask16>((1u << cols) - 1);
  const __mmask16 m1 =
      cols >= 32 ? 0xFFFF
                 : (cols > 16 ? static_cast<__mmask16>((1u << (cols - 16)) - 1)
                              : 0);
  for (int64_t r = 0; r < rows; ++r) {
    float* cr = c + r * ldc;
    _mm512_mask_storeu_ps(cr, m0, acc[r][0]);
    if (m1) _mm512_mask_storeu_ps(cr + 16, m1, acc[r][1]);
  }
}

#elif defined(STWA_SIMD_AVX2)

// 6 x 16 bf16 tile, 256-bit: same chain shape as Bf16Tile512 (and
// ScalarBf16) at half the width.
void Bf16Tile256(const float* ap, const uint16_t* bp, float* c, int64_t ldc,
                 int64_t k, int64_t rows, int64_t cols) {
  __m256 acc[kBf16MR][2];
  for (int64_t r = 0; r < kBf16MR; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const __m256i raw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + kk * kLowpNR));
    const __m256 b0 = _mm256_castsi256_ps(_mm256_slli_epi32(
        _mm256_cvtepu16_epi32(_mm256_castsi256_si128(raw)), 16));
    const __m256 b1 = _mm256_castsi256_ps(_mm256_slli_epi32(
        _mm256_cvtepu16_epi32(_mm256_extracti128_si256(raw, 1)), 16));
    const float* ar = ap + kk * kBf16MR;
    for (int64_t r = 0; r < kBf16MR; ++r) {
      const __m256 av = _mm256_set1_ps(ar[r]);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int64_t r = 0; r < rows; ++r) {
    float* cr = c + r * ldc;
    if (cols >= kLowpNR) {
      _mm256_storeu_ps(cr, acc[r][0]);
      _mm256_storeu_ps(cr + 8, acc[r][1]);
    } else if (cols > 8) {
      _mm256_storeu_ps(cr, acc[r][0]);
      StorePartial(Vec{acc[r][1]}, cr + 8, cols - 8);
    } else {
      StorePartial(Vec{acc[r][0]}, cr, cols);
    }
  }
}

#endif

#if defined(STWA_LOWP_AVX512) || defined(STWA_SIMD_AVX2)

// Packs op(A) rows [i0, i0+rows) into dst[k][mr] (k-major, zero row
// padding) — the same tile shape the fp32 packed path uses, so the
// microkernel broadcasts from a contiguous sliver.
void PackATileF32(const float* a, float* dst, int64_t i0, int64_t rows,
                  int64_t mr, int64_t m, int64_t k, bool trans_a) {
  if (!trans_a) {
    for (int64_t r = 0; r < rows; ++r) {
      const float* src = a + (i0 + r) * k;
      for (int64_t kk = 0; kk < k; ++kk) dst[kk * mr + r] = src[kk];
    }
  } else {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* src = a + kk * m + i0;
      for (int64_t r = 0; r < rows; ++r) dst[kk * mr + r] = src[r];
    }
  }
  if (rows < mr) {
    for (int64_t kk = 0; kk < k; ++kk) {
      for (int64_t r = rows; r < mr; ++r) dst[kk * mr + r] = 0.0f;
    }
  }
}

int64_t PanelFlopGrain(int64_t m, int64_t k) {
  return std::max<int64_t>(
      1, kMinChunkFlops / std::max<int64_t>(1, k * kLowpNR * m));
}

void VectorBf16(const float* a, const PackedWeights& w, float* c, int64_t m,
                bool trans_a) {
  const int64_t k = w.k;
  const int64_t n = w.n;
  const int64_t num_it = (m + kBf16MR - 1) / kBf16MR;
  auto ascratch = pool::Acquire(num_it * k * kBf16MR);
  float* pa = ascratch->data();
  runtime::ParallelFor(
      0, num_it,
      std::max<int64_t>(1, kMinChunkFlops / std::max<int64_t>(1, k * kBf16MR)),
      [&](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) {
          const int64_t i0 = t * kBf16MR;
          PackATileF32(a, pa + t * k * kBf16MR, i0,
                       std::min(kBf16MR, m - i0), kBf16MR, m, k, trans_a);
        }
      });
  runtime::ParallelFor(
      0, w.num_panels(), PanelFlopGrain(m, k), [&](int64_t p0, int64_t p1) {
        for (int64_t jp = p0; jp < p1; ++jp) {
          const int64_t j0 = jp * kLowpNR;
          const int64_t cols = std::min(kLowpNR, n - j0);
          const uint16_t* bp = w.bf16.data() + jp * k * kLowpNR;
          for (int64_t t = 0; t < num_it; ++t) {
            const int64_t i0 = t * kBf16MR;
#if defined(STWA_LOWP_AVX512)
            Bf16Tile512(pa + t * k * kBf16MR, bp, c + i0 * n + j0, n, k,
                        std::min(kBf16MR, m - i0), cols);
#else
            Bf16Tile256(pa + t * k * kBf16MR, bp, c + i0 * n + j0, n, k,
                        std::min(kBf16MR, m - i0), cols);
#endif
          }
        }
      });
}

#endif  // vector builds

}  // namespace

int64_t PackedWeights::PanelBytes() const {
  return static_cast<int64_t>(bf16.size()) * 2;
}

std::shared_ptr<PackedWeights> PackWeights(const float* b, int64_t k,
                                           int64_t n, bool trans) {
  STWA_CHECK(k >= 0 && n >= 0, "PackWeights: bad dims k=", k, " n=", n);
  auto w = std::make_shared<PackedWeights>();
  w->k = k;
  w->n = n;
  w->trans = trans;
  w->nr = kLowpNR;
  w->bf16.assign(static_cast<size_t>(w->num_panels() * k * kLowpNR), 0);
  for (int64_t j = 0; j < n; ++j) {
    uint16_t* col = w->bf16.data() + (j / kLowpNR) * k * kLowpNR +
                    Bf16PanelWord(j % kLowpNR);
    for (int64_t kk = 0; kk < k; ++kk) {
      col[kk * kLowpNR] = Bf16FromF32(trans ? b[j * k + kk] : b[kk * n + j]);
    }
  }
  return w;
}

void GemmBf16Ref(const float* a, const PackedWeights& w, float* c, int64_t m,
                 bool trans_a) {
  ScalarBf16(a, w, c, m, trans_a);
}

void GemmLowp(const float* a, const PackedWeights& w, float* c, int64_t m,
              bool trans_a) {
  STWA_CHECK(w.nr == kLowpNR,
             "GemmLowp: packed panels from a different build tier (nr=",
             w.nr, ", kernel expects ", kLowpNR, ")");
  if (m == 0 || w.n == 0) return;
  if (w.k == 0) {
    std::fill(c, c + m * w.n, 0.0f);
    return;
  }
#if defined(STWA_LOWP_AVX512) || defined(STWA_SIMD_AVX2)
  VectorBf16(a, w, c, m, trans_a);
#else
  ScalarBf16(a, w, c, m, trans_a);
#endif
}

const char* LowpKernelName() {
#if defined(STWA_LOWP_AVX512)
  return "avx512";
#elif defined(STWA_SIMD_AVX2)
  return "avx2";
#else
  return "scalar";
#endif
}

}  // namespace simd
}  // namespace stwa
