// Tests for the bf16 serving tier (simd/lowp.h, simd/gemm_lowp.h,
// tensor/lowp_cache.h): conversion error bounds, kernel-vs-reference
// bit-exactness, the weight cache, MatMul routing and cross-thread
// determinism.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "runtime/parallel.h"
#include "simd/gemm_lowp.h"
#include "simd/lowp.h"
#include "tensor/lowp_cache.h"
#include "tensor/ops.h"

namespace stwa {
namespace simd {
namespace {

// ---------------------------------------------------------------------------
// bf16 conversion

TEST(LowpBf16Test, RoundTripErrorWithinHalfUlp) {
  // bf16 stores 7 explicit mantissa bits, so the RNE round-trip error is
  // at most half an ulp: 2^-8 relative for normal values.
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const float x = rng.Normal() * 100.0f;
    if (x == 0.0f) continue;
    const float back = F32FromBf16(Bf16FromF32(x));
    EXPECT_LE(std::abs(back - x), std::abs(x) * (1.0f / 256.0f)) << x;
  }
}

TEST(LowpBf16Test, ValuesWithShortMantissaAreExact) {
  // Anything representable in 8 mantissa bits survives packing
  // unchanged.
  for (float x : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -96.0f, 1.5f, 0.15625f}) {
    EXPECT_EQ(F32FromBf16(Bf16FromF32(x)), x);
  }
}

TEST(LowpBf16Test, NanStaysNanAndInfStaysInf) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(std::isnan(F32FromBf16(Bf16FromF32(nan))));
  EXPECT_EQ(F32FromBf16(Bf16FromF32(inf)), inf);
  EXPECT_EQ(F32FromBf16(Bf16FromF32(-inf)), -inf);
}

// ---------------------------------------------------------------------------
// Kernel vs scalar reference bit-exactness

struct GemmCase {
  int64_t m, n, k;
};

// Shapes straddling the microkernel tile boundaries (MR multiples, NR
// multiples, ragged edges, odd k).
const GemmCase kCases[] = {{1, 1, 1},   {3, 5, 7},    {6, 16, 8},
                           {12, 32, 4}, {13, 33, 17}, {7, 31, 33},
                           {24, 64, 40}, {5, 130, 3}};

TEST(LowpGemmTest, Bf16KernelBitExactVsReference) {
  Rng rng(15);
  for (const GemmCase& c : kCases) {
    std::vector<float> a(static_cast<size_t>(c.m * c.k));
    std::vector<float> b(static_cast<size_t>(c.k * c.n));
    for (float& v : a) v = rng.Normal();
    for (float& v : b) v = rng.Normal();
    const auto w = PackWeights(b.data(), c.k, c.n, false);
    std::vector<float> got(static_cast<size_t>(c.m * c.n), -1.0f);
    std::vector<float> want(static_cast<size_t>(c.m * c.n), -2.0f);
    GemmLowp(a.data(), *w, got.data(), c.m, false);
    GemmBf16Ref(a.data(), *w, want.data(), c.m, false);
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          sizeof(float) * got.size()),
              0)
        << c.m << "x" << c.n << "x" << c.k;
  }
}

TEST(LowpGemmTest, TransposedOperandsBitExactVsReference) {
  Rng rng(17);
  const int64_t m = 13, n = 33, k = 21;
  std::vector<float> at(static_cast<size_t>(k * m));  // op(A) via trans_a
  std::vector<float> bt(static_cast<size_t>(n * k));  // op(B) via trans
  for (float& v : at) v = rng.Normal();
  for (float& v : bt) v = rng.Normal();
  const auto w = PackWeights(bt.data(), k, n, /*trans=*/true);
  std::vector<float> got(static_cast<size_t>(m * n), -1.0f);
  std::vector<float> want(static_cast<size_t>(m * n), -2.0f);
  GemmLowp(at.data(), *w, got.data(), m, /*trans_a=*/true);
  GemmBf16Ref(at.data(), *w, want.data(), m, true);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(float) * got.size()),
            0);
}

TEST(LowpGemmTest, BitIdenticalAcrossThreadCounts) {
  Rng rng(18);
  const int64_t m = 96, n = 80, k = 64;
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  for (float& v : a) v = rng.Normal();
  for (float& v : b) v = rng.Normal();
  const auto w = PackWeights(b.data(), k, n, false);
  std::vector<float> ref(static_cast<size_t>(m * n));
  runtime::SetNumThreads(1);
  GemmLowp(a.data(), *w, ref.data(), m, false);
  for (const int threads : {2, 4}) {
    runtime::SetNumThreads(threads);
    std::vector<float> got(static_cast<size_t>(m * n), -1.0f);
    GemmLowp(a.data(), *w, got.data(), m, false);
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), sizeof(float) * got.size()),
              0)
        << "at " << threads << " threads";
  }
  runtime::SetNumThreads(0);
}

// ---------------------------------------------------------------------------
// Precision parsing

TEST(LowpPrecisionTest, NamesParseAndRoundTrip) {
  EXPECT_EQ(ParsePrecision("fp32"), Precision::kFp32);
  EXPECT_EQ(ParsePrecision("bf16"), Precision::kBf16);
  EXPECT_STREQ(PrecisionName(Precision::kFp32), "fp32");
  EXPECT_STREQ(PrecisionName(Precision::kBf16), "bf16");
  EXPECT_THROW(ParsePrecision("fp16"), Error);
  EXPECT_THROW(ParsePrecision(""), Error);
}

TEST(LowpPrecisionTest, RemovedInt8TierGetsAnActionableError) {
  try {
    ParsePrecision("int8");
    FAIL() << "int8 must be rejected";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("int8 tier was removed"), std::string::npos) << what;
    EXPECT_NE(what.find("use bf16"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace simd

// ---------------------------------------------------------------------------
// Weight cache + MatMul routing (tensor layer)

namespace lowp {
namespace {

TEST(LowpCacheTest, RegisterFindUnregister) {
  Rng rng(20);
  const int64_t k = 12, n = 20;
  Tensor b = Tensor::Randn({k, n}, rng);
  ASSERT_EQ(Find(b.data(), k, n, false), nullptr);
  const int64_t before = ActiveCount();
  Register(b.data(), simd::PackWeights(b.data(), k, n, false));
  EXPECT_EQ(ActiveCount(), before + 1);
  EXPECT_GT(TotalPanelBytes(), 0);
  auto hit = Find(b.data(), k, n, false);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->bf16.size(), static_cast<size_t>(
                                  hit->num_panels() * k * hit->nr));
  // Any dimension or orientation mismatch is a miss, never a wrong hit.
  EXPECT_EQ(Find(b.data(), k + 1, n, false), nullptr);
  EXPECT_EQ(Find(b.data(), k, n - 1, false), nullptr);
  EXPECT_EQ(Find(b.data(), k, n, true), nullptr);
  Unregister(b.data());
  EXPECT_EQ(ActiveCount(), before);
  EXPECT_EQ(Find(b.data(), k, n, false), nullptr);
}

TEST(LowpCacheTest, MatMulRoutesThroughRegisteredPack) {
  Rng rng(21);
  const int64_t m = 10, k = 24, n = 18;
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor fp32_out = ops::MatMul2D(a, b).Clone();

  const auto pack = simd::PackWeights(b.data(), k, n, false);
  Tensor want = Tensor::Uninit({m, n});
  simd::GemmBf16Ref(a.data(), *pack, want.data(), m, false);

  Register(b.data(), pack);
  Tensor got = ops::MatMul2D(a, b);
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(got.size())),
            0)
      << "MatMul2D did not dispatch to the registered bf16 pack";
  Unregister(b.data());

  // After unregistering, the fp32 path is back, bit-for-bit.
  Tensor again = ops::MatMul2D(a, b);
  EXPECT_EQ(std::memcmp(again.data(), fp32_out.data(),
                        sizeof(float) * static_cast<size_t>(again.size())),
            0);
}

TEST(LowpCacheTest, BatchedMatMulWithRankTwoWeightRoutes) {
  // The nn::Linear pattern: x is [B, T, k], the weight is rank-2 [k, n].
  Rng rng(22);
  const int64_t batch = 3, t = 5, k = 16, n = 12;
  Tensor x = Tensor::Randn({batch, t, k}, rng);
  Tensor w = Tensor::Randn({k, n}, rng);
  const auto pack = simd::PackWeights(w.data(), k, n, false);
  Tensor want = Tensor::Uninit({batch * t, n});
  simd::GemmBf16Ref(x.data(), *pack, want.data(), batch * t, false);

  Register(w.data(), pack);
  Tensor got = ops::MatMul(x, w);
  Unregister(w.data());
  ASSERT_EQ(got.shape(), (Shape{batch, t, n}));
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(got.size())),
            0)
      << "batched MatMul did not flatten onto the registered bf16 pack";
}

}  // namespace
}  // namespace lowp
}  // namespace stwa
