// SIMD kernel layer tests (src/simd).
//
// Covers the determinism contract from DESIGN.md §4e:
//   * GEMM (NN / NT / TN) against a naive reference over a shape grid that
//     exercises every tail case, plus large and long-k shapes. On SIMD
//     builds the comparisons are BIT-exact against a k-ascending
//     simd::MulAddRef chain — the kernels promise that exact accumulation
//     order regardless of blocking;
//   * batched MatMul vs the rank-2 entry point (per-batch row chunks vs
//     Gemm2D's row tiles must agree bitwise);
//   * vectorized transcendentals (Exp/Tanh/Sigmoid) against libm under
//     tolerance, with exactness pinned at x = 0;
//   * elementwise / softmax / reduction kernels against scalar references;
//   * bit-identity across thread counts, including a short end-to-end
//     ST-WA Fit at 1 vs 4 workers.

#include <sys/mman.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "common/rng.h"
#include "data/traffic_generator.h"
#include "runtime/parallel.h"
#include "simd/gemm.h"
#include "simd/simd.h"
#include "simd/vec_math.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "train/trainer.h"

namespace stwa {
namespace {

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         (a.size() == 0 || std::memcmp(a.data(), b.data(),
                                       static_cast<size_t>(a.size()) *
                                           sizeof(float)) == 0);
}

// --- Naive GEMM references ------------------------------------------------
// Accumulate with simd::MulAddRef in ascending-k order: on the active tier
// that is the exact chain the NN/TN kernels promise per output element, so
// those comparisons can be bitwise on SIMD builds.

Tensor RefMatMul(const Tensor& a, const Tensor& b, int64_t m, int64_t n,
                 int64_t k) {
  Tensor c(Shape{m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc = simd::MulAddRef(a.data()[i * k + kk], b.data()[kk * n + j],
                              acc);
      }
      c.data()[i * n + j] = acc;
    }
  }
  return c;
}

Tensor RefMatMulNT(const Tensor& a, const Tensor& b, int64_t m, int64_t n,
                   int64_t k) {
  Tensor c(Shape{m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc = simd::MulAddRef(a.data()[i * k + kk], b.data()[j * k + kk],
                              acc);
      }
      c.data()[i * n + j] = acc;
    }
  }
  return c;
}

Tensor RefMatMulTN(const Tensor& a, const Tensor& b, int64_t m, int64_t n,
                   int64_t k) {
  Tensor c(Shape{m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc = simd::MulAddRef(a.data()[kk * m + i], b.data()[kk * n + j],
                              acc);
      }
      c.data()[i * n + j] = acc;
    }
  }
  return c;
}

void ExpectClose(const Tensor& ref, const Tensor& out, bool bit_exact,
                 const char* what) {
  ASSERT_EQ(ref.shape(), out.shape()) << what;
  if (bit_exact) {
    EXPECT_TRUE(BitIdentical(ref, out)) << what;
    return;
  }
  for (int64_t i = 0; i < ref.size(); ++i) {
    const float r = ref.data()[i];
    EXPECT_NEAR(out.data()[i], r, 1e-4f + 1e-4f * std::fabs(r))
        << what << " flat index " << i;
  }
}

// Dimensions straddling every vector width, the 4-row tile remainders
// (4, 5, 7, 9, 13, 17), the two-vector column block (16, 17, 24) and the
// n = 12 tail.
const std::vector<int64_t> kDims = {1,  2,  3,  4,  5,  7,  8, 9,
                                    12, 13, 16, 17, 24, 64, 65};

TEST(SimdGemmTest, MatMul2DMatchesReferenceOverGrid) {
  Rng rng(101);
  for (int64_t m : kDims) {
    for (int64_t n : kDims) {
      for (int64_t k : kDims) {
        Tensor a = Tensor::Randn({m, k}, rng);
        Tensor b = Tensor::Randn({k, n}, rng);
        ExpectClose(RefMatMul(a, b, m, n, k), ops::MatMul2D(a, b),
                    simd::kEnabled, "NN");
      }
    }
  }
}

TEST(SimdGemmTest, TransposedVariantsMatchReferenceOverGrid) {
  Rng rng(102);
  for (int64_t m : kDims) {
    for (int64_t n : kDims) {
      for (int64_t k : kDims) {
        Tensor a = Tensor::Randn({m, k}, rng);       // NT lhs: [m, k]
        Tensor bt = Tensor::Randn({n, k}, rng);      // NT rhs: [n, k]
        Tensor at = Tensor::Randn({k, m}, rng);      // TN lhs: [k, m]
        Tensor b = Tensor::Randn({k, n}, rng);       // TN rhs: [k, n]
        // Every NT/TN element is one k-ascending chain: bit-exact on
        // SIMD builds.
        ExpectClose(RefMatMulNT(a, bt, m, n, k), ops::MatMulNT(a, bt),
                    simd::kEnabled, "NT");
        ExpectClose(RefMatMulTN(at, b, m, n, k), ops::MatMulTN(at, b),
                    simd::kEnabled, "TN");
      }
    }
  }
}

TEST(SimdGemmTest, LargeShapesMatchReference) {
  // Many row tiles and column blocks with ragged ends, split across
  // threads by Gemm2D; k = 520 runs NT in nine resumed K blocks.
  Rng rng(107);
  for (auto [m, n, k] : std::vector<std::array<int64_t, 3>>{
           {129, 130, 131}, {128, 136, 520}}) {
    Tensor a = Tensor::Randn({m, k}, rng);
    Tensor b = Tensor::Randn({k, n}, rng);
    Tensor bt = Tensor::Randn({n, k}, rng);
    Tensor at = Tensor::Randn({k, m}, rng);
    ExpectClose(RefMatMul(a, b, m, n, k), ops::MatMul2D(a, b),
                simd::kEnabled, "large NN");
    ExpectClose(RefMatMulNT(a, bt, m, n, k), ops::MatMulNT(a, bt),
                simd::kEnabled, "large NT");
    ExpectClose(RefMatMulTN(at, b, m, n, k), ops::MatMulTN(at, b),
                simd::kEnabled, "large TN");
  }
}

TEST(SimdGemmTest, LongKRowKernelsMatchReference) {
  // k beyond one NT stack panel (64 k steps) resumes each chain from C.
  Rng rng(108);
  const int64_t m = 5, n = 19, k = 300;
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor bt = Tensor::Randn({n, k}, rng);
  Tensor at = Tensor::Randn({k, m}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  ExpectClose(RefMatMul(a, b, m, n, k), ops::MatMul2D(a, b), simd::kEnabled,
              "long-k NN");
  ExpectClose(RefMatMulNT(a, bt, m, n, k), ops::MatMulNT(a, bt),
              simd::kEnabled, "long-k NT");
  ExpectClose(RefMatMulTN(at, b, m, n, k), ops::MatMulTN(at, b),
              simd::kEnabled, "long-k TN");
}

TEST(SimdGemmTest, BatchedMatMulBitMatchesRank2Kernel) {
  // The batched driver hands GemmRows* per-batch row chunks while the
  // rank-2 entry point runs Gemm2D over row tiles; both must produce the
  // same bits (identical per-element accumulation chains).
  Rng rng(103);
  for (auto [m, k, n] : std::vector<std::array<int64_t, 3>>{
           {5, 7, 3}, {64, 64, 64}, {65, 33, 17}, {130, 129, 131}}) {
    Tensor a = Tensor::Randn({2, m, k}, rng);
    Tensor b = Tensor::Randn({2, k, n}, rng);
    Tensor batched = ops::MatMul(a, b);
    for (int64_t s = 0; s < 2; ++s) {
      Tensor a2 = ops::Slice(a, 0, s, 1).Reshape({m, k});
      Tensor b2 = ops::Slice(b, 0, s, 1).Reshape({k, n});
      Tensor c2 = ops::MatMul2D(a2, b2);
      Tensor cs = ops::Slice(batched, 0, s, 1).Reshape({m, n});
      EXPECT_TRUE(BitIdentical(c2, cs)) << m << "x" << k << "x" << n
                                        << " slice " << s;
    }
  }
}

TEST(SimdGemmTest, BatchedTransposedMatchReference) {
  // Per-batch NT/TN products, including the one-row attention shapes
  // ([.., 1, k] x [.., n, k]^T) that run as their own transpose, a
  // one-row NT with k too long for that (packed panel instead), and a
  // rank-2 B shared by a rank-3 A (flattened to one GEMM).
  Rng rng(109);
  for (auto [m, k, n] : std::vector<std::array<int64_t, 3>>{
           {1, 8, 3}, {1, 3, 8}, {1, 16, 17}, {1, 40, 5}, {2, 8, 2},
           {12, 16, 16}}) {
    Tensor a = Tensor::Randn({3, 2, m, k}, rng);
    Tensor bt = Tensor::Randn({3, 2, n, k}, rng);
    Tensor g = Tensor::Randn({3, 2, m, n}, rng);
    Tensor nt = ops::MatMulNT(a, bt);
    Tensor tn = ops::MatMulTN(a, g);
    const Tensor b0 =
        ops::Slice(bt.Reshape({6, n, k}), 0, 0, 1).Reshape({n, k});
    Tensor shared = ops::MatMulNT(a.Reshape({6, m, k}), b0);
    for (int64_t s = 0; s < 6; ++s) {
      const Tensor as = ops::Slice(a.Reshape({6, m, k}), 0, s, 1)
                            .Reshape({m, k});
      const Tensor bs = ops::Slice(bt.Reshape({6, n, k}), 0, s, 1)
                            .Reshape({n, k});
      const Tensor gs = ops::Slice(g.Reshape({6, m, n}), 0, s, 1)
                            .Reshape({m, n});
      ExpectClose(RefMatMulNT(as, bs, m, n, k),
                  ops::Slice(nt.Reshape({6, m, n}), 0, s, 1).Reshape({m, n}),
                  simd::kEnabled, "batched NT");
      ExpectClose(RefMatMulTN(as, gs, k, n, m),
                  ops::Slice(tn.Reshape({6, k, n}), 0, s, 1).Reshape({k, n}),
                  simd::kEnabled, "batched TN");
      ExpectClose(RefMatMulNT(as, b0, m, n, k),
                  ops::Slice(shared, 0, s, 1).Reshape({m, n}),
                  simd::kEnabled, "shared-B NT");
    }
  }
}

// Ragged tails against a PROT_NONE page: a partial load must read, and a
// partial store must write, nothing past p[n-1].
TEST(SimdTailTest, PartialLoadStoreNeverCrossN) {
  constexpr int64_t kW = simd::Vec::kWidth;
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  void* mem = mmap(nullptr, 2 * page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  char* guard = static_cast<char*>(mem) + page;
  ASSERT_EQ(mprotect(guard, page, PROT_NONE), 0);
  float* end = reinterpret_cast<float*>(guard);
  const float kNegInf = -std::numeric_limits<float>::infinity();
  for (int64_t n = 0; n <= kW; ++n) {
    float* p = end - n;  // p[n-1] is the last readable float
    for (int64_t i = 0; i < n; ++i) p[i] = 1.5f + static_cast<float>(i);
    for (float pad : {0.0f, kNegInf}) {
      float lanes[kW];
      simd::LoadPartial(p, n, pad).Store(lanes);
      for (int64_t i = 0; i < kW; ++i) {
        if (i < n) {
          EXPECT_EQ(lanes[i], p[i]) << "n=" << n << " lane " << i;
        } else if (pad == 0.0f) {
          EXPECT_EQ(std::bit_cast<uint32_t>(lanes[i]), 0u)
              << "n=" << n << " lane " << i << " must be +0";
        } else {
          EXPECT_EQ(lanes[i], kNegInf) << "n=" << n << " lane " << i;
        }
      }
    }
    // Store n lanes up to the guard page, then into a sentinel buffer to
    // check the lanes past n stay untouched.
    float src[kW];
    for (int64_t i = 0; i < kW; ++i) src[i] = -3.0f - static_cast<float>(i);
    const simd::Vec v = simd::Vec::Load(src);
    simd::StorePartial(v, p, n);
    for (int64_t i = 0; i < n; ++i) EXPECT_EQ(p[i], src[i]) << "n=" << n;
    float sentinel[kW + 1];
    for (float& x : sentinel) x = 7.0f;
    simd::StorePartial(v, sentinel, n);
    for (int64_t i = 0; i <= kW; ++i) {
      EXPECT_EQ(sentinel[i], i < n ? src[i] : 7.0f) << "n=" << n << " i=" << i;
    }
    // MaskFirstN keeps the first n lanes and fills the rest.
    float masked[kW];
    simd::MaskFirstN(v, n, kNegInf).Store(masked);
    for (int64_t i = 0; i < kW; ++i) {
      EXPECT_EQ(masked[i], i < n ? src[i] : kNegInf) << "n=" << n;
    }
  }
  munmap(mem, 2 * page);
}

TEST(SimdVecMathTest, TranscendentalsTrackLibm) {
  // Dense sweep over the numerically interesting range plus the clamp
  // edges of the vectorized exp.
  std::vector<float> xs;
  for (float x = -12.0f; x <= 12.0f; x += 0.037f) xs.push_back(x);
  for (float x : {-90.0f, -87.4f, 80.0f, 88.0f, 89.0f}) xs.push_back(x);
  Tensor t(Shape{static_cast<int64_t>(xs.size())}, xs);

  Tensor e = ops::Exp(t);
  Tensor th = ops::Tanh(t);
  Tensor sg = ops::Sigmoid(t);
  for (size_t i = 0; i < xs.size(); ++i) {
    const float x = xs[i];
    const double re = std::exp(static_cast<double>(x));
    if (re < 1e37) {  // skip overflow-to-inf comparisons
      EXPECT_NEAR(e.data()[i], re, 2e-6 * re + 1e-37) << "exp(" << x << ")";
    }
    EXPECT_NEAR(th.data()[i], std::tanh(static_cast<double>(x)), 2e-6)
        << "tanh(" << x << ")";
    EXPECT_NEAR(sg.data()[i],
                1.0 / (1.0 + std::exp(-static_cast<double>(x))), 2e-6)
        << "sigmoid(" << x << ")";
  }

  // Exactness at the identity points several tests and modules rely on.
  Tensor zero(Shape{3});
  EXPECT_EQ(ops::Exp(zero).data()[0], 1.0f);
  EXPECT_EQ(ops::Sigmoid(zero).data()[0], 0.5f);
  EXPECT_EQ(ops::Tanh(zero).data()[0], 0.0f);
}

TEST(SimdElementwiseTest, ExactOpsBitMatchScalarReference) {
  // +, -, *, /, min/max, abs, relu, sqrt are correctly rounded per lane,
  // so the vectorized kernels must reproduce the scalar results bitwise.
  Rng rng(104);
  for (int64_t size : {1, 7, 8, 9, 31, 1000}) {
    Tensor a = Tensor::Randn({size}, rng);
    Tensor b = ops::AddScalar(Tensor::Randn({size}, rng), 3.0f);  // no /0
    Tensor sum = ops::Add(a, b);
    Tensor prod = ops::Mul(a, b);
    Tensor quot = ops::Div(a, b);
    Tensor relu = ops::Relu(a);
    for (int64_t i = 0; i < size; ++i) {
      EXPECT_EQ(sum.data()[i], a.data()[i] + b.data()[i]);
      EXPECT_EQ(prod.data()[i], a.data()[i] * b.data()[i]);
      EXPECT_EQ(quot.data()[i], a.data()[i] / b.data()[i]);
      EXPECT_EQ(relu.data()[i], a.data()[i] > 0.0f ? a.data()[i] : 0.0f);
    }
  }
}

TEST(SimdSoftmaxReductionTest, AgreeWithScalarReferences) {
  Rng rng(105);
  // Rows both below the vector width (scalar row path) and well above it.
  for (int64_t last : {2, 3, 8, 17, 64}) {
    Tensor a = Tensor::Randn({5, last}, rng);
    Tensor y = ops::SoftmaxLast(a);
    Tensor s = ops::Sum(a, 1);
    Tensor mx = ops::Max(a, 1);
    for (int64_t r = 0; r < 5; ++r) {
      const float* row = a.data() + r * last;
      float m = row[0];
      for (int64_t j = 1; j < last; ++j) m = std::max(m, row[j]);
      // Max selection is exact in any order.
      EXPECT_EQ(mx.data()[r], m);
      double den = 0.0, total = 0.0;
      for (int64_t j = 0; j < last; ++j) {
        den += std::exp(static_cast<double>(row[j] - m));
        total += row[j];
      }
      EXPECT_NEAR(s.data()[r], total, 1e-5 * (1.0 + std::fabs(total)));
      double ysum = 0.0;
      for (int64_t j = 0; j < last; ++j) {
        const double want = std::exp(static_cast<double>(row[j] - m)) / den;
        EXPECT_NEAR(y.data()[r * last + j], want, 1e-5);
        ysum += y.data()[r * last + j];
      }
      EXPECT_NEAR(ysum, 1.0, 1e-5);
    }
  }
  // Reducing a non-last axis (inner > 1) exercises the columnwise path.
  Tensor b = Tensor::Randn({4, 9, 6}, rng);
  Tensor s0 = ops::Sum(b, 0);
  for (int64_t i = 0; i < 9 * 6; ++i) {
    float acc = 0.0f;
    for (int64_t o = 0; o < 4; ++o) acc += b.data()[o * 9 * 6 + i];
    EXPECT_EQ(s0.data()[i], acc);  // serial order preserved: bit-exact
  }
}

class ThreadRestore {
 public:
  ~ThreadRestore() { runtime::SetNumThreads(0); }
};

TEST(SimdDeterminismTest, KernelsBitIdenticalAcrossThreadCounts) {
  ThreadRestore restore;
  Rng rng(106);
  Tensor a = Tensor::Randn({65, 65}, rng);
  Tensor b = Tensor::Randn({65, 65}, rng);
  Tensor big = Tensor::Randn({37, 129}, rng);
  auto run_all = [&] {
    std::vector<Tensor> outs;
    outs.push_back(ops::MatMul2D(a, b));
    outs.push_back(ops::MatMulNT(a, b));
    outs.push_back(ops::MatMulTN(a, b));
    outs.push_back(ops::SoftmaxLast(big));
    outs.push_back(ops::Tanh(big));
    outs.push_back(ops::Sigmoid(big));
    outs.push_back(ops::Sum(big, 1));
    outs.push_back(ops::Mul(a, b));
    return outs;
  };
  runtime::SetNumThreads(1);
  std::vector<Tensor> ref = run_all();
  runtime::SetNumThreads(4);
  std::vector<Tensor> out = run_all();
  ASSERT_EQ(ref.size(), out.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_TRUE(BitIdentical(ref[i], out[i])) << "kernel " << i;
  }
}

// End-to-end: a short ST-WA training run must produce bit-identical
// losses and metrics at 1 vs 4 worker threads with the SIMD kernels
// active (ragged ParallelFor chunk tails are handled with partial-vector
// loads, never scalar remainder loops — see simd/simd.h).
TEST(SimdDeterminismTest, TrainingBitIdenticalAcrossThreadCounts) {
  ThreadRestore restore;
  data::GeneratorOptions o;
  o.num_roads = 2;
  o.sensors_per_road = 2;
  o.num_days = 5;
  o.steps_per_day = 96;
  o.seed = 77;
  data::TrafficDataset dataset = data::GenerateTraffic(o);

  baselines::ModelSettings settings;
  settings.history = 12;
  settings.horizon = 3;
  settings.d_model = 8;
  settings.window_sizes = {3, 2, 2};
  settings.latent_dim = 4;
  settings.predictor_hidden = 16;
  settings.seed = 7;

  train::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 8;
  config.stride = 4;
  config.eval_stride = 4;

  std::vector<std::vector<double>> histories;
  std::vector<double> maes;
  for (int threads : {1, 4}) {
    config.num_threads = threads;
    auto model = baselines::MakeModel("ST-WA", dataset, settings);
    train::Trainer trainer(dataset, settings.history, settings.horizon,
                           config);
    train::TrainResult r = trainer.Fit(*model);
    histories.push_back(r.val_mae_history);
    maes.push_back(r.test.mae);
  }
  ASSERT_EQ(histories[0].size(), histories[1].size());
  for (size_t e = 0; e < histories[0].size(); ++e) {
    EXPECT_EQ(histories[0][e], histories[1][e]) << "epoch " << e;
  }
  EXPECT_EQ(maes[0], maes[1]);
}

}  // namespace
}  // namespace stwa
