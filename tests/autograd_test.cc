// Gradient correctness tests: every differentiable op is verified against
// central finite differences, plus composite expressions and broadcast
// backward reductions.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "common/check.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "tensor/ops.h"

namespace stwa {
namespace ag {
namespace {

Var RandParam(Shape shape, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  Tensor t = Tensor::Randn(std::move(shape), rng);
  if (scale != 1.0f) t = ops::MulScalar(t, scale);
  return Parameter(std::move(t));
}

void ExpectGradOk(const std::function<Var()>& fn,
                  const std::vector<Var>& params) {
  GradCheckResult res = CheckGradients(fn, params);
  EXPECT_TRUE(res.ok) << res.message
                      << " (max_abs_error=" << res.max_abs_error << ")";
}

TEST(AutogradBasics, BackwardOfSumIsOnes) {
  Var x = RandParam({2, 3}, 1);
  Var loss = SumAll(x);
  loss.Backward();
  EXPECT_TRUE(ops::AllClose(x.grad(), Tensor::Ones({2, 3}), 0.0f, 0.0f));
}

TEST(AutogradBasics, GradAccumulatesAcrossUses) {
  Var x = RandParam({2}, 2);
  // loss = sum(x) + sum(x) => grad = 2.
  Var loss = Add(SumAll(x), SumAll(x));
  loss.Backward();
  EXPECT_TRUE(ops::AllClose(x.grad(), Tensor::Full({2}, 2.0f), 0.0f, 0.0f));
}

TEST(AutogradBasics, BackwardOnNonScalarThrows) {
  Var x = RandParam({2}, 3);
  EXPECT_THROW(x.Backward(), Error);
}

TEST(AutogradBasics, DetachCutsTape) {
  Var x = RandParam({2}, 4);
  Var y = MulScalar(x, 3.0f).Detach();
  EXPECT_FALSE(y.requires_grad());
  Var z = Add(SumAll(x), SumAll(y));
  z.Backward();
  EXPECT_TRUE(ops::AllClose(x.grad(), Tensor::Ones({2}), 0.0f, 0.0f));
}

TEST(AutogradBasics, ConstantInputsPruneTape) {
  Var c(Tensor::Ones({3}));
  Var d(Tensor::Ones({3}));
  Var sum = Add(c, d);
  EXPECT_FALSE(sum.requires_grad());
  EXPECT_TRUE(sum.node()->parents.empty()) << "tape should be pruned";
}

TEST(AutogradBasics, DiamondGraphGradIsCorrect) {
  // y = a*a; loss = sum(y + y) — node y consumed twice.
  Var a = RandParam({3}, 5);
  ExpectGradOk(
      [&] {
        Var y = Mul(a, a);
        return SumAll(Add(y, y));
      },
      {a});
}

TEST(AutogradBasics, DeepChainDoesNotOverflow) {
  // 3000 chained adds exercise the iterative topological sort.
  Var x = RandParam({1}, 6);
  Var h = x;
  for (int i = 0; i < 3000; ++i) h = AddScalar(h, 0.001f);
  Var loss = SumAll(h);
  loss.Backward();
  EXPECT_NEAR(x.grad().at(0), 1.0f, 1e-5f);
}

// --- Per-op gradient checks -------------------------------------------------

TEST(AutogradGrad, Add) {
  Var a = RandParam({2, 3}, 10);
  Var b = RandParam({2, 3}, 11);
  ExpectGradOk([&] { return SumAll(Mul(Add(a, b), Add(a, b))); }, {a, b});
}

TEST(AutogradGrad, AddBroadcast) {
  Var a = RandParam({2, 3}, 12);
  Var b = RandParam({3}, 13);
  ExpectGradOk([&] { return SumAll(Square(Add(a, b))); }, {a, b});
}

TEST(AutogradGrad, SubBroadcastColumn) {
  Var a = RandParam({2, 3}, 14);
  Var b = RandParam({2, 1}, 15);
  ExpectGradOk([&] { return SumAll(Square(Sub(a, b))); }, {a, b});
}

TEST(AutogradGrad, MulBroadcastBoth) {
  Var a = RandParam({2, 1}, 16);
  Var b = RandParam({1, 3}, 17);
  ExpectGradOk([&] { return SumAll(Square(Mul(a, b))); }, {a, b});
}

TEST(AutogradGrad, Div) {
  Var a = RandParam({2, 2}, 18);
  // Keep denominators away from zero.
  Var b = Parameter(ops::AddScalar(ops::Abs(RandParam({2, 2}, 19).value()),
                                   1.0f));
  ExpectGradOk([&] { return SumAll(Div(a, b)); }, {a, b});
}

TEST(AutogradGrad, ScalarOps) {
  Var a = RandParam({4}, 20);
  ExpectGradOk([&] { return SumAll(MulScalar(AddScalar(a, 2.0f), 3.0f)); },
               {a});
}

TEST(AutogradGrad, ExpLogSqrt) {
  Var a = Parameter(ops::AddScalar(ops::Abs(RandParam({5}, 21).value()),
                                   0.5f));
  ExpectGradOk([&] { return SumAll(Exp(MulScalar(a, 0.3f))); }, {a});
  ExpectGradOk([&] { return SumAll(Log(a)); }, {a});
  ExpectGradOk([&] { return SumAll(Sqrt(a)); }, {a});
}

TEST(AutogradGrad, SquareTanhSigmoid) {
  Var a = RandParam({6}, 22);
  ExpectGradOk([&] { return SumAll(Square(a)); }, {a});
  ExpectGradOk([&] { return SumAll(Tanh(a)); }, {a});
  ExpectGradOk([&] { return SumAll(Sigmoid(a)); }, {a});
}

TEST(AutogradGrad, ReluAwayFromKink) {
  // Offset values away from 0 where the subgradient is ambiguous.
  Rng rng(23);
  Tensor t = Tensor::Randn({8}, rng);
  for (int64_t i = 0; i < t.size(); ++i) {
    if (std::fabs(t.at(i)) < 0.2f) t.at(i) += t.at(i) >= 0 ? 0.3f : -0.3f;
  }
  Var a = Parameter(t);
  ExpectGradOk([&] { return SumAll(Relu(a)); }, {a});
}

TEST(AutogradGrad, AbsAwayFromKink) {
  Rng rng(24);
  Tensor t = Tensor::Randn({8}, rng);
  for (int64_t i = 0; i < t.size(); ++i) {
    if (std::fabs(t.at(i)) < 0.2f) t.at(i) += t.at(i) >= 0 ? 0.3f : -0.3f;
  }
  Var a = Parameter(t);
  ExpectGradOk([&] { return SumAll(Abs(a)); }, {a});
}

TEST(AutogradGrad, MatMul2D) {
  Var a = RandParam({3, 4}, 25, 0.5f);
  Var b = RandParam({4, 2}, 26, 0.5f);
  ExpectGradOk([&] { return SumAll(Square(MatMul(a, b))); }, {a, b});
}

TEST(AutogradGrad, MatMulBatchedSharedRhs) {
  Var a = RandParam({2, 3, 4}, 27, 0.5f);
  Var w = RandParam({4, 2}, 28, 0.5f);
  ExpectGradOk([&] { return SumAll(Square(MatMul(a, w))); }, {a, w});
}

TEST(AutogradGrad, MatMulRank4SharedWeightMatchesPerBatchReference) {
  // [B,N,T,k] x [k,n]: the backward flattens A and g to [rows, k] and
  // [rows, n] and takes dW as one GEMM straight into [k, n]. Compare with
  // per-batch products summed afterwards (a different but valid order).
  Rng rng(41);
  const Tensor x = Tensor::Randn({2, 3, 5, 7}, rng);
  const Tensor w = Tensor::Randn({7, 13}, rng);
  const Tensor g = Tensor::Randn({2, 3, 5, 13}, rng);
  Var xv = Parameter(x.Clone());
  Var wv = Parameter(w.Clone());
  // d/dy of sum(y * g) is g.
  SumAll(Mul(MatMul(xv, wv), Var(g))).Backward();

  Tensor dw_ref(Shape{7, 13});
  Tensor dx_ref(Shape{2, 3, 5, 7});
  for (int64_t b = 0; b < 6; ++b) {
    const Tensor xb = ops::Slice(x.Reshape({6, 5, 7}), 0, b, 1).Reshape({5, 7});
    const Tensor gb =
        ops::Slice(g.Reshape({6, 5, 13}), 0, b, 1).Reshape({5, 13});
    dw_ref = ops::Add(dw_ref, ops::MatMulTN(xb, gb));
    const Tensor dxb = ops::MatMulNT(gb, w);
    std::copy(dxb.data(), dxb.data() + dxb.size(),
              dx_ref.data() + b * dxb.size());
  }
  EXPECT_TRUE(ops::AllClose(wv.grad(), dw_ref, 1e-4f, 1e-4f));
  EXPECT_TRUE(ops::AllClose(xv.grad(), dx_ref, 1e-4f, 1e-4f));

  // A constant input (no grad) still gets the weight's gradient.
  Var wc = Parameter(w.Clone());
  SumAll(Mul(MatMul(Var(x), wc), Var(g))).Backward();
  EXPECT_TRUE(ops::AllClose(wc.grad(), wv.grad(), 0.0f, 0.0f));
}

TEST(AutogradGrad, MatMulBatchedBroadcast) {
  Var a = RandParam({2, 1, 3, 4}, 29, 0.5f);
  Var b = RandParam({1, 2, 4, 2}, 30, 0.5f);
  ExpectGradOk([&] { return SumAll(Square(MatMul(a, b))); }, {a, b});
}

TEST(AutogradGrad, TransposeAndPermute) {
  Var a = RandParam({2, 3, 4}, 31);
  ExpectGradOk([&] { return SumAll(Square(TransposeLast2(a))); }, {a});
  ExpectGradOk([&] { return SumAll(Square(Permute(a, {2, 0, 1}))); }, {a});
}

TEST(AutogradGrad, ReshapeSliceConcat) {
  Var a = RandParam({2, 6}, 32);
  ExpectGradOk([&] { return SumAll(Square(Reshape(a, {3, 4}))); }, {a});
  ExpectGradOk([&] { return SumAll(Square(Slice(a, 1, 2, 3))); }, {a});
  Var b = RandParam({2, 2}, 33);
  ExpectGradOk(
      [&] { return SumAll(Square(Concat({Slice(a, 1, 0, 2), b}, 1))); },
      {a, b});
}

TEST(AutogradGrad, StackAndIndexSelect) {
  Var a = RandParam({3}, 34);
  Var b = RandParam({3}, 35);
  ExpectGradOk([&] { return SumAll(Square(Stack({a, b}))); }, {a, b});
  Var table = RandParam({4, 3}, 36);
  ExpectGradOk(
      [&] { return SumAll(Square(IndexSelect0(table, {1, 3, 1}))); },
      {table});
}

TEST(AutogradGrad, Reductions) {
  Var a = RandParam({3, 4}, 37);
  ExpectGradOk([&] { return MeanAll(Square(a)); }, {a});
  ExpectGradOk([&] { return SumAll(Square(Sum(a, 0))); }, {a});
  ExpectGradOk([&] { return SumAll(Square(Sum(a, 1, true))); }, {a});
  ExpectGradOk([&] { return SumAll(Square(Mean(a, -1))); }, {a});
}

TEST(AutogradGrad, Softmax) {
  Var a = RandParam({3, 5}, 38);
  Var target(Tensor::Rand({3, 5}, GlobalRng()));
  ExpectGradOk([&] { return SumAll(Square(Sub(SoftmaxLast(a), target))); },
               {a});
}

TEST(AutogradGrad, Losses) {
  Var pred = RandParam({4, 3}, 39);
  Var target(Tensor::Randn({4, 3}, GlobalRng()));
  ExpectGradOk([&] { return MseLoss(pred, target); }, {pred});
  ExpectGradOk([&] { return HuberLoss(pred, target, 0.7f); }, {pred});
}

TEST(AutogradGrad, HuberMatchesMseInQuadraticRegion) {
  // With delta much larger than any |error|, Huber == 0.5 * MSE.
  Rng rng(40);
  Var pred = Parameter(ops::MulScalar(Tensor::Randn({5}, rng), 0.1f));
  Var target(ops::MulScalar(Tensor::Randn({5}, rng), 0.1f));
  float huber = HuberLoss(pred, target, 100.0f).value().item();
  float mse = MseLoss(pred, target).value().item();
  EXPECT_NEAR(huber, 0.5f * mse, 1e-6f);
}

TEST(AutogradGrad, HuberIsLinearFarOutside) {
  Var pred = Parameter(Tensor({1}, {10.0f}));
  Var target(Tensor({1}, {0.0f}));
  // delta*(|e| - delta/2) with delta=1, e=10 → 9.5
  EXPECT_NEAR(HuberLoss(pred, target, 1.0f).value().item(), 9.5f, 1e-5f);
}

TEST(AutogradGrad, CompositeExpression) {
  // A small MLP-like composite: softmax(tanh(x W1) W2) compared to target.
  Var x = RandParam({2, 4}, 41, 0.5f);
  Var w1 = RandParam({4, 8}, 42, 0.5f);
  Var w2 = RandParam({8, 3}, 43, 0.5f);
  Var target(Tensor::Rand({2, 3}, GlobalRng()));
  ExpectGradOk(
      [&] {
        Var h = Tanh(MatMul(x, w1));
        Var y = SoftmaxLast(MatMul(h, w2));
        return MseLoss(y, target);
      },
      {x, w1, w2});
}

TEST(AutogradDropout, IdentityInEval) {
  Rng rng(44);
  Var a = RandParam({10}, 45);
  Var out = Dropout(a, 0.5f, /*training=*/false, rng);
  EXPECT_TRUE(ops::AllClose(out.value(), a.value(), 0.0f, 0.0f));
}

TEST(AutogradDropout, ZeroesAndRescalesInTraining) {
  Rng rng(46);
  Var a(Tensor::Ones({1000}), true);
  Var out = Dropout(a, 0.25f, /*training=*/true, rng);
  int64_t zeros = 0;
  double sum = 0.0;
  for (int64_t i = 0; i < 1000; ++i) {
    float v = out.value().at(i);
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.75f, 1e-5f);
    }
    sum += v;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 1000.0, 0.25, 0.06);
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.08) << "inverted dropout keeps the mean";
}

// Parameterised sweep: gradcheck SoftmaxLast over varying widths.
class SoftmaxWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(SoftmaxWidthSweep, Gradients) {
  const int width = GetParam();
  Var a = RandParam({2, width}, 100 + width);
  ExpectGradOk([&] { return SumAll(Square(SoftmaxLast(a))); }, {a});
}

INSTANTIATE_TEST_SUITE_P(Widths, SoftmaxWidthSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace ag
}  // namespace stwa
