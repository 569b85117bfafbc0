// Optimizer and loss tests: AdamW convergence, decay exclusions, gradient
// clipping, LR schedule, DMLM distillation behaviour and the uncertainty-
// weighted combined loss (Eq. 17).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/loss.h"
#include "nn/optim.h"
#include "nn/tensor.h"

namespace kglink::nn {
namespace {

TEST(AdamWTest, MinimizesQuadratic) {
  Tensor x = Tensor::FromData({3}, {5.0f, -4.0f, 2.0f},
                              /*requires_grad=*/true);
  AdamWOptions opts;
  opts.lr = 0.1f;
  opts.weight_decay = 0.0f;
  AdamW opt({{"x", x}}, opts);
  for (int i = 0; i < 300; ++i) {
    opt.ZeroGrad();
    Tensor loss = Sum(Mul(x, x));
    loss.Backward();
    opt.Step();
  }
  for (float v : x.data()) EXPECT_NEAR(v, 0.0f, 1e-2f);
}

TEST(AdamWTest, WeightDecayAppliesOnlyToWeights) {
  Tensor w = Tensor::FromData({2}, {1.0f, 1.0f}, true);
  Tensor b = Tensor::FromData({2}, {1.0f, 1.0f}, true);
  Tensor s = Tensor::FromData({1}, {1.0f}, true);
  AdamWOptions opts;
  opts.lr = 0.01f;
  opts.weight_decay = 0.5f;
  AdamW opt({{"layer.w", w}, {"layer.b", b}, {"uw.log_var0", s}}, opts);
  // Zero gradients: only decay moves parameters.
  opt.ZeroGrad();
  w.grad();  // ensure allocated
  b.grad();
  s.grad();
  opt.Step();
  EXPECT_LT(w.data()[0], 1.0f);
  EXPECT_FLOAT_EQ(b.data()[0], 1.0f);
  EXPECT_FLOAT_EQ(s.data()[0], 1.0f);
}

TEST(AdamWTest, ClipGradNormScalesDown) {
  Tensor x = Tensor::FromData({2}, {0.0f, 0.0f}, true);
  AdamW opt({{"x", x}}, {});
  x.grad()[0] = 3.0f;
  x.grad()[1] = 4.0f;  // norm 5
  float norm = opt.ClipGradNorm(1.0f);
  EXPECT_FLOAT_EQ(norm, 5.0f);
  EXPECT_NEAR(x.grad()[0], 0.6f, 1e-5f);
  EXPECT_NEAR(x.grad()[1], 0.8f, 1e-5f);
  // Below the cap: untouched.
  float norm2 = opt.ClipGradNorm(10.0f);
  EXPECT_NEAR(norm2, 1.0f, 1e-5f);
  EXPECT_NEAR(x.grad()[0], 0.6f, 1e-5f);
}

TEST(ScheduleTest, LinearDecayNoWarmup) {
  LinearDecaySchedule sched(1.0f, 10);
  EXPECT_FLOAT_EQ(sched.LrAt(0), 1.0f);
  EXPECT_FLOAT_EQ(sched.LrAt(5), 0.5f);
  EXPECT_FLOAT_EQ(sched.LrAt(10), 0.0f);
  EXPECT_FLOAT_EQ(sched.LrAt(20), 0.0f);
}

TEST(DmlmLossTest, ZeroWhenStudentEqualsTeacherSharp) {
  // Identical logits minimize the soft CE up to the teacher's entropy;
  // check that identical logits score lower than different ones.
  Tensor logits = Tensor::FromData({1, 4}, {5.0f, 0.0f, 0.0f, 0.0f}, true);
  Tensor same = Tensor::FromData({1, 4}, {5.0f, 0.0f, 0.0f, 0.0f});
  Tensor diff = Tensor::FromData({1, 4}, {0.0f, 5.0f, 0.0f, 0.0f});
  float match = DmlmLoss(logits, same, 2.0f).item();
  float mismatch = DmlmLoss(logits, diff, 2.0f).item();
  EXPECT_LT(match, mismatch);
}

TEST(DmlmLossTest, TemperatureSoftensTeacher) {
  // With a very high temperature the teacher approaches uniform, so the
  // loss approaches the uniform cross-entropy regardless of agreement.
  Tensor student = Tensor::FromData({1, 4}, {0.0f, 0.0f, 0.0f, 0.0f}, true);
  Tensor teacher = Tensor::FromData({1, 4}, {100.0f, 0.0f, 0.0f, 0.0f});
  float high_t = DmlmLoss(student, teacher, 1000.0f).item();
  EXPECT_NEAR(high_t, std::log(4.0f), 1e-2f);
}

TEST(DmlmLossTest, GradientsFlowToStudentOnly) {
  Tensor student = Tensor::FromData({1, 3}, {0.1f, 0.2f, 0.3f}, true);
  Tensor teacher = Tensor::FromData({1, 3}, {1.0f, 0.0f, 0.0f}, true);
  DmlmLoss(student, teacher, 2.0f).Backward();
  float s_grad = 0, t_grad = 0;
  for (float g : student.grad()) s_grad += std::abs(g);
  for (float g : teacher.grad()) t_grad += std::abs(g);
  EXPECT_GT(s_grad, 0.0f);
  EXPECT_EQ(t_grad, 0.0f);
}

// The annotator's DMLM step computes the teacher logits under a
// NoGradGuard. That only drops no gradient because DmlmLoss sends none to
// the teacher: with a shared weight on both sides, the weight's gradient
// must be the same whether the teacher was taped or not.
TEST(DmlmLossTest, TeacherUnderNoGradGuardLeavesGradientsUnchanged) {
  const std::vector<float> w_data = {0.3f, -0.2f, 0.5f, 0.1f, 0.4f, -0.6f};
  Tensor x_student = Tensor::FromData({2, 2}, {1.0f, 0.5f, -0.3f, 0.8f});
  Tensor x_teacher = Tensor::FromData({2, 2}, {0.2f, -1.0f, 0.7f, 0.4f});
  auto step = [&](bool guard_teacher) {
    Tensor w = Tensor::FromData({2, 3}, w_data, /*requires_grad=*/true);
    Tensor student = MatMul(x_student, w);
    Tensor teacher;
    if (guard_teacher) {
      NoGradGuard no_grad;
      teacher = MatMul(x_teacher, w);
    } else {
      teacher = MatMul(x_teacher, w);
    }
    DmlmLoss(student, teacher, 2.0f).Backward();
    return w.grad();
  };
  const std::vector<float> taped = step(/*guard_teacher=*/false);
  const std::vector<float> guarded = step(/*guard_teacher=*/true);
  ASSERT_EQ(taped.size(), guarded.size());
  for (size_t i = 0; i < taped.size(); ++i) {
    EXPECT_EQ(taped[i], guarded[i]) << "w.grad[" << i << "]";
  }
}

TEST(UncertaintyLossTest, MatchesClosedForm) {
  UncertaintyWeightedLoss uw(0.4f, -0.2f);
  Tensor dmlm = Tensor::Scalar(2.0f);
  Tensor ce = Tensor::Scalar(3.0f);
  float expected = 0.5f * std::exp(-0.4f) * 2.0f +
                   0.5f * std::exp(0.2f) * 3.0f + 0.5f * (0.4f - 0.2f);
  EXPECT_NEAR(uw.Combine(dmlm, ce).item(), expected, 1e-5f);
}

TEST(UncertaintyLossTest, SigmasReceiveGradients) {
  UncertaintyWeightedLoss uw;
  Tensor dmlm = Tensor::Scalar(2.0f);
  Tensor ce = Tensor::Scalar(3.0f);
  uw.Combine(dmlm, ce).Backward();
  std::vector<NamedParam> params;
  uw.CollectParams(&params);
  ASSERT_EQ(params.size(), 2u);
  for (auto& p : params) {
    EXPECT_NE(p.tensor.grad()[0], 0.0f) << p.name;
  }
}

TEST(UncertaintyLossTest, FrozenSigmasGetNoGradient) {
  UncertaintyWeightedLoss uw;
  uw.SetFrozen(true);
  Tensor dmlm = Tensor::Scalar(2.0f, /*requires_grad=*/true);
  Tensor ce = Tensor::Scalar(3.0f, /*requires_grad=*/true);
  uw.Combine(dmlm, ce).Backward();
  std::vector<NamedParam> params;
  uw.CollectParams(&params);
  for (auto& p : params) {
    EXPECT_EQ(p.tensor.grad()[0], 0.0f) << p.name;
  }
  // Task losses still receive gradient.
  EXPECT_NE(dmlm.grad()[0], 0.0f);
  EXPECT_NE(ce.grad()[0], 0.0f);
}

TEST(UncertaintyLossTest, HigherUncertaintyDownWeightsTask) {
  // Larger log sigma0^2 shrinks the DMLM term's weight.
  UncertaintyWeightedLoss low(0.0f, 0.0f);
  UncertaintyWeightedLoss high(2.0f, 0.0f);
  Tensor dmlm = Tensor::Scalar(10.0f);
  Tensor ce = Tensor::Scalar(0.0f);
  EXPECT_GT(low.Combine(dmlm, ce).item(), high.Combine(dmlm, ce).item());
}

// Parameterized sanity sweep of the schedule across step counts.
class SchedulePropertyTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(SchedulePropertyTest, MonotoneNonIncreasingToZero) {
  int64_t total = GetParam();
  LinearDecaySchedule sched(0.7f, total);
  float prev = sched.LrAt(0);
  EXPECT_FLOAT_EQ(prev, 0.7f);
  for (int64_t s = 1; s <= total; ++s) {
    float cur = sched.LrAt(s);
    EXPECT_LE(cur, prev);
    prev = cur;
  }
  EXPECT_FLOAT_EQ(sched.LrAt(total), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Totals, SchedulePropertyTest,
                         ::testing::Values<int64_t>(1, 7, 100));

}  // namespace
}  // namespace kglink::nn
