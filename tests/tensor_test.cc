// Tensor-library tests: forward-op correctness against hand-computed
// values, and finite-difference gradient checks for every differentiable
// op (the backbone guarantee behind every training result in the repo).
#include "nn/tensor.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <thread>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace kglink::nn {
namespace {

// Central-difference gradient check: builds the graph twice per element.
// `make_loss` must construct a scalar loss from the given leaf tensors.
void GradCheck(
    std::vector<Tensor> leaves,
    const std::function<Tensor(const std::vector<Tensor>&)>& make_loss,
    float eps = 1e-2f, float tol = 2e-2f) {
  Tensor loss = make_loss(leaves);
  ASSERT_EQ(loss.numel(), 1);
  loss.Backward();

  for (size_t li = 0; li < leaves.size(); ++li) {
    Tensor& leaf = leaves[li];
    const std::vector<float> analytic = leaf.grad();
    for (size_t i = 0; i < leaf.data().size(); ++i) {
      float orig = leaf.data()[i];
      leaf.data()[i] = orig + eps;
      float up = make_loss(leaves).item();
      leaf.data()[i] = orig - eps;
      float down = make_loss(leaves).item();
      leaf.data()[i] = orig;
      float numeric = (up - down) / (2 * eps);
      float diff = std::abs(analytic[i] - numeric);
      float scale = std::max({1.0f, std::abs(analytic[i]),
                              std::abs(numeric)});
      EXPECT_LE(diff / scale, tol)
          << "leaf " << li << " element " << i << ": analytic "
          << analytic[i] << " vs numeric " << numeric;
    }
  }
}

Tensor RandLeaf(std::vector<int> shape, Rng& rng, float scale = 1.0f) {
  return Tensor::Randn(std::move(shape), scale, rng, /*requires_grad=*/true);
}

TEST(TensorTest, FactoryShapesAndValues) {
  Tensor z = Tensor::Zeros({2, 3});
  EXPECT_EQ(z.rows(), 2);
  EXPECT_EQ(z.cols(), 3);
  EXPECT_EQ(z.numel(), 6);
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);

  Tensor f = Tensor::Full({4}, 2.5f);
  EXPECT_EQ(f.rows(), 1);
  EXPECT_EQ(f.cols(), 4);
  for (float v : f.data()) EXPECT_EQ(v, 2.5f);

  Tensor s = Tensor::Scalar(3.0f);
  EXPECT_EQ(s.item(), 3.0f);
}

TEST(TensorTest, MatMulForward) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_FLOAT_EQ(c.data()[0], 58);
  EXPECT_FLOAT_EQ(c.data()[1], 64);
  EXPECT_FLOAT_EQ(c.data()[2], 139);
  EXPECT_FLOAT_EQ(c.data()[3], 154);
}

TEST(TensorTest, AddBroadcastsRowVector) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromData({1, 2}, {10, 20});
  Tensor c = Add(a, b);
  EXPECT_FLOAT_EQ(c.data()[0], 11);
  EXPECT_FLOAT_EQ(c.data()[1], 22);
  EXPECT_FLOAT_EQ(c.data()[2], 13);
  EXPECT_FLOAT_EQ(c.data()[3], 24);
}

TEST(TensorTest, SoftmaxRowsSumToOne) {
  Rng rng(1);
  Tensor x = RandLeaf({5, 7}, rng, 3.0f);
  Tensor y = Softmax(x);
  for (int i = 0; i < 5; ++i) {
    float sum = 0;
    for (int j = 0; j < 7; ++j) sum += y.data()[i * 7 + j];
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(TensorTest, SoftmaxIsShiftInvariant) {
  Tensor a = Tensor::FromData({1, 3}, {1, 2, 3});
  Tensor b = Tensor::FromData({1, 3}, {1001, 1002, 1003});
  Tensor ya = Softmax(a);
  Tensor yb = Softmax(b);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(ya.data()[i], yb.data()[i], 1e-5f);
  }
}

TEST(TensorTest, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(2);
  Tensor x = RandLeaf({3, 4}, rng, 2.0f);
  Tensor ls = LogSoftmax(x);
  Tensor sm = Softmax(x);
  for (size_t i = 0; i < ls.data().size(); ++i) {
    EXPECT_NEAR(ls.data()[i], std::log(sm.data()[i]), 1e-5f);
  }
}

TEST(TensorTest, TransposeRoundTrip) {
  Rng rng(3);
  Tensor x = RandLeaf({3, 5}, rng);
  Tensor tt = Transpose(Transpose(x));
  for (size_t i = 0; i < x.data().size(); ++i) {
    EXPECT_EQ(x.data()[i], tt.data()[i]);
  }
}

TEST(TensorTest, DetachStopsGradients) {
  Tensor x = Tensor::FromData({2}, {1, 2}, /*requires_grad=*/true);
  Tensor d = Detach(x);
  EXPECT_FALSE(d.requires_grad());
  Tensor loss = Sum(Mul(Add(x, d), x));
  loss.Backward();
  // d(loss)/dx with d treated constant: 2x + d.
  EXPECT_NEAR(x.grad()[0], 2 * 1 + 1, 1e-5f);
  EXPECT_NEAR(x.grad()[1], 2 * 2 + 2, 1e-5f);
}

TEST(TensorTest, GradientAccumulatesWhenReused) {
  Tensor x = Tensor::FromData({1}, {3}, /*requires_grad=*/true);
  Tensor loss = Sum(Add(x, x));  // d/dx = 2
  loss.Backward();
  EXPECT_NEAR(x.grad()[0], 2.0f, 1e-6f);
}

TEST(TensorTest, NoTapeWithoutRequiresGrad) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromData({2, 2}, {1, 0, 0, 1});
  Tensor c = MatMul(a, b);
  EXPECT_FALSE(c.requires_grad());
  EXPECT_TRUE(c.impl()->parents.empty());
}

// ----- NoGradGuard -----

// Every op kind a served forward runs, over inputs that require grad.
std::vector<Tensor> ServingOps(Rng& rng) {
  Tensor x = RandLeaf({6, 8}, rng);
  Tensor w = RandLeaf({8, 8}, rng);
  Tensor g = RandLeaf({1, 8}, rng);
  Tensor b = RandLeaf({1, 8}, rng);
  Tensor table = RandLeaf({10, 8}, rng);
  return {
      MatMul(x, w),
      Add(x, b),
      Gelu(x),
      Softmax(x),
      LayerNorm(x, g, b),
      MaskedAttention(x, x, x, /*num_heads=*/2, 0.5f, {3, 2}, 3),
      EmbeddingLookup(table, {1, 4, 9}),
      Rows(x, {0, 5}),
      ConcatCols({x, x}),
      ConcatRows({x, x}),
      MeanRows(x),
  };
}

TEST(NoGradGuardTest, OpsRecordNoTapeUnderGuard) {
  Rng rng(31);
  NoGradGuard no_grad;
  const std::vector<Tensor> outs = ServingOps(rng);
  for (size_t i = 0; i < outs.size(); ++i) {
    EXPECT_FALSE(outs[i].requires_grad()) << "op " << i;
    EXPECT_TRUE(outs[i].impl()->parents.empty()) << "op " << i;
    EXPECT_FALSE(outs[i].impl()->backward) << "op " << i;
  }
}

TEST(NoGradGuardTest, OutputsAreBitIdenticalWithAndWithoutGuard) {
  Rng taped_rng(32);
  const std::vector<Tensor> taped = ServingOps(taped_rng);
  Rng free_rng(32);
  NoGradGuard no_grad;
  const std::vector<Tensor> free = ServingOps(free_rng);
  ASSERT_EQ(taped.size(), free.size());
  for (size_t i = 0; i < taped.size(); ++i) {
    EXPECT_TRUE(taped[i].impl()->backward) << "op " << i;
    ASSERT_EQ(taped[i].shape(), free[i].shape()) << "op " << i;
    EXPECT_EQ(0, std::memcmp(taped[i].data().data(), free[i].data().data(),
                             taped[i].data().size() * sizeof(float)))
        << "op " << i;
  }
}

TEST(NoGradGuardTest, NestedGuardsRestoreTheOuterValue) {
  Tensor x = Tensor::FromData({1, 2}, {1, 2}, /*requires_grad=*/true);
  EXPECT_TRUE(Gelu(x).requires_grad());
  {
    NoGradGuard outer;
    EXPECT_FALSE(Gelu(x).requires_grad());
    {
      NoGradGuard inner;
      EXPECT_FALSE(Gelu(x).requires_grad());
    }
    EXPECT_FALSE(Gelu(x).requires_grad());
  }
  EXPECT_TRUE(Gelu(x).requires_grad());
}

TEST(NoGradGuardTest, GuardIsThreadLocal) {
  Tensor x = Tensor::FromData({1, 2}, {1, 2}, /*requires_grad=*/true);
  NoGradGuard no_grad;
  bool other_taped = false;
  std::thread other([&] { other_taped = Gelu(x).requires_grad(); });
  other.join();
  EXPECT_TRUE(other_taped);
  EXPECT_FALSE(Gelu(x).requires_grad());
}

// ----- GELU kernel -----

double GeluRef(double x) {
  const double u = 0.7978845608028654 * (x + 0.044715 * x * x * x);
  return 0.5 * x * (1.0 + std::tanh(u));
}

double GeluGradRef(double x) {
  const double u = 0.7978845608028654 * (x + 0.044715 * x * x * x);
  const double t = std::tanh(u);
  return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * 0.7978845608028654 *
                               (1.0 + 3.0 * 0.044715 * x * x);
}

// The bounds kernels::GeluForward/GeluBackward document. The previous
// std::tanh form read 4.3e-7 forward and 5.6e-7 backward on this sweep.
TEST(GeluKernelTest, WithinStatedBoundOfDoubleReference) {
  constexpr int kPoints = 240001;  // [-12, 12] in steps of 1e-4
  std::vector<float> x(kPoints);
  for (int i = 0; i < kPoints; ++i) {
    x[i] = static_cast<float>(-12.0 + 24.0 * i / (kPoints - 1));
  }
  std::vector<float> y(kPoints);
  std::vector<float> gy(kPoints, 1.0f);
  std::vector<float> gx(kPoints, 0.0f);
  kernels::GeluForward(x.data(), y.data(), x.size());
  kernels::GeluBackward(x.data(), gy.data(), gx.data(), x.size());
  double worst_fwd = 0.0;
  double worst_bwd = 0.0;
  for (int i = 0; i < kPoints; ++i) {
    worst_fwd = std::max(worst_fwd, std::abs(y[i] - GeluRef(x[i])));
    worst_bwd = std::max(worst_bwd, std::abs(gx[i] - GeluGradRef(x[i])));
  }
  EXPECT_LE(worst_fwd, 7e-7);
  EXPECT_LE(worst_bwd, 3e-7);
}

// Lengths 1-33 cover every AVX2 tail. One call over all n elements runs
// the AVX2 blocks where they are compiled in; one call per element always
// runs the scalar tail, so the two must agree bit for bit.
TEST(GeluKernelTest, ScalarAndSimdAreBitIdenticalOnEveryTail) {
  Rng rng(33);
  for (size_t n = 1; n <= 33; ++n) {
    std::vector<float> x(n);
    for (auto& v : x) v = 4.0f * static_cast<float>(rng.Gaussian());
    x[0] = (n % 3 == 0) ? -0.0f : (n % 3 == 1) ? 0.0f : -11.5f;
    std::vector<float> gy(n);
    for (auto& v : gy) v = static_cast<float>(rng.Gaussian());
    std::vector<float> y_scalar(n), y_simd(n);
    for (size_t i = 0; i < n; ++i) {
      kernels::GeluForward(&x[i], &y_scalar[i], 1);
    }
    kernels::GeluForward(x.data(), y_simd.data(), n);
    EXPECT_EQ(0, std::memcmp(y_scalar.data(), y_simd.data(),
                             n * sizeof(float)))
        << "forward, n=" << n;
    std::vector<float> gx_scalar(n, 0.25f), gx_simd(n, 0.25f);
    for (size_t i = 0; i < n; ++i) {
      kernels::GeluBackward(&x[i], &gy[i], &gx_scalar[i], 1);
    }
    kernels::GeluBackward(x.data(), gy.data(), gx_simd.data(), n);
    EXPECT_EQ(0, std::memcmp(gx_scalar.data(), gx_simd.data(),
                             n * sizeof(float)))
        << "backward, n=" << n;
  }
}

TEST(GeluKernelTest, NanPropagatesOnBothPaths) {
  std::vector<float> x(9, std::nanf(""));
  std::vector<float> y(9), y_scalar(9);
  kernels::GeluForward(x.data(), y.data(), x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    kernels::GeluForward(&x[i], &y_scalar[i], 1);
  }
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_TRUE(std::isnan(y[i]));
    EXPECT_TRUE(std::isnan(y_scalar[i]));
  }
}

TEST(TensorTest, EmbeddingLookupGathersAndScatters) {
  Tensor table = Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6},
                                  /*requires_grad=*/true);
  Tensor out = EmbeddingLookup(table, {2, 0, 2});
  EXPECT_FLOAT_EQ(out.data()[0], 5);
  EXPECT_FLOAT_EQ(out.data()[1], 6);
  EXPECT_FLOAT_EQ(out.data()[2], 1);
  Sum(out).Backward();
  // Row 2 used twice, row 0 once, row 1 never.
  EXPECT_FLOAT_EQ(table.grad()[0], 1);
  EXPECT_FLOAT_EQ(table.grad()[2], 0);
  EXPECT_FLOAT_EQ(table.grad()[4], 2);
}

TEST(TensorTest, CrossEntropyMatchesManual) {
  Tensor logits = Tensor::FromData({1, 3}, {0.0f, 1.0f, 2.0f});
  Tensor loss = CrossEntropy(logits, {2});
  float z = std::exp(0.0f) + std::exp(1.0f) + std::exp(2.0f);
  EXPECT_NEAR(loss.item(), -std::log(std::exp(2.0f) / z), 1e-5f);
}

TEST(TensorTest, SoftCrossEntropyEqualsHardWhenOneHot) {
  Tensor logits = Tensor::FromData({2, 3}, {0.1f, 0.7f, -1.0f,  //
                                            2.0f, -0.5f, 0.3f});
  Tensor onehot = Tensor::FromData({2, 3}, {0, 1, 0, 1, 0, 0});
  Tensor hard = CrossEntropy(logits, {1, 0});
  Tensor soft = SoftCrossEntropy(logits, onehot);
  EXPECT_NEAR(hard.item(), soft.item(), 1e-5f);
}

TEST(TensorTest, CosineSimilarityOfParallelVectorsIsOne) {
  Tensor a = Tensor::FromData({3}, {1, 2, 3});
  Tensor b = Tensor::FromData({3}, {2, 4, 6});
  EXPECT_NEAR(CosineSimilarity(a, b).item(), 1.0f, 1e-4f);
}

// ----- gradient checks -----

TEST(TensorGradTest, MatMul) {
  Rng rng(10);
  GradCheck({RandLeaf({3, 4}, rng), RandLeaf({4, 2}, rng)},
            [](const std::vector<Tensor>& l) {
              return Mean(MatMul(l[0], l[1]));
            });
}

TEST(TensorGradTest, AddBroadcast) {
  Rng rng(11);
  GradCheck({RandLeaf({3, 4}, rng), RandLeaf({1, 4}, rng)},
            [](const std::vector<Tensor>& l) {
              return Mean(Mul(Add(l[0], l[1]), Add(l[0], l[1])));
            });
}

TEST(TensorGradTest, MulAndScale) {
  Rng rng(12);
  GradCheck({RandLeaf({2, 5}, rng), RandLeaf({2, 5}, rng)},
            [](const std::vector<Tensor>& l) {
              return Sum(Scale(Mul(l[0], l[1]), 0.3f));
            });
}

TEST(TensorGradTest, Transpose) {
  Rng rng(13);
  GradCheck({RandLeaf({3, 2}, rng)}, [](const std::vector<Tensor>& l) {
    return Mean(Mul(Transpose(l[0]), Transpose(l[0])));
  });
}

TEST(TensorGradTest, UnaryOps) {
  Rng rng(14);
  GradCheck({RandLeaf({2, 4}, rng)}, [](const std::vector<Tensor>& l) {
    return Mean(Gelu(Tanh(l[0])));
  });
  GradCheck({RandLeaf({2, 4}, rng)}, [](const std::vector<Tensor>& l) {
    return Mean(Sigmoid(l[0]));
  });
  GradCheck({RandLeaf({2, 4}, rng)}, [](const std::vector<Tensor>& l) {
    return Mean(Exp(Scale(l[0], 0.5f)));
  });
}

TEST(TensorGradTest, ReluAwayFromKink) {
  // Keep inputs away from 0 so the finite difference is valid.
  Tensor x = Tensor::FromData({1, 4}, {1.0f, -1.5f, 2.0f, -0.8f},
                              /*requires_grad=*/true);
  GradCheck({x}, [](const std::vector<Tensor>& l) {
    return Sum(Relu(l[0]));
  });
}

TEST(TensorGradTest, SoftmaxAndLogSoftmax) {
  Rng rng(15);
  GradCheck({RandLeaf({3, 5}, rng)}, [](const std::vector<Tensor>& l) {
    Tensor w = Tensor::FromData({3, 5}, {0.1f, -0.2f, 0.3f, 0.4f, -0.5f,  //
                                         0.5f, 0.1f, -0.1f, 0.2f, 0.3f,  //
                                         -0.3f, 0.2f, 0.1f, -0.4f, 0.2f});
    return Sum(Mul(Softmax(l[0]), w));
  });
  GradCheck({RandLeaf({2, 4}, rng)}, [](const std::vector<Tensor>& l) {
    Tensor w = Tensor::FromData({2, 4},
                                {0.3f, -0.1f, 0.2f, 0.4f,  //
                                 -0.2f, 0.5f, 0.1f, -0.3f});
    return Sum(Mul(LogSoftmax(l[0]), w));
  });
}

TEST(TensorGradTest, LayerNorm) {
  Rng rng(16);
  GradCheck(
      {RandLeaf({3, 6}, rng), RandLeaf({1, 6}, rng), RandLeaf({1, 6}, rng)},
      [](const std::vector<Tensor>& l) {
        return Mean(Mul(LayerNorm(l[0], l[1], l[2]),
                        LayerNorm(l[0], l[1], l[2])));
      },
      1e-2f, 4e-2f);
}

TEST(TensorGradTest, RowsAndSlices) {
  Rng rng(17);
  GradCheck({RandLeaf({4, 6}, rng)}, [](const std::vector<Tensor>& l) {
    Tensor picked = Rows(l[0], {0, 2, 2});
    Tensor sliced = SliceCols(l[0], 1, 3);
    return Add(Mean(Mul(picked, picked)), Mean(sliced));
  });
}

TEST(TensorGradTest, ConcatColsAndRows) {
  Rng rng(18);
  GradCheck({RandLeaf({2, 3}, rng), RandLeaf({2, 2}, rng)},
            [](const std::vector<Tensor>& l) {
              Tensor cat = ConcatCols({l[0], l[1]});
              return Mean(Mul(cat, cat));
            });
  GradCheck({RandLeaf({2, 3}, rng), RandLeaf({1, 3}, rng)},
            [](const std::vector<Tensor>& l) {
              Tensor cat = ConcatRows({l[0], l[1]});
              return Mean(Mul(cat, cat));
            });
}

TEST(TensorGradTest, EmbeddingLookup) {
  Rng rng(19);
  GradCheck({RandLeaf({5, 3}, rng)}, [](const std::vector<Tensor>& l) {
    Tensor e = EmbeddingLookup(l[0], {1, 3, 1, 4});
    return Mean(Mul(e, e));
  });
}

TEST(TensorGradTest, MeanRowsAndSums) {
  Rng rng(20);
  GradCheck({RandLeaf({4, 3}, rng)}, [](const std::vector<Tensor>& l) {
    Tensor m = MeanRows(l[0]);
    return Add(Sum(Mul(m, m)), Scale(Mean(l[0]), 0.7f));
  });
}

TEST(TensorGradTest, CrossEntropy) {
  Rng rng(21);
  GradCheck({RandLeaf({3, 4}, rng)}, [](const std::vector<Tensor>& l) {
    return CrossEntropy(l[0], {1, 3, 0});
  });
}

TEST(TensorGradTest, SoftCrossEntropy) {
  Rng rng(22);
  Tensor targets = Softmax(Tensor::Randn({3, 4}, 1.0f, rng));
  GradCheck({RandLeaf({3, 4}, rng)}, [targets](const std::vector<Tensor>& l) {
    return SoftCrossEntropy(l[0], targets);
  });
}

TEST(TensorGradTest, CosineSimilarity) {
  Rng rng(23);
  GradCheck({RandLeaf({4}, rng), RandLeaf({4}, rng)},
            [](const std::vector<Tensor>& l) {
              return CosineSimilarity(l[0], l[1]);
            });
}

TEST(TensorGradTest, Reshape) {
  Rng rng(24);
  GradCheck({RandLeaf({2, 6}, rng)}, [](const std::vector<Tensor>& l) {
    Tensor r = Reshape(l[0], {3, 4});
    return Mean(Mul(r, r));
  });
}

// Property sweep: softmax output is a distribution for many shapes/scales.
class SoftmaxPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, float>> {};

TEST_P(SoftmaxPropertyTest, RowsAreDistributions) {
  auto [rows, cols, scale] = GetParam();
  Rng rng(static_cast<uint64_t>(rows * 100 + cols * 10) +
          static_cast<uint64_t>(scale));
  Tensor x = Tensor::Randn({rows, cols}, scale, rng);
  Tensor y = Softmax(x);
  for (int i = 0; i < rows; ++i) {
    float sum = 0;
    for (int j = 0; j < cols; ++j) {
      float v = y.data()[static_cast<size_t>(i) * cols + j];
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SoftmaxPropertyTest,
    ::testing::Combine(::testing::Values(1, 3, 16),
                       ::testing::Values(2, 7, 50),
                       ::testing::Values(0.1f, 1.0f, 10.0f)));

}  // namespace
}  // namespace kglink::nn
