// Layer and encoder tests: shapes, determinism, gradient flow through the
// full transformer, and checkpoint round-trips.
#include "nn/layers.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "nn/checkpoint.h"
#include "nn/tensor.h"
#include "obs/metrics.h"

namespace kglink::nn {
namespace {

EncoderConfig SmallConfig(int vocab = 50) {
  EncoderConfig c;
  c.vocab_size = vocab;
  c.max_seq_len = 32;
  c.dim = 16;
  c.num_heads = 2;
  c.num_layers = 2;
  c.ffn_dim = 24;
  c.dropout = 0.0f;
  return c;
}

TEST(LinearTest, ShapeAndBias) {
  Rng rng(1);
  Linear lin(3, 5, rng, "t");
  Tensor x = Tensor::Zeros({2, 3});
  Tensor y = lin.Forward(x);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_EQ(y.cols(), 5);
  // Zero input -> bias (zero-initialized).
  for (float v : y.data()) EXPECT_EQ(v, 0.0f);
}

TEST(LayerNormLayerTest, NormalizesRows) {
  Rng rng(2);
  LayerNormLayer ln(8, "t");
  Tensor x = Tensor::Randn({4, 8}, 5.0f, rng);
  Tensor y = ln.Forward(x);
  for (int i = 0; i < 4; ++i) {
    float mean = 0, var = 0;
    for (int j = 0; j < 8; ++j) mean += y.data()[i * 8 + j];
    mean /= 8;
    for (int j = 0; j < 8; ++j) {
      float d = y.data()[i * 8 + j] - mean;
      var += d * d;
    }
    var /= 8;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(MultiHeadAttentionTest, PreservesShape) {
  Rng rng(3);
  MultiHeadAttention mha(16, 4, rng, "t");
  Tensor x = Tensor::Randn({7, 16}, 1.0f, rng);
  Tensor y = mha.Forward(x);
  EXPECT_EQ(y.rows(), 7);
  EXPECT_EQ(y.cols(), 16);
}

TEST(EncoderTest, OutputShapeAndDeterminism) {
  Rng init_rng(4);
  TransformerEncoder enc(SmallConfig(), init_rng);
  std::vector<int> tokens = {2, 5, 9, 13, 3};
  Rng r1(9);
  Rng r2(9);
  Tensor y1 = enc.Forward(tokens, r1, /*training=*/false);
  Tensor y2 = enc.Forward(tokens, r2, /*training=*/false);
  EXPECT_EQ(y1.rows(), 5);
  EXPECT_EQ(y1.cols(), 16);
  for (size_t i = 0; i < y1.data().size(); ++i) {
    EXPECT_EQ(y1.data()[i], y2.data()[i]);
  }
}

TEST(EncoderTest, PositionSensitivity) {
  Rng init_rng(5);
  TransformerEncoder enc(SmallConfig(), init_rng);
  Rng r(1);
  Tensor ab = enc.Forward({7, 8}, r, false);
  Tensor ba = enc.Forward({8, 7}, r, false);
  // Swapping tokens must change the representation (positions matter).
  float diff = 0;
  for (size_t i = 0; i < ab.data().size(); ++i) {
    diff += std::abs(ab.data()[i] - ba.data()[i]);
  }
  EXPECT_GT(diff, 1e-3f);
}

TEST(EncoderTest, GradientsReachAllParameters) {
  Rng init_rng(6);
  TransformerEncoder enc(SmallConfig(), init_rng);
  Rng r(2);
  Tensor y = enc.Forward({1, 2, 3, 4, 5, 6}, {0, 0, 0, 1, 1, 1}, r,
                         /*training=*/true);
  Mean(Mul(y, y)).Backward();
  for (auto& p : enc.Parameters()) {
    float sum = 0;
    for (float g : p.tensor.grad()) sum += std::abs(g);
    EXPECT_GT(sum, 0.0f) << "no gradient reached " << p.name;
  }
}

TEST(EncoderTest, SegmentIdsChangeTheEncoding) {
  Rng init_rng(12);
  TransformerEncoder enc(SmallConfig(), init_rng);
  Rng r(1);
  Tensor plain = enc.Forward({5, 6, 7}, r, false);
  Tensor seg0 = enc.Forward({5, 6, 7}, {0, 0, 0}, r, false);
  Tensor seg1 = enc.Forward({5, 6, 7}, {0, 1, 1}, r, false);
  // Empty segments != all-zero segments is allowed to differ only via the
  // segment-0 embedding; different segment assignments must differ.
  float diff = 0;
  for (size_t i = 0; i < seg0.data().size(); ++i) {
    diff += std::abs(seg0.data()[i] - seg1.data()[i]);
  }
  EXPECT_GT(diff, 1e-4f);
  (void)plain;
}

TEST(EncoderTest, DropoutOnlyActiveInTraining) {
  EncoderConfig cfg = SmallConfig();
  cfg.dropout = 0.5f;
  Rng init_rng(7);
  TransformerEncoder enc(cfg, init_rng);
  Rng r1(3);
  Rng r2(4);
  Tensor e1 = enc.Forward({1, 2, 3}, r1, /*training=*/false);
  Tensor e2 = enc.Forward({1, 2, 3}, r2, /*training=*/false);
  for (size_t i = 0; i < e1.data().size(); ++i) {
    EXPECT_EQ(e1.data()[i], e2.data()[i]);
  }
  Rng r3(5);
  Rng r4(6);
  Tensor t1 = enc.Forward({1, 2, 3}, r3, /*training=*/true);
  Tensor t2 = enc.Forward({1, 2, 3}, r4, /*training=*/true);
  float diff = 0;
  for (size_t i = 0; i < t1.data().size(); ++i) {
    diff += std::abs(t1.data()[i] - t2.data()[i]);
  }
  EXPECT_GT(diff, 0.0f);
}

TEST(EncoderTest, TruncatesOverlongSequenceInsteadOfAborting) {
  Rng init_rng(8);
  EncoderConfig cfg = SmallConfig();
  cfg.max_seq_len = 4;
  TransformerEncoder enc(cfg, init_rng);
  auto& truncated =
      obs::MetricsRegistry::Global().GetCounter("encode.truncated");
  int64_t before = truncated.value();

  Rng r(1);
  Tensor full = enc.Forward({1, 2, 3, 4, 5}, r, false);
  EXPECT_EQ(full.rows(), 4);
  EXPECT_EQ(truncated.value(), before + 1);

  // The truncated forward matches encoding the clipped prefix directly.
  Rng r2(1);
  Tensor prefix = enc.Forward({1, 2, 3, 4}, r2, false);
  ASSERT_EQ(full.numel(), prefix.numel());
  for (int64_t i = 0; i < full.numel(); ++i) {
    EXPECT_EQ(full.data()[static_cast<size_t>(i)],
              prefix.data()[static_cast<size_t>(i)]);
  }
}

// ----- NoGradGuard over the encoder -----

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

TEST(EncoderNoGradTest, ForwardIsBitIdenticalUnderGuard) {
  Rng init_rng(21);
  TransformerEncoder enc(SmallConfig(), init_rng);
  const std::vector<int> tokens = {3, 1, 4, 1, 5, 9, 2, 6};
  const std::vector<int> segments = {0, 0, 1, 1, 1, 2, 2, 2};
  Rng r1(1);
  Tensor taped = enc.Forward(tokens, segments, r1, /*training=*/false);
  ASSERT_TRUE(taped.requires_grad());
  NoGradGuard no_grad;
  Rng r2(1);
  Tensor free = enc.Forward(tokens, segments, r2, /*training=*/false);
  EXPECT_FALSE(free.requires_grad());
  EXPECT_TRUE(BitEqual(taped, free));
}

TEST(EncoderNoGradTest, ForwardBatchIsBitIdenticalUnderGuard) {
  Rng init_rng(22);
  TransformerEncoder enc(SmallConfig(), init_rng);
  const std::vector<int> a = {1, 2, 3, 4, 5, 6, 7};
  const std::vector<int> b = {8, 9};
  const std::vector<int> c = {10, 11, 12, 13};
  const std::vector<EncoderBatchItem> items = {{&a, nullptr},
                                               {&b, nullptr},
                                               {&c, nullptr}};
  Rng r1(1);
  std::vector<Tensor> taped = enc.ForwardBatch(items, r1, false);
  NoGradGuard no_grad;
  Rng r2(1);
  std::vector<Tensor> free = enc.ForwardBatch(items, r2, false);
  ASSERT_EQ(taped.size(), free.size());
  for (size_t i = 0; i < taped.size(); ++i) {
    EXPECT_TRUE(taped[i].requires_grad());
    EXPECT_FALSE(free[i].requires_grad());
    EXPECT_TRUE(BitEqual(taped[i], free[i])) << "item " << i;
  }
}

// One training step's parameter gradients, in Parameters() order.
std::vector<std::vector<float>> TrainStepGrads(const TransformerEncoder& enc) {
  for (auto& p : enc.Parameters()) p.tensor.ZeroGrad();
  Rng r(3);
  Tensor y = enc.Forward({1, 2, 3, 4, 5, 6}, {0, 0, 0, 1, 1, 1}, r,
                         /*training=*/true);
  Mean(Mul(y, y)).Backward();
  std::vector<std::vector<float>> grads;
  for (auto& p : enc.Parameters()) grads.push_back(p.tensor.grad());
  return grads;
}

TEST(EncoderNoGradTest, TrainingGradientsAreUnchangedByGuards) {
  EncoderConfig cfg = SmallConfig();
  cfg.dropout = 0.1f;
  Rng init_rng(23);
  TransformerEncoder enc(cfg, init_rng);
  const std::vector<std::vector<float>> before = TrainStepGrads(enc);
  {
    // A served forward in between, under the guard...
    NoGradGuard no_grad;
    Rng r(4);
    (void)enc.Forward({7, 8, 9}, r, /*training=*/false);
    // ...and a training step on another thread while it is held.
    std::vector<std::vector<float>> concurrent;
    std::thread fit([&] { concurrent = TrainStepGrads(enc); });
    fit.join();
    EXPECT_EQ(concurrent, before);
  }
  EXPECT_EQ(TrainStepGrads(enc), before);
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "kglink_ckpt_test.bin")
          .string();
  Rng rng(9);
  TransformerEncoder enc_a(SmallConfig(), rng);
  TransformerEncoder enc_b(SmallConfig(), rng);  // different init
  ASSERT_TRUE(SaveTensors(path, enc_a.Parameters()).ok());
  auto params_b = enc_b.Parameters();
  ASSERT_TRUE(LoadTensors(path, &params_b).ok());
  Rng r1(1);
  Rng r2(1);
  Tensor ya = enc_a.Forward({1, 2, 3}, r1, false);
  Tensor yb = enc_b.Forward({1, 2, 3}, r2, false);
  for (size_t i = 0; i < ya.data().size(); ++i) {
    EXPECT_EQ(ya.data()[i], yb.data()[i]);
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsShapeMismatch) {
  std::string path =
      (std::filesystem::temp_directory_path() / "kglink_ckpt_test2.bin")
          .string();
  Rng rng(10);
  TransformerEncoder small(SmallConfig(), rng);
  ASSERT_TRUE(SaveTensors(path, small.Parameters()).ok());
  EncoderConfig big = SmallConfig();
  big.dim = 32;
  big.ffn_dim = 48;
  TransformerEncoder other(big, rng);
  auto params = other.Parameters();
  EXPECT_FALSE(LoadTensors(path, &params).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsIoError) {
  Rng rng(11);
  TransformerEncoder enc(SmallConfig(), rng);
  auto params = enc.Parameters();
  Status s = LoadTensors("/nonexistent/kglink.bin", &params);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace kglink::nn
