#include "nn/layers.h"

#include <cmath>
#include <numeric>

#include "obs/metrics.h"
#include "obs/scope.h"

namespace kglink::nn {

namespace {

// He/Glorot-style fan-in scaled init.
float InitStd(int fan_in) { return 1.0f / std::sqrt(static_cast<float>(fan_in)); }

// Clamps a sequence length to the encoder capacity, counting truncations.
// Over-length input degrades (the tail is dropped) instead of aborting —
// the serving path must survive any caller-supplied sequence.
int TruncatedLen(size_t len, int max_len) {
  if (static_cast<int>(len) <= max_len) return static_cast<int>(len);
  static obs::Counter& truncated =
      obs::MetricsRegistry::Global().GetCounter("encode.truncated");
  truncated.Add();
  return max_len;
}

}  // namespace

// ----- Linear -----

Linear::Linear(int in_dim, int out_dim, Rng& rng, std::string name)
    : name_(std::move(name)),
      w_(Tensor::Randn({in_dim, out_dim}, InitStd(in_dim), rng,
                       /*requires_grad=*/true)),
      b_(Tensor::Zeros({1, out_dim}, /*requires_grad=*/true)) {}

Tensor Linear::Forward(const Tensor& x) const {
  return Add(MatMul(x, w_), b_);
}

void Linear::CollectParams(std::vector<NamedParam>* out) const {
  out->push_back({name_ + ".w", w_});
  out->push_back({name_ + ".b", b_});
}

// ----- LayerNormLayer -----

LayerNormLayer::LayerNormLayer(int dim, std::string name)
    : name_(std::move(name)),
      gamma_(Tensor::Full({1, dim}, 1.0f, /*requires_grad=*/true)),
      beta_(Tensor::Zeros({1, dim}, /*requires_grad=*/true)) {}

Tensor LayerNormLayer::Forward(const Tensor& x) const {
  KGLINK_SCOPE("layernorm");
  return LayerNorm(x, gamma_, beta_);
}

void LayerNormLayer::CollectParams(std::vector<NamedParam>* out) const {
  out->push_back({name_ + ".gamma", gamma_});
  out->push_back({name_ + ".beta", beta_});
}

// ----- MultiHeadAttention -----

MultiHeadAttention::MultiHeadAttention(int dim, int num_heads, Rng& rng,
                                       std::string name)
    : num_heads_(num_heads), head_dim_(dim / num_heads) {
  KGLINK_CHECK_EQ(head_dim_ * num_heads, dim)
      << "dim must be divisible by num_heads";
  q_ = Linear(dim, dim, rng, name + ".q");
  k_ = Linear(dim, dim, rng, name + ".k");
  v_ = Linear(dim, dim, rng, name + ".v");
  o_ = Linear(dim, dim, rng, name + ".o");
}

Tensor MultiHeadAttention::Forward(const Tensor& x) const {
  return ForwardPadded(x, {x.rows()}, x.rows());
}

Tensor MultiHeadAttention::ForwardPadded(const Tensor& x,
                                         const std::vector<int>& seq_lens,
                                         int pad_len) const {
  KGLINK_SCOPE("attn");
  Tensor q, k, v;
  {
    KGLINK_SCOPE("attn.qkv");
    q = q_.Forward(x);
    k = k_.Forward(x);
    v = v_.Forward(x);
  }
  float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  Tensor ctx;
  {
    KGLINK_SCOPE("attn.scores");
    // One fused op instead of the per-head
    // SliceCols/MatMul/Scale/Softmax/MatMul/ConcatCols chain: same math,
    // bit-identical per valid row, ~10x fewer tape nodes.
    ctx = MaskedAttention(q, k, v, num_heads_, scale, seq_lens, pad_len);
  }
  KGLINK_SCOPE("attn.proj");
  return o_.Forward(ctx);
}

void MultiHeadAttention::CollectParams(std::vector<NamedParam>* out) const {
  q_.CollectParams(out);
  k_.CollectParams(out);
  v_.CollectParams(out);
  o_.CollectParams(out);
}

// ----- TransformerLayer -----

TransformerLayer::TransformerLayer(int dim, int num_heads, int ffn_dim,
                                   float dropout, Rng& rng, std::string name)
    : dropout_(dropout),
      profile_name_(obs::InternFrameName(name)),
      attn_(dim, num_heads, rng, name + ".attn"),
      ln1_(dim, name + ".ln1"),
      ln2_(dim, name + ".ln2"),
      ff1_(dim, ffn_dim, rng, name + ".ff1"),
      ff2_(ffn_dim, dim, rng, name + ".ff2") {}

Tensor TransformerLayer::Forward(const Tensor& x, Rng& rng,
                                 bool training) const {
  return ForwardPadded(x, {x.rows()}, x.rows(), rng, training);
}

Tensor TransformerLayer::ForwardPadded(const Tensor& x,
                                       const std::vector<int>& seq_lens,
                                       int pad_len, Rng& rng,
                                       bool training) const {
  KGLINK_SCOPE(profile_name_);
  Tensor a = attn_.ForwardPadded(ln1_.Forward(x), seq_lens, pad_len);
  Tensor h = Add(x, Dropout(a, dropout_, rng, training));
  Tensor f;
  {
    KGLINK_SCOPE("ffn");
    f = ff1_.Forward(ln2_.Forward(h));
    {
      KGLINK_SCOPE("ffn.gelu");
      f = Gelu(f);
    }
    f = ff2_.Forward(f);
  }
  return Add(h, Dropout(f, dropout_, rng, training));
}

void TransformerLayer::CollectParams(std::vector<NamedParam>* out) const {
  attn_.CollectParams(out);
  ln1_.CollectParams(out);
  ln2_.CollectParams(out);
  ff1_.CollectParams(out);
  ff2_.CollectParams(out);
}

// ----- TransformerEncoder -----

TransformerEncoder::TransformerEncoder(const EncoderConfig& config, Rng& rng)
    : config_(config),
      tok_emb_(Tensor::Randn({config.vocab_size, config.dim}, 0.02f, rng,
                             /*requires_grad=*/true)),
      pos_emb_(Tensor::Randn({config.max_seq_len, config.dim}, 0.02f, rng,
                             /*requires_grad=*/true)),
      seg_emb_(Tensor::Randn({config.max_segments, config.dim}, 0.02f, rng,
                             /*requires_grad=*/true)),
      emb_ln_(config.dim, "enc.emb_ln"),
      final_ln_(config.dim, "enc.final_ln") {
  KGLINK_CHECK_GT(config.vocab_size, 0) << "vocab_size must be set";
  pos_ids_.resize(config.max_seq_len);
  std::iota(pos_ids_.begin(), pos_ids_.end(), 0);
  layers_.reserve(config.num_layers);
  for (int i = 0; i < config.num_layers; ++i) {
    layers_.emplace_back(config.dim, config.num_heads, config.ffn_dim,
                         config.dropout, rng,
                         "enc.layer" + std::to_string(i));
  }
}

Tensor TransformerEncoder::Forward(const std::vector<int>& token_ids,
                                   Rng& rng, bool training) const {
  return Forward(token_ids, {}, rng, training);
}

Tensor TransformerEncoder::Forward(const std::vector<int>& token_ids,
                                   const std::vector<int>& segment_ids,
                                   Rng& rng, bool training) const {
  KGLINK_CHECK(!token_ids.empty());
  const int len = TruncatedLen(token_ids.size(), config_.max_seq_len);
  KGLINK_SCOPE("encoder.forward");
  Tensor h;
  {
    KGLINK_SCOPE("encoder.embedding");
    h = Add(EmbeddingLookup(tok_emb_, token_ids.data(), len),
            EmbeddingLookup(pos_emb_, pos_ids_.data(), len));
    if (!segment_ids.empty()) {
      KGLINK_CHECK_EQ(segment_ids.size(), token_ids.size());
      h = Add(h, EmbeddingLookup(seg_emb_, segment_ids.data(), len));
    }
    h = emb_ln_.Forward(h);
    h = Dropout(h, config_.dropout, rng, training);
  }
  for (const auto& layer : layers_) h = layer.Forward(h, rng, training);
  return final_ln_.Forward(h);
}

std::vector<Tensor> TransformerEncoder::ForwardBatch(
    const std::vector<EncoderBatchItem>& items, Rng& rng,
    bool training) const {
  KGLINK_CHECK(!items.empty());
  const int n = static_cast<int>(items.size());
  const bool has_segments =
      items[0].segment_ids != nullptr && !items[0].segment_ids->empty();
  std::vector<int> lens(n);
  int pad_len = 0;
  for (int i = 0; i < n; ++i) {
    KGLINK_CHECK(items[i].token_ids != nullptr && !items[i].token_ids->empty())
        << "ForwardBatch item " << i << " has no tokens";
    const bool item_has_segments = items[i].segment_ids != nullptr &&
                                   !items[i].segment_ids->empty();
    KGLINK_CHECK_EQ(item_has_segments, has_segments)
        << "ForwardBatch items must agree on segment presence";
    if (item_has_segments) {
      KGLINK_CHECK_EQ(items[i].segment_ids->size(),
                      items[i].token_ids->size());
    }
    lens[i] = TruncatedLen(items[i].token_ids->size(), config_.max_seq_len);
    pad_len = std::max(pad_len, lens[i]);
  }

  // Flat [n * pad_len] id planes. Pad slots use token/segment id 0 and the
  // in-row position id — any valid ids work, because masking guarantees no
  // valid output row ever reads a padded row's activations.
  const size_t total = static_cast<size_t>(n) * pad_len;
  std::vector<int> tok(total, 0);
  std::vector<int> pos(total);
  std::vector<int> seg;
  if (has_segments) seg.assign(total, 0);
  for (int i = 0; i < n; ++i) {
    const size_t base = static_cast<size_t>(i) * pad_len;
    std::copy_n(items[i].token_ids->data(), lens[i], tok.data() + base);
    std::copy_n(pos_ids_.data(), pad_len, pos.data() + base);
    if (has_segments) {
      std::copy_n(items[i].segment_ids->data(), lens[i], seg.data() + base);
    }
  }

  KGLINK_SCOPE("encoder.forward_batch");
  Tensor h;
  {
    KGLINK_SCOPE("encoder.embedding");
    h = Add(EmbeddingLookup(tok_emb_, tok.data(), static_cast<int>(total)),
            EmbeddingLookup(pos_emb_, pos.data(), static_cast<int>(total)));
    if (has_segments) {
      h = Add(h, EmbeddingLookup(seg_emb_, seg.data(),
                                 static_cast<int>(total)));
    }
    h = emb_ln_.Forward(h);
    h = Dropout(h, config_.dropout, rng, training);
  }
  for (const auto& layer : layers_) {
    h = layer.ForwardPadded(h, lens, pad_len, rng, training);
  }
  h = final_ln_.Forward(h);

  // Masked extraction: output i carries only its valid rows, so callers
  // index it exactly like a sequential Forward result.
  std::vector<Tensor> out;
  out.reserve(n);
  std::vector<int> idx;
  for (int i = 0; i < n; ++i) {
    idx.resize(lens[i]);
    std::iota(idx.begin(), idx.end(), i * pad_len);
    out.push_back(Rows(h, idx));
  }
  return out;
}

std::vector<NamedParam> TransformerEncoder::Parameters() const {
  std::vector<NamedParam> out;
  out.push_back({"enc.tok_emb", tok_emb_});
  out.push_back({"enc.pos_emb", pos_emb_});
  out.push_back({"enc.seg_emb", seg_emb_});
  emb_ln_.CollectParams(&out);
  for (const auto& layer : layers_) layer.CollectParams(&out);
  final_ln_.CollectParams(&out);
  return out;
}

}  // namespace kglink::nn
