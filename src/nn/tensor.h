// A small dense-tensor library with reverse-mode automatic differentiation.
//
// Design notes:
//  - Tensors are 1-D or 2-D float arrays. Sequences are processed one at a
//    time (no batch dimension); minibatching is gradient accumulation.
//  - Tensor is a cheap handle (shared_ptr to TensorImpl). Ops are free
//    functions that record a backward closure on the output node; calling
//    Backward() on a scalar runs the tape in reverse topological order.
//  - Gradients are accumulated (+=) so a node used twice gets the sum.
//  - Ops skip closure creation entirely when no input requires gradients.
//    Model parameters always require gradients, so a forward over them
//    records a tape unless a NoGradGuard is alive on the calling thread:
//    serving inference holds one (core::KgLinkAnnotator's eval paths), and
//    no forward whose gradients are used does.
#ifndef KGLINK_NN_TENSOR_H_
#define KGLINK_NN_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace kglink::nn {

struct TensorImpl {
  std::vector<int> shape;
  std::vector<float> data;
  std::vector<float> grad;  // same length as data once EnsureGrad() ran
  bool requires_grad = false;
  // Autograd edges. `backward` reads this node's grad and accumulates into
  // parents' grads. It captures parents by shared_ptr and this node by raw
  // pointer (the closure is owned by this node, so no cycle).
  std::vector<std::shared_ptr<TensorImpl>> parents;
  std::function<void()> backward;
  uint64_t seq = 0;  // creation order, used for deterministic topo sort

  int64_t numel() const {
    int64_t n = 1;
    for (int d : shape) n *= d;
    return n;
  }
  void EnsureGrad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

// Value-semantics handle to a tensor node.
class Tensor {
 public:
  Tensor() = default;  // null handle

  // ----- factories -----
  static Tensor Zeros(std::vector<int> shape, bool requires_grad = false);
  static Tensor Full(std::vector<int> shape, float value,
                     bool requires_grad = false);
  static Tensor FromData(std::vector<int> shape, std::vector<float> data,
                         bool requires_grad = false);
  static Tensor Scalar(float value, bool requires_grad = false);
  // Gaussian init with the given standard deviation.
  static Tensor Randn(std::vector<int> shape, float stddev, Rng& rng,
                      bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }
  const std::vector<int>& shape() const { return impl_->shape; }
  int dim(int i) const;
  // Total element count.
  int64_t numel() const { return impl_->numel(); }
  // Number of rows/cols treating 1-D tensors as a single row.
  int rows() const;
  int cols() const;

  std::vector<float>& data() { return impl_->data; }
  const std::vector<float>& data() const { return impl_->data; }
  std::vector<float>& grad() {
    impl_->EnsureGrad();
    return impl_->grad;
  }
  bool requires_grad() const { return impl_->requires_grad; }
  void set_requires_grad(bool v) { impl_->requires_grad = v; }

  // Value of a one-element tensor.
  float item() const;

  // Runs reverse-mode autodiff from this scalar node. Seeds d(this)=1.
  void Backward() const;

  // Zeroes this node's gradient buffer (optimizer step helper).
  void ZeroGrad() {
    if (impl_->grad.size() == impl_->data.size()) {
      std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
    }
  }

  std::shared_ptr<TensorImpl> impl() const { return impl_; }
  std::string ShapeString() const;

  explicit Tensor(std::shared_ptr<TensorImpl> impl)
      : impl_(std::move(impl)) {}

 private:
  std::shared_ptr<TensorImpl> impl_;
};

// RAII no-grad scope over a thread-local flag. While one is alive on this
// thread, op outputs never require gradients, so no op records parents or
// a backward closure, and ops keep no buffer that only backward reads.
// Outputs are bit-identical to the same ops run with the tape. Nested
// guards restore the enclosing value on exit; other threads (a concurrent
// training loop) are unaffected.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

// ----- elementwise & linear algebra -----

// C[m,n] = A[m,k] * B[k,n].
Tensor MatMul(const Tensor& a, const Tensor& b);
// Elementwise sum; b may also be a row vector broadcast over a's rows.
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
// Elementwise (Hadamard) product, same shapes.
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Scale(const Tensor& a, float s);
Tensor AddScalar(const Tensor& a, float s);
Tensor Transpose(const Tensor& a);

// ----- nonlinearities -----
Tensor Exp(const Tensor& a);
Tensor Relu(const Tensor& a);
// Tanh-approximation GELU, 0.5x(1 + tanh(u)) with u = sqrt(2/pi)(x +
// 0.044715x^3), evaluated in the equal sigmoid form x * sigmoid(2u) through
// the polynomial exp the softmax uses (see kernels::GeluForward).
Tensor Gelu(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);

// Row-wise softmax over the last dimension.
Tensor Softmax(const Tensor& a);
// Row-wise log-softmax over the last dimension (numerically stable).
Tensor LogSoftmax(const Tensor& a);

// Row-wise layer normalization followed by per-column affine (gamma, beta
// are length-cols vectors).
Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps = 1e-5f);

// Inverted dropout. Identity when !training or p == 0.
Tensor Dropout(const Tensor& x, float p, Rng& rng, bool training);

// ----- shape & indexing -----

// Gathers rows of `table` ([V,d]) by ids -> [ids.size(), d]. Backward
// scatter-adds into the table rows.
Tensor EmbeddingLookup(const Tensor& table, const std::vector<int>& ids);
// Pointer/count core of the lookup above — lets callers reuse a cached id
// buffer (e.g. the encoder's position ids) without building a vector.
Tensor EmbeddingLookup(const Tensor& table, const int* ids, int count);
// Gathers rows of x by index -> [idx.size(), cols].
Tensor Rows(const Tensor& x, const std::vector<int>& idx);
// Contiguous column slice [start, start+len).
Tensor SliceCols(const Tensor& x, int start, int len);
// Horizontal concatenation of same-row-count tensors.
Tensor ConcatCols(const std::vector<Tensor>& parts);
// Vertical concatenation of same-col-count tensors.
Tensor ConcatRows(const std::vector<Tensor>& parts);
// Mean over all elements -> scalar.
Tensor Mean(const Tensor& x);
// Sum over all elements -> scalar.
Tensor Sum(const Tensor& x);
// Mean over rows -> [1, cols] row vector.
Tensor MeanRows(const Tensor& x);
// Stops gradient flow: output shares values, has no parents.
Tensor Detach(const Tensor& x);
// View with a new shape (same numel); shares no storage (copies).
Tensor Reshape(const Tensor& x, std::vector<int> shape);

// ----- fused attention -----

// Multi-head scaled-dot-product attention over a batch of padded
// sequences, fused into one op. q/k/v are [batch * pad_len, dim] with each
// sequence occupying rows [b*pad_len, b*pad_len + seq_lens[b]); dim splits
// into num_heads equal head slices. Masking is structural: only the valid
// prefix of each sequence is packed into the per-head score matrix, so the
// softmax normalizes over exactly the unpadded positions and padded query
// rows come back as zeros (their gradient contribution is likewise
// dropped). For every valid row the output — and, via a kernel-for-kernel
// replay, the backward — is bit-identical to the composed
// SliceCols/MatMul/Scale/Softmax/MatMul/ConcatCols pipeline it replaces.
Tensor MaskedAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                       int num_heads, float scale,
                       const std::vector<int>& seq_lens, int pad_len);

// ----- kernels behind the ops, exposed for their parity tests -----

namespace kernels {

// y[i] = gelu(x[i]). With e = exp(-2|u|) <= 1 from the polynomial exp,
// gelu(x) = x / (1 + e) for u >= 0 and x * e / (1 + e) for u < 0, which
// avoids the cancellation in 1 + tanh(u) for negative u. On [-12, 12] it
// is within 7e-7 absolute of a double-precision evaluation of the same
// formula, and GeluBackward within 3e-7 (tests/tensor_test.cc pins both;
// measured 5.2e-7 and 1.8e-7, against 4.3e-7 and 5.6e-7 for std::tanh).
// Where AVX2 is compiled in, full 8-lane blocks evaluate the scalar
// operation sequence lane by lane and the tail runs scalar, so every
// element is bit-identical to a one-element call.
void GeluForward(const float* x, float* y, size_t n);
// gx[i] += gy[i] * gelu'(x[i]), where gelu'(x) = s + 2x s (1 - s) C (1 +
// 3 A x^2) with s = sigmoid(2u); s and 1 - s both come straight from e.
void GeluBackward(const float* x, const float* gy, float* gx, size_t n);

}  // namespace kernels

// ----- losses (scalar outputs) -----

// Mean cross-entropy of row-wise softmax(logits) against integer labels.
// logits: [n, C]; labels.size() == n.
Tensor CrossEntropy(const Tensor& logits, const std::vector<int>& labels);
// Soft-target cross-entropy: -(1/n) sum_rows targets . log_softmax(logits).
// `targets` rows must be probability distributions; gradients do not flow
// into targets (detach them at the call site for distillation).
Tensor SoftCrossEntropy(const Tensor& logits, const Tensor& targets);
// Mean squared error between same-shaped tensors.
Tensor MseLoss(const Tensor& a, const Tensor& b);
// Cosine similarity between two equal-length vectors -> scalar in [-1,1].
Tensor CosineSimilarity(const Tensor& a, const Tensor& b, float eps = 1e-8f);

}  // namespace kglink::nn

#endif  // KGLINK_NN_TENSOR_H_
