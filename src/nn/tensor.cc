#include "nn/tensor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <unordered_set>

#include "nn/gemm.h"
#include "obs/scope.h"

#if defined(__AVX2__)
#include <immintrin.h>
#define KGLINK_TENSOR_AVX2 1
#endif

namespace kglink::nn {

namespace {

std::atomic<uint64_t> g_seq{0};

// Set while a NoGradGuard is alive on this thread.
thread_local bool t_no_grad = false;

// Whether an op over `parents` records a tape: some parent requires grad
// and no NoGradGuard is alive on this thread. Ops that keep buffers only
// their backward reads ask this before allocating them.
bool NeedsGrad(std::initializer_list<Tensor> parents) {
  if (t_no_grad) return false;
  for (const Tensor& p : parents) {
    if (p.requires_grad()) return true;
  }
  return false;
}

std::shared_ptr<TensorImpl> NewImpl(std::vector<int> shape,
                                    std::vector<float> data) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  impl->seq = g_seq.fetch_add(1, std::memory_order_relaxed);
  KGLINK_CHECK_EQ(static_cast<int64_t>(impl->data.size()), impl->numel());
  return impl;
}

// Creates the output node of an op; it requires grad, and links its
// parents, exactly when NeedsGrad(parents).
std::shared_ptr<TensorImpl> NewOutput(
    std::vector<int> shape, std::vector<float> data,
    std::initializer_list<Tensor> parents) {
  auto impl = NewImpl(std::move(shape), std::move(data));
  if (NeedsGrad(parents)) {
    impl->requires_grad = true;
    for (const Tensor& p : parents) impl->parents.push_back(p.impl());
  }
  return impl;
}

// (rows, cols) of a 1-D-as-row-vector or 2-D tensor.
std::pair<int, int> RowsCols(const Tensor& t) {
  const auto& s = t.shape();
  KGLINK_CHECK(s.size() == 1 || s.size() == 2)
      << "expected 1-D or 2-D tensor, got " << t.ShapeString();
  if (s.size() == 1) return {1, s[0]};
  return {s[0], s[1]};
}

// The GEMM kernels (gemm::GemmAcc and friends) used to live here as the
// scalar triple loops; they moved to nn/reference_gemm.cc (ground truth)
// and nn/gemm.cc (blocked/vectorized dispatch) with the same accumulate
// semantics: c += a*b, never c = a*b.

// Numerically-stable row-wise log-softmax into `out`. Safe in place
// (out == x): each row is fully reduced before it is rewritten.
void RowLogSoftmax(const float* x, float* out, int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    const float* xr = x + static_cast<size_t>(i) * cols;
    float* yr = out + static_cast<size_t>(i) * cols;
    float mx = xr[0];
    for (int j = 1; j < cols; ++j) mx = std::max(mx, xr[j]);
    float sum = 0.0f;
    for (int j = 0; j < cols; ++j) sum += std::exp(xr[j] - mx);
    float lse = mx + std::log(sum);
    for (int j = 0; j < cols; ++j) yr[j] = xr[j] - lse;
  }
}

// ----- fast row softmax (probabilities, not log) -----
//
// The attention hot loop spends most of its time in transcendentals: the
// log-softmax-then-exp formulation costs two exps and a log per score.
// RowSoftmaxScaled computes probabilities directly — one polynomial exp
// per element — and is the single softmax kernel behind both the Softmax
// op and the fused MaskedAttention, so fused-vs-composed stays bit-equal.
//
// FastExp is a Cephes-style degree-5 polynomial (~1-2 ulp over the range
// softmax and GELU feed it: arguments are always <= 0, after the row-max
// subtract or as -2|u|, and the low clamp keeps 2^z in normal-float
// territory). The scalar and
// AVX2 forms evaluate the identical operation sequence lane-wise, and
// this TU is pinned -ffp-contract=off, so neither form gains an FMA the
// other lacks — one build's softmax is bit-deterministic regardless of
// which path a row takes.

constexpr float kExpLo = -87.33654f;    // exp(kExpLo) is the smallest normal
constexpr float kExpLog2e = 1.44269504088896341f;
constexpr float kExpC1 = 0.693359375f;  // ln2 split: high part...
constexpr float kExpC2 = -2.12194440e-4f;  // ...and correction term
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

inline float FastExp(float x) {
  // Clamp operand order as in _mm256_max_ps(x, lo): a NaN maps to kExpLo
  // in both forms instead of reaching the float-to-int cast below.
  x = std::max(kExpLo, x);
  float z = std::floor(kExpLog2e * x + 0.5f);
  x = x - z * kExpC1;
  x = x - z * kExpC2;
  float p = kExpP0;
  p = p * x + kExpP1;
  p = p * x + kExpP2;
  p = p * x + kExpP3;
  p = p * x + kExpP4;
  p = p * x + kExpP5;
  p = p * (x * x);
  p = p + x;
  p = p + 1.0f;
  // 2^z through the exponent field; z is in [-126, 0] for softmax inputs.
  const int32_t bits = (static_cast<int32_t>(z) + 127) << 23;
  float pow2z;
  std::memcpy(&pow2z, &bits, sizeof(pow2z));
  return p * pow2z;
}

#ifdef KGLINK_TENSOR_AVX2

// Lane-wise mirror of FastExp — same operation sequence, same constants.
inline __m256 FastExp8(__m256 x) {
  x = _mm256_max_ps(x, _mm256_set1_ps(kExpLo));
  __m256 z = _mm256_floor_ps(
      _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(kExpLog2e), x),
                    _mm256_set1_ps(0.5f)));
  x = _mm256_sub_ps(x, _mm256_mul_ps(z, _mm256_set1_ps(kExpC1)));
  x = _mm256_sub_ps(x, _mm256_mul_ps(z, _mm256_set1_ps(kExpC2)));
  __m256 p = _mm256_set1_ps(kExpP0);
  p = _mm256_add_ps(_mm256_mul_ps(p, x), _mm256_set1_ps(kExpP1));
  p = _mm256_add_ps(_mm256_mul_ps(p, x), _mm256_set1_ps(kExpP2));
  p = _mm256_add_ps(_mm256_mul_ps(p, x), _mm256_set1_ps(kExpP3));
  p = _mm256_add_ps(_mm256_mul_ps(p, x), _mm256_set1_ps(kExpP4));
  p = _mm256_add_ps(_mm256_mul_ps(p, x), _mm256_set1_ps(kExpP5));
  p = _mm256_mul_ps(p, _mm256_mul_ps(x, x));
  p = _mm256_add_ps(p, x);
  p = _mm256_add_ps(p, _mm256_set1_ps(1.0f));
  __m256i bits = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(z), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(bits));
}

inline float Max8(__m256 v) {
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  return _mm_cvtss_f32(m);
}

inline float Sum8(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

#endif  // KGLINK_TENSOR_AVX2

// out[i][j] = softmax(scale * x[i])[j]. Folding the scale costs nothing
// and matches the composed Scale-then-Softmax pipeline bit-for-bit: both
// perform the identical single multiply per element before the row max.
void RowSoftmaxScaled(const float* x, float* out, int rows, int cols,
                      float scale) {
  for (int i = 0; i < rows; ++i) {
    const float* xr = x + static_cast<size_t>(i) * cols;
    float* yr = out + static_cast<size_t>(i) * cols;
    float mx = -std::numeric_limits<float>::infinity();
    int j = 0;
#ifdef KGLINK_TENSOR_AVX2
    const __m256 vscale = _mm256_set1_ps(scale);
    __m256 vmax = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
    for (; j + 8 <= cols; j += 8) {
      __m256 v = _mm256_mul_ps(_mm256_loadu_ps(xr + j), vscale);
      _mm256_storeu_ps(yr + j, v);
      vmax = _mm256_max_ps(vmax, v);
    }
    if (j > 0) mx = Max8(vmax);
#endif
    for (; j < cols; ++j) {
      float v = xr[j] * scale;
      yr[j] = v;
      mx = std::max(mx, v);
    }
    float sum = 0.0f;
    j = 0;
#ifdef KGLINK_TENSOR_AVX2
    const __m256 vmx = _mm256_set1_ps(mx);
    __m256 vsum = _mm256_setzero_ps();
    for (; j + 8 <= cols; j += 8) {
      __m256 e = FastExp8(_mm256_sub_ps(_mm256_loadu_ps(yr + j), vmx));
      _mm256_storeu_ps(yr + j, e);
      vsum = _mm256_add_ps(vsum, e);
    }
    if (j > 0) sum = Sum8(vsum);
#endif
    for (; j < cols; ++j) {
      float e = FastExp(yr[j] - mx);
      yr[j] = e;
      sum += e;
    }
    const float inv = 1.0f / sum;
    j = 0;
#ifdef KGLINK_TENSOR_AVX2
    const __m256 vinv = _mm256_set1_ps(inv);
    for (; j + 8 <= cols; j += 8) {
      _mm256_storeu_ps(yr + j, _mm256_mul_ps(_mm256_loadu_ps(yr + j), vinv));
    }
#endif
    for (; j < cols; ++j) yr[j] *= inv;
  }
}

}  // namespace

// ----- NoGradGuard -----

NoGradGuard::NoGradGuard() : prev_(t_no_grad) { t_no_grad = true; }

NoGradGuard::~NoGradGuard() { t_no_grad = prev_; }


// ----- Tensor -----

Tensor Tensor::Zeros(std::vector<int> shape, bool requires_grad) {
  int64_t n = 1;
  for (int d : shape) n *= d;
  auto impl = NewImpl(std::move(shape), std::vector<float>(n, 0.0f));
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::Full(std::vector<int> shape, float value, bool requires_grad) {
  int64_t n = 1;
  for (int d : shape) n *= d;
  auto impl = NewImpl(std::move(shape), std::vector<float>(n, value));
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::FromData(std::vector<int> shape, std::vector<float> data,
                        bool requires_grad) {
  auto impl = NewImpl(std::move(shape), std::move(data));
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromData({1}, {value}, requires_grad);
}

Tensor Tensor::Randn(std::vector<int> shape, float stddev, Rng& rng,
                     bool requires_grad) {
  int64_t n = 1;
  for (int d : shape) n *= d;
  std::vector<float> data(n);
  for (auto& v : data) v = stddev * static_cast<float>(rng.Gaussian());
  return FromData(std::move(shape), std::move(data), requires_grad);
}

int Tensor::dim(int i) const {
  KGLINK_CHECK(i >= 0 && i < static_cast<int>(impl_->shape.size()));
  return impl_->shape[i];
}

int Tensor::rows() const { return RowsCols(*this).first; }
int Tensor::cols() const { return RowsCols(*this).second; }

float Tensor::item() const {
  KGLINK_CHECK_EQ(numel(), 1);
  return impl_->data[0];
}

std::string Tensor::ShapeString() const {
  std::string s = "[";
  for (size_t i = 0; i < impl_->shape.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(impl_->shape[i]);
  }
  return s + "]";
}

void Tensor::Backward() const {
  KGLINK_SCOPE("backward");
  KGLINK_CHECK(defined());
  KGLINK_CHECK_EQ(numel(), 1) << "Backward() requires a scalar root";
  KGLINK_CHECK(requires_grad());

  // Iterative DFS post-order: leaves first, root last.
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<TensorImpl*, size_t>> stack;
  stack.emplace_back(impl_.get(), 0);
  visited.insert(impl_.get());
  while (!stack.empty()) {
    auto& [node, child] = stack.back();
    if (child < node->parents.size()) {
      TensorImpl* p = node->parents[child++].get();
      if (p->requires_grad && !visited.count(p)) {
        visited.insert(p);
        stack.emplace_back(p, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  impl_->EnsureGrad();
  impl_->grad[0] = 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->backward) (*it)->backward();
  }
}

// ----- linear algebra -----

Tensor MatMul(const Tensor& a, const Tensor& b) {
  auto [m, k] = RowsCols(a);
  auto [k2, n] = RowsCols(b);
  KGLINK_CHECK_EQ(k, k2) << "MatMul shape mismatch " << a.ShapeString()
                         << " x " << b.ShapeString();
  auto out = NewOutput({m, n}, std::vector<float>(int64_t{1} * m * n, 0.0f),
                       {a, b});
  gemm::GemmAcc(a.data().data(), b.data().data(), out->data.data(), m, k, n);
  if (out->requires_grad) {
    auto ai = a.impl();
    auto bi = b.impl();
    TensorImpl* o = out.get();
    out->backward = [ai, bi, o, m, k, n] {
      if (ai->requires_grad) {
        ai->EnsureGrad();
        gemm::GemmAccBt(o->grad.data(), bi->data.data(), ai->grad.data(), m,
                        k, n);
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        gemm::GemmAccAt(ai->data.data(), o->grad.data(), bi->grad.data(), m,
                        k, n);
      }
    };
  }
  return Tensor(std::move(out));
}

Tensor Add(const Tensor& a, const Tensor& b) {
  auto [m, n] = RowsCols(a);
  auto [bm, bn] = RowsCols(b);
  KGLINK_CHECK_EQ(n, bn) << "Add width mismatch";
  bool broadcast = (bm == 1 && m != 1);
  KGLINK_CHECK(broadcast || bm == m) << "Add shape mismatch";
  std::vector<float> data(a.data());
  const float* bd = b.data().data();
  for (int i = 0; i < m; ++i) {
    const float* brow = broadcast ? bd : bd + static_cast<size_t>(i) * n;
    float* row = data.data() + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) row[j] += brow[j];
  }
  auto out = NewOutput(a.shape(), std::move(data), {a, b});
  if (out->requires_grad) {
    auto ai = a.impl();
    auto bi = b.impl();
    TensorImpl* o = out.get();
    out->backward = [ai, bi, o, m, n, broadcast] {
      if (ai->requires_grad) {
        ai->EnsureGrad();
        for (size_t i = 0; i < o->grad.size(); ++i) ai->grad[i] += o->grad[i];
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        if (broadcast) {
          for (int i = 0; i < m; ++i) {
            const float* gr = o->grad.data() + static_cast<size_t>(i) * n;
            for (int j = 0; j < n; ++j) bi->grad[j] += gr[j];
          }
        } else {
          for (size_t i = 0; i < o->grad.size(); ++i) {
            bi->grad[i] += o->grad[i];
          }
        }
      }
    };
  }
  return Tensor(std::move(out));
}

Tensor Sub(const Tensor& a, const Tensor& b) { return Add(a, Scale(b, -1)); }

Tensor Mul(const Tensor& a, const Tensor& b) {
  KGLINK_CHECK(a.shape() == b.shape()) << "Mul shape mismatch";
  std::vector<float> data(a.data());
  for (size_t i = 0; i < data.size(); ++i) data[i] *= b.data()[i];
  auto out = NewOutput(a.shape(), std::move(data), {a, b});
  if (out->requires_grad) {
    auto ai = a.impl();
    auto bi = b.impl();
    TensorImpl* o = out.get();
    out->backward = [ai, bi, o] {
      if (ai->requires_grad) {
        ai->EnsureGrad();
        for (size_t i = 0; i < o->grad.size(); ++i) {
          ai->grad[i] += o->grad[i] * bi->data[i];
        }
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        for (size_t i = 0; i < o->grad.size(); ++i) {
          bi->grad[i] += o->grad[i] * ai->data[i];
        }
      }
    };
  }
  return Tensor(std::move(out));
}

Tensor Scale(const Tensor& a, float s) {
  std::vector<float> data(a.data());
  for (auto& v : data) v *= s;
  auto out = NewOutput(a.shape(), std::move(data), {a});
  if (out->requires_grad) {
    auto ai = a.impl();
    TensorImpl* o = out.get();
    out->backward = [ai, o, s] {
      ai->EnsureGrad();
      for (size_t i = 0; i < o->grad.size(); ++i) {
        ai->grad[i] += s * o->grad[i];
      }
    };
  }
  return Tensor(std::move(out));
}

Tensor AddScalar(const Tensor& a, float s) {
  std::vector<float> data(a.data());
  for (auto& v : data) v += s;
  auto out = NewOutput(a.shape(), std::move(data), {a});
  if (out->requires_grad) {
    auto ai = a.impl();
    TensorImpl* o = out.get();
    out->backward = [ai, o] {
      ai->EnsureGrad();
      for (size_t i = 0; i < o->grad.size(); ++i) ai->grad[i] += o->grad[i];
    };
  }
  return Tensor(std::move(out));
}

Tensor Transpose(const Tensor& a) {
  auto [m, n] = RowsCols(a);
  std::vector<float> data(static_cast<size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      data[static_cast<size_t>(j) * m + i] =
          a.data()[static_cast<size_t>(i) * n + j];
    }
  }
  auto out = NewOutput({n, m}, std::move(data), {a});
  if (out->requires_grad) {
    auto ai = a.impl();
    TensorImpl* o = out.get();
    out->backward = [ai, o, m, n] {
      ai->EnsureGrad();
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          ai->grad[static_cast<size_t>(i) * n + j] +=
              o->grad[static_cast<size_t>(j) * m + i];
        }
      }
    };
  }
  return Tensor(std::move(out));
}

// ----- nonlinearities -----

namespace {

// Generic unary op with derivative expressed from input value.
template <typename F, typename DF>
Tensor UnaryOp(const Tensor& a, F f, DF df) {
  std::vector<float> data(a.data().size());
  for (size_t i = 0; i < data.size(); ++i) data[i] = f(a.data()[i]);
  auto out = NewOutput(a.shape(), std::move(data), {a});
  if (out->requires_grad) {
    auto ai = a.impl();
    TensorImpl* o = out.get();
    out->backward = [ai, o, df] {
      ai->EnsureGrad();
      for (size_t i = 0; i < o->grad.size(); ++i) {
        ai->grad[i] += o->grad[i] * df(ai->data[i], o->data[i]);
      }
    };
  }
  return Tensor(std::move(out));
}

}  // namespace

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x > 0 ? x : 0.0f; },
      [](float x, float) { return x > 0 ? 1.0f : 0.0f; });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

// ----- GELU -----
//
// gelu(x) = 0.5x(1 + tanh(u)) = x * sigmoid(2u), u = kC(x + kA x^3). With
// e = FastExp(-2|u|) in (0, 1] (inside FastExp's non-positive domain):
//   sigmoid(2u) = 1/(1+e), 1 - sigmoid(2u) = e/(1+e)   for u >= 0,
//   sigmoid(2u) = e/(1+e), 1 - sigmoid(2u) = 1/(1+e)   for u < 0.
// The AVX2 forms below replay the scalar operation sequence lane by lane;
// with this TU at -ffp-contract=off and div/max/abs/blend all exact, the
// two paths are bit-identical.

namespace {

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;
constexpr float kGelu3A = 3.0f * kGeluA;

inline float GeluU(float x) { return kGeluC * (x + kGeluA * x * x * x); }

inline float GeluOne(float x) {
  const float u = GeluU(x);
  const float e = FastExp(-2.0f * std::fabs(u));
  return (u >= 0.0f ? x : x * e) / (1.0f + e);
}

inline float GeluGradOne(float x) {
  const float u = GeluU(x);
  const float e = FastExp(-2.0f * std::fabs(u));
  const float d = 1.0f + e;
  const float s = (u >= 0.0f ? 1.0f : e) / d;
  const float t = (u >= 0.0f ? e : 1.0f) / d;  // 1 - s
  return s + 2.0f * x * s * t * kGeluC * (1.0f + kGelu3A * x * x);
}

#ifdef KGLINK_TENSOR_AVX2

// Lane-wise GeluU, exp term and u >= 0 mask.
inline void GeluParts8(__m256 x, __m256* e, __m256* pos) {
  __m256 u = _mm256_mul_ps(_mm256_set1_ps(kGeluA), x);
  u = _mm256_mul_ps(u, x);
  u = _mm256_mul_ps(u, x);
  u = _mm256_mul_ps(_mm256_set1_ps(kGeluC), _mm256_add_ps(x, u));
  const __m256 abs_u = _mm256_andnot_ps(_mm256_set1_ps(-0.0f), u);
  *e = FastExp8(_mm256_mul_ps(_mm256_set1_ps(-2.0f), abs_u));
  *pos = _mm256_cmp_ps(u, _mm256_setzero_ps(), _CMP_GE_OQ);
}

inline __m256 GeluOne8(__m256 x) {
  __m256 e, pos;
  GeluParts8(x, &e, &pos);
  const __m256 num = _mm256_blendv_ps(_mm256_mul_ps(x, e), x, pos);
  return _mm256_div_ps(num, _mm256_add_ps(_mm256_set1_ps(1.0f), e));
}

inline __m256 GeluGradOne8(__m256 x) {
  __m256 e, pos;
  GeluParts8(x, &e, &pos);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 d = _mm256_add_ps(one, e);
  const __m256 s = _mm256_div_ps(_mm256_blendv_ps(e, one, pos), d);
  const __m256 t = _mm256_div_ps(_mm256_blendv_ps(one, e, pos), d);
  __m256 g = _mm256_mul_ps(_mm256_set1_ps(2.0f), x);
  g = _mm256_mul_ps(g, s);
  g = _mm256_mul_ps(g, t);
  g = _mm256_mul_ps(g, _mm256_set1_ps(kGeluC));
  __m256 poly = _mm256_mul_ps(_mm256_set1_ps(kGelu3A), x);
  poly = _mm256_add_ps(one, _mm256_mul_ps(poly, x));
  return _mm256_add_ps(s, _mm256_mul_ps(g, poly));
}

#endif  // KGLINK_TENSOR_AVX2

}  // namespace

namespace kernels {

void GeluForward(const float* x, float* y, size_t n) {
  size_t i = 0;
#ifdef KGLINK_TENSOR_AVX2
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, GeluOne8(_mm256_loadu_ps(x + i)));
  }
#endif
  for (; i < n; ++i) y[i] = GeluOne(x[i]);
}

void GeluBackward(const float* x, const float* gy, float* gx, size_t n) {
  size_t i = 0;
#ifdef KGLINK_TENSOR_AVX2
  for (; i + 8 <= n; i += 8) {
    const __m256 g = _mm256_mul_ps(_mm256_loadu_ps(gy + i),
                                   GeluGradOne8(_mm256_loadu_ps(x + i)));
    _mm256_storeu_ps(gx + i, _mm256_add_ps(_mm256_loadu_ps(gx + i), g));
  }
#endif
  for (; i < n; ++i) gx[i] += gy[i] * GeluGradOne(x[i]);
}

}  // namespace kernels

Tensor Gelu(const Tensor& a) {
  std::vector<float> data(a.data().size());
  kernels::GeluForward(a.data().data(), data.data(), data.size());
  auto out = NewOutput(a.shape(), std::move(data), {a});
  if (out->requires_grad) {
    auto ai = a.impl();
    TensorImpl* o = out.get();
    out->backward = [ai, o] {
      ai->EnsureGrad();
      kernels::GeluBackward(ai->data.data(), o->grad.data(), ai->grad.data(),
                            o->grad.size());
    };
  }
  return Tensor(std::move(out));
}

Tensor Softmax(const Tensor& a) {
  auto [m, n] = RowsCols(a);
  std::vector<float> data(a.data().size());
  // scale = 1.0f is an exact identity multiply, so this is the same
  // kernel MaskedAttention runs with its folded score scale.
  RowSoftmaxScaled(a.data().data(), data.data(), m, n, 1.0f);
  auto out = NewOutput(a.shape(), std::move(data), {a});
  if (out->requires_grad) {
    auto ai = a.impl();
    TensorImpl* o = out.get();
    out->backward = [ai, o, m, n] {
      ai->EnsureGrad();
      for (int i = 0; i < m; ++i) {
        const float* y = o->data.data() + static_cast<size_t>(i) * n;
        const float* dy = o->grad.data() + static_cast<size_t>(i) * n;
        float* dx = ai->grad.data() + static_cast<size_t>(i) * n;
        float dot = 0.0f;
        for (int j = 0; j < n; ++j) dot += dy[j] * y[j];
        for (int j = 0; j < n; ++j) dx[j] += y[j] * (dy[j] - dot);
      }
    };
  }
  return Tensor(std::move(out));
}

Tensor LogSoftmax(const Tensor& a) {
  auto [m, n] = RowsCols(a);
  std::vector<float> data(a.data().size());
  RowLogSoftmax(a.data().data(), data.data(), m, n);
  auto out = NewOutput(a.shape(), std::move(data), {a});
  if (out->requires_grad) {
    auto ai = a.impl();
    TensorImpl* o = out.get();
    out->backward = [ai, o, m, n] {
      ai->EnsureGrad();
      for (int i = 0; i < m; ++i) {
        const float* ls = o->data.data() + static_cast<size_t>(i) * n;
        const float* dy = o->grad.data() + static_cast<size_t>(i) * n;
        float* dx = ai->grad.data() + static_cast<size_t>(i) * n;
        float dsum = 0.0f;
        for (int j = 0; j < n; ++j) dsum += dy[j];
        for (int j = 0; j < n; ++j) dx[j] += dy[j] - std::exp(ls[j]) * dsum;
      }
    };
  }
  return Tensor(std::move(out));
}

Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps) {
  auto [m, n] = RowsCols(x);
  KGLINK_CHECK_EQ(static_cast<int64_t>(n), gamma.numel());
  KGLINK_CHECK_EQ(static_cast<int64_t>(n), beta.numel());
  // xhat and inv_std feed only the backward; without a tape one xhat row
  // is reused and inv_std is not kept.
  const bool keep = NeedsGrad({x, gamma, beta});
  std::vector<float> data(x.data().size());
  std::vector<float> xhat(keep ? x.data().size() : n);
  std::vector<float> inv_std(keep ? m : 0);
  for (int i = 0; i < m; ++i) {
    const float* xr = x.data().data() + static_cast<size_t>(i) * n;
    float mean = 0.0f;
    for (int j = 0; j < n; ++j) mean += xr[j];
    mean /= n;
    float var = 0.0f;
    for (int j = 0; j < n; ++j) var += (xr[j] - mean) * (xr[j] - mean);
    var /= n;
    float is = 1.0f / std::sqrt(var + eps);
    if (keep) inv_std[i] = is;
    float* xh = xhat.data() + (keep ? static_cast<size_t>(i) * n : 0);
    float* yr = data.data() + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      xh[j] = (xr[j] - mean) * is;
      yr[j] = gamma.data()[j] * xh[j] + beta.data()[j];
    }
  }
  auto out = NewOutput(x.shape(), std::move(data), {x, gamma, beta});
  if (out->requires_grad) {
    auto xi = x.impl();
    auto gi = gamma.impl();
    auto bi = beta.impl();
    TensorImpl* o = out.get();
    auto xh = std::make_shared<std::vector<float>>(std::move(xhat));
    auto is = std::make_shared<std::vector<float>>(std::move(inv_std));
    out->backward = [xi, gi, bi, o, xh, is, m, n] {
      for (int i = 0; i < m; ++i) {
        const float* dy = o->grad.data() + static_cast<size_t>(i) * n;
        const float* xhr = xh->data() + static_cast<size_t>(i) * n;
        if (gi->requires_grad) {
          gi->EnsureGrad();
          for (int j = 0; j < n; ++j) gi->grad[j] += dy[j] * xhr[j];
        }
        if (bi->requires_grad) {
          bi->EnsureGrad();
          for (int j = 0; j < n; ++j) bi->grad[j] += dy[j];
        }
        if (xi->requires_grad) {
          xi->EnsureGrad();
          float* dx = xi->grad.data() + static_cast<size_t>(i) * n;
          float mean_dxhat = 0.0f;
          float mean_dxhat_xhat = 0.0f;
          for (int j = 0; j < n; ++j) {
            float dxh = dy[j] * gi->data[j];
            mean_dxhat += dxh;
            mean_dxhat_xhat += dxh * xhr[j];
          }
          mean_dxhat /= n;
          mean_dxhat_xhat /= n;
          for (int j = 0; j < n; ++j) {
            float dxh = dy[j] * gi->data[j];
            dx[j] += (*is)[i] *
                     (dxh - mean_dxhat - xhr[j] * mean_dxhat_xhat);
          }
        }
      }
    };
  }
  return Tensor(std::move(out));
}

Tensor Dropout(const Tensor& x, float p, Rng& rng, bool training) {
  if (!training || p <= 0.0f) return x;
  KGLINK_CHECK_LT(p, 1.0f);
  float keep_scale = 1.0f / (1.0f - p);
  auto mask = std::make_shared<std::vector<float>>(x.data().size());
  std::vector<float> data(x.data().size());
  for (size_t i = 0; i < data.size(); ++i) {
    float m = rng.Bernoulli(p) ? 0.0f : keep_scale;
    (*mask)[i] = m;
    data[i] = x.data()[i] * m;
  }
  auto out = NewOutput(x.shape(), std::move(data), {x});
  if (out->requires_grad) {
    auto xi = x.impl();
    TensorImpl* o = out.get();
    out->backward = [xi, o, mask] {
      xi->EnsureGrad();
      for (size_t i = 0; i < o->grad.size(); ++i) {
        xi->grad[i] += o->grad[i] * (*mask)[i];
      }
    };
  }
  return Tensor(std::move(out));
}

// ----- shape & indexing -----

Tensor EmbeddingLookup(const Tensor& table, const int* ids, int count) {
  auto [v, d] = RowsCols(table);
  KGLINK_CHECK_GE(count, 0);
  std::vector<float> data(static_cast<size_t>(count) * d);
  for (int i = 0; i < count; ++i) {
    // Backstop for programming errors only: the serving path validates
    // token ids against the model's vocabulary before any encode (see
    // core::KgLinkAnnotator::ValidateTokenIds) and turns a mismatch into a
    // per-request kInvalidArgument instead of reaching this abort.
    KGLINK_CHECK(ids[i] >= 0 && ids[i] < v) << "embedding id out of range";
    std::copy_n(table.data().data() + static_cast<size_t>(ids[i]) * d, d,
                data.data() + static_cast<size_t>(i) * d);
  }
  auto out = NewOutput({count, d}, std::move(data), {table});
  if (out->requires_grad) {
    auto ti = table.impl();
    TensorImpl* o = out.get();
    auto ids_copy = std::make_shared<std::vector<int>>(ids, ids + count);
    out->backward = [ti, o, ids_copy, d] {
      ti->EnsureGrad();
      for (size_t i = 0; i < ids_copy->size(); ++i) {
        const float* g = o->grad.data() + i * d;
        float* trow =
            ti->grad.data() + static_cast<size_t>((*ids_copy)[i]) * d;
        for (int j = 0; j < d; ++j) trow[j] += g[j];
      }
    };
  }
  return Tensor(std::move(out));
}

Tensor EmbeddingLookup(const Tensor& table, const std::vector<int>& ids) {
  return EmbeddingLookup(table, ids.data(), static_cast<int>(ids.size()));
}

Tensor Rows(const Tensor& x, const std::vector<int>& idx) {
  auto [m, n] = RowsCols(x);
  std::vector<float> data(idx.size() * static_cast<size_t>(n));
  for (size_t i = 0; i < idx.size(); ++i) {
    KGLINK_CHECK(idx[i] >= 0 && idx[i] < m) << "row index out of range";
    std::copy_n(x.data().data() + static_cast<size_t>(idx[i]) * n, n,
                data.data() + i * n);
  }
  auto out =
      NewOutput({static_cast<int>(idx.size()), n}, std::move(data), {x});
  if (out->requires_grad) {
    auto xi = x.impl();
    TensorImpl* o = out.get();
    auto idx_copy = std::make_shared<std::vector<int>>(idx);
    out->backward = [xi, o, idx_copy, n] {
      xi->EnsureGrad();
      for (size_t i = 0; i < idx_copy->size(); ++i) {
        const float* g = o->grad.data() + i * n;
        float* xrow =
            xi->grad.data() + static_cast<size_t>((*idx_copy)[i]) * n;
        for (int j = 0; j < n; ++j) xrow[j] += g[j];
      }
    };
  }
  return Tensor(std::move(out));
}

Tensor SliceCols(const Tensor& x, int start, int len) {
  auto [m, n] = RowsCols(x);
  KGLINK_CHECK(start >= 0 && len > 0 && start + len <= n);
  std::vector<float> data(static_cast<size_t>(m) * len);
  for (int i = 0; i < m; ++i) {
    std::copy_n(x.data().data() + static_cast<size_t>(i) * n + start, len,
                data.data() + static_cast<size_t>(i) * len);
  }
  auto out = NewOutput({m, len}, std::move(data), {x});
  if (out->requires_grad) {
    auto xi = x.impl();
    TensorImpl* o = out.get();
    out->backward = [xi, o, m, n, start, len] {
      xi->EnsureGrad();
      for (int i = 0; i < m; ++i) {
        const float* g = o->grad.data() + static_cast<size_t>(i) * len;
        float* xg = xi->grad.data() + static_cast<size_t>(i) * n + start;
        for (int j = 0; j < len; ++j) xg[j] += g[j];
      }
    };
  }
  return Tensor(std::move(out));
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  KGLINK_CHECK(!parts.empty());
  int m = parts[0].rows();
  int total = 0;
  bool needs_grad = false;
  for (const auto& p : parts) {
    KGLINK_CHECK_EQ(p.rows(), m);
    total += p.cols();
    needs_grad = needs_grad || NeedsGrad({p});
  }
  std::vector<float> data(static_cast<size_t>(m) * total);
  int off = 0;
  for (const auto& p : parts) {
    int n = p.cols();
    for (int i = 0; i < m; ++i) {
      std::copy_n(p.data().data() + static_cast<size_t>(i) * n, n,
                  data.data() + static_cast<size_t>(i) * total + off);
    }
    off += n;
  }
  auto out = NewImpl({m, total}, std::move(data));
  out->requires_grad = needs_grad;
  if (needs_grad) {
    for (const auto& p : parts) out->parents.push_back(p.impl());
    TensorImpl* o = out.get();
    auto impls = std::make_shared<std::vector<std::shared_ptr<TensorImpl>>>();
    auto widths = std::make_shared<std::vector<int>>();
    for (const auto& p : parts) {
      impls->push_back(p.impl());
      widths->push_back(p.cols());
    }
    out->backward = [o, impls, widths, m, total] {
      int off2 = 0;
      for (size_t k = 0; k < impls->size(); ++k) {
        auto& pi = (*impls)[k];
        int n = (*widths)[k];
        if (pi->requires_grad) {
          pi->EnsureGrad();
          for (int i = 0; i < m; ++i) {
            const float* g =
                o->grad.data() + static_cast<size_t>(i) * total + off2;
            float* pg = pi->grad.data() + static_cast<size_t>(i) * n;
            for (int j = 0; j < n; ++j) pg[j] += g[j];
          }
        }
        off2 += n;
      }
    };
  }
  return Tensor(std::move(out));
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  KGLINK_CHECK(!parts.empty());
  int n = parts[0].cols();
  int total = 0;
  bool needs_grad = false;
  for (const auto& p : parts) {
    KGLINK_CHECK_EQ(p.cols(), n);
    total += p.rows();
    needs_grad = needs_grad || NeedsGrad({p});
  }
  std::vector<float> data;
  data.reserve(static_cast<size_t>(total) * n);
  for (const auto& p : parts) {
    data.insert(data.end(), p.data().begin(), p.data().end());
  }
  auto out = NewImpl({total, n}, std::move(data));
  out->requires_grad = needs_grad;
  if (needs_grad) {
    for (const auto& p : parts) out->parents.push_back(p.impl());
    TensorImpl* o = out.get();
    auto impls = std::make_shared<std::vector<std::shared_ptr<TensorImpl>>>();
    for (const auto& p : parts) impls->push_back(p.impl());
    out->backward = [o, impls] {
      size_t off = 0;
      for (auto& pi : *impls) {
        if (pi->requires_grad) {
          pi->EnsureGrad();
          for (size_t i = 0; i < pi->data.size(); ++i) {
            pi->grad[i] += o->grad[off + i];
          }
        }
        off += pi->data.size();
      }
    };
  }
  return Tensor(std::move(out));
}

Tensor Mean(const Tensor& x) {
  float sum = 0.0f;
  for (float v : x.data()) sum += v;
  float inv = 1.0f / static_cast<float>(x.numel());
  auto out = NewOutput({1}, {sum * inv}, {x});
  if (out->requires_grad) {
    auto xi = x.impl();
    TensorImpl* o = out.get();
    out->backward = [xi, o, inv] {
      xi->EnsureGrad();
      float g = o->grad[0] * inv;
      for (auto& v : xi->grad) v += g;
    };
  }
  return Tensor(std::move(out));
}

Tensor Sum(const Tensor& x) {
  float sum = 0.0f;
  for (float v : x.data()) sum += v;
  auto out = NewOutput({1}, {sum}, {x});
  if (out->requires_grad) {
    auto xi = x.impl();
    TensorImpl* o = out.get();
    out->backward = [xi, o] {
      xi->EnsureGrad();
      float g = o->grad[0];
      for (auto& v : xi->grad) v += g;
    };
  }
  return Tensor(std::move(out));
}

Tensor MeanRows(const Tensor& x) {
  auto [m, n] = RowsCols(x);
  std::vector<float> data(n, 0.0f);
  for (int i = 0; i < m; ++i) {
    const float* xr = x.data().data() + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) data[j] += xr[j];
  }
  float inv = 1.0f / m;
  for (auto& v : data) v *= inv;
  auto out = NewOutput({1, n}, std::move(data), {x});
  if (out->requires_grad) {
    auto xi = x.impl();
    TensorImpl* o = out.get();
    out->backward = [xi, o, m, n, inv] {
      xi->EnsureGrad();
      for (int i = 0; i < m; ++i) {
        float* xg = xi->grad.data() + static_cast<size_t>(i) * n;
        for (int j = 0; j < n; ++j) xg[j] += o->grad[j] * inv;
      }
    };
  }
  return Tensor(std::move(out));
}

Tensor Detach(const Tensor& x) {
  auto out = NewImpl(x.shape(), x.data());
  return Tensor(std::move(out));
}

Tensor Reshape(const Tensor& x, std::vector<int> shape) {
  int64_t n = 1;
  for (int d : shape) n *= d;
  KGLINK_CHECK_EQ(n, x.numel());
  auto out = NewOutput(std::move(shape), x.data(), {x});
  if (out->requires_grad) {
    auto xi = x.impl();
    TensorImpl* o = out.get();
    out->backward = [xi, o] {
      xi->EnsureGrad();
      for (size_t i = 0; i < o->grad.size(); ++i) xi->grad[i] += o->grad[i];
    };
  }
  return Tensor(std::move(out));
}

// ----- fused masked attention -----

namespace {

// Copies the head-h column block of rows [base, base+l) of `src` ([?, dim])
// into a contiguous l x hd scratch block.
void PackHead(const float* src, int base, int l, int dim, int c0, int hd,
              float* dst) {
  for (int i = 0; i < l; ++i) {
    std::copy_n(src + static_cast<size_t>(base + i) * dim + c0, hd,
                dst + static_cast<size_t>(i) * hd);
  }
}

// Same block, transposed: dst[p][j] = src[base+j][c0+p], dst is hd x l.
void PackHeadT(const float* src, int base, int l, int dim, int c0, int hd,
               float* dst) {
  for (int j = 0; j < l; ++j) {
    const float* row = src + static_cast<size_t>(base + j) * dim + c0;
    for (int p = 0; p < hd; ++p) {
      dst[static_cast<size_t>(p) * l + j] = row[p];
    }
  }
}

}  // namespace

Tensor MaskedAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                       int num_heads, float scale,
                       const std::vector<int>& seq_lens, int pad_len) {
  auto [total_rows, dim] = RowsCols(q);
  KGLINK_CHECK(q.shape() == k.shape() && q.shape() == v.shape())
      << "MaskedAttention q/k/v shape mismatch";
  KGLINK_CHECK_GT(num_heads, 0);
  KGLINK_CHECK_EQ(dim % num_heads, 0) << "dim must divide num_heads";
  const int hd = dim / num_heads;
  const int batch = static_cast<int>(seq_lens.size());
  KGLINK_CHECK_GT(batch, 0);
  KGLINK_CHECK_EQ(total_rows, batch * pad_len)
      << "MaskedAttention rows != batch * pad_len";
  size_t probs_total = 0;
  for (int len : seq_lens) {
    KGLINK_CHECK(len >= 1 && len <= pad_len)
        << "seq_len out of range for pad_len " << pad_len;
    probs_total += static_cast<size_t>(len) * len;
  }
  probs_total *= static_cast<size_t>(num_heads);

  // The attention probabilities are the only forward intermediate the
  // backward pass cannot cheaply recompute; with a tape, one flat buffer
  // holds every (block, head) slab in iteration order. Without one, each
  // slab is consumed at once and a single len x len scratch is reused.
  // The packed q/k/v head blocks are re-gathered from the parents' data on
  // the backward pass instead.
  const bool keep_probs = NeedsGrad({q, k, v});
  std::shared_ptr<std::vector<float>> probs_store;
  if (keep_probs) {
    probs_store = std::make_shared<std::vector<float>>(probs_total);
  }

  // Padded rows stay zero: a padded query row depends on nothing, and the
  // packing below never reads a padded key/value row — the softmax runs
  // over exactly the valid prefix, which is the mask.
  std::vector<float> out_data(static_cast<size_t>(total_rows) * dim, 0.0f);
  std::vector<float> qh, kht, vh, scores, head, probs_scratch;
  size_t probs_off = 0;
  for (int b = 0; b < batch; ++b) {
    const int len = seq_lens[b];
    const int base = b * pad_len;
    const size_t l2 = static_cast<size_t>(len) * len;
    for (int h = 0; h < num_heads; ++h) {
      const int c0 = h * hd;
      qh.resize(static_cast<size_t>(len) * hd);
      kht.resize(static_cast<size_t>(hd) * len);
      vh.resize(static_cast<size_t>(len) * hd);
      PackHead(q.data().data(), base, len, dim, c0, hd, qh.data());
      PackHeadT(k.data().data(), base, len, dim, c0, hd, kht.data());
      PackHead(v.data().data(), base, len, dim, c0, hd, vh.data());
      scores.assign(l2, 0.0f);
      gemm::GemmAcc(qh.data(), kht.data(), scores.data(), len, hd, len);
      float* probs;
      if (keep_probs) {
        probs = probs_store->data() + probs_off;
      } else {
        probs_scratch.resize(l2);
        probs = probs_scratch.data();
      }
      // Scale folds into the softmax kernel (same single multiply per
      // element the composed Scale op performs), one exp per score.
      RowSoftmaxScaled(scores.data(), probs, len, len, scale);
      head.assign(static_cast<size_t>(len) * hd, 0.0f);
      gemm::GemmAcc(probs, vh.data(), head.data(), len, len, hd);
      for (int i = 0; i < len; ++i) {
        std::copy_n(head.data() + static_cast<size_t>(i) * hd, hd,
                    out_data.data() +
                        static_cast<size_t>(base + i) * dim + c0);
      }
      probs_off += l2;
    }
  }

  auto out = NewOutput({total_rows, dim}, std::move(out_data), {q, k, v});
  if (out->requires_grad) {
    auto qi = q.impl();
    auto ki = k.impl();
    auto vi = v.impl();
    TensorImpl* o = out.get();
    auto lens = std::make_shared<std::vector<int>>(seq_lens);
    out->backward = [qi, ki, vi, o, probs_store, lens, num_heads, hd, dim,
                     pad_len, scale] {
      // Mirrors the composed-op backward kernel-for-kernel (MatMul's
      // GemmAccBt/GemmAccAt, Softmax's dot-subtract rule, Scale's
      // multiply), so gradients are bit-identical to the unfused pipeline.
      std::vector<float> bqh, bkht, bvh, dhead, dprobs, dvh, dqh, dkht;
      size_t off = 0;
      for (size_t b = 0; b < lens->size(); ++b) {
        const int len = (*lens)[b];
        const int base = static_cast<int>(b) * pad_len;
        const size_t l2 = static_cast<size_t>(len) * len;
        for (int h = 0; h < num_heads; ++h) {
          const int c0 = h * hd;
          const float* probs = probs_store->data() + off;
          dhead.resize(static_cast<size_t>(len) * hd);
          PackHead(o->grad.data(), base, len, dim, c0, hd, dhead.data());
          if (vi->requires_grad) {
            bvh.resize(static_cast<size_t>(len) * hd);
            PackHead(vi->data.data(), base, len, dim, c0, hd, bvh.data());
          }
          dprobs.assign(l2, 0.0f);
          if (vi->requires_grad) {
            gemm::GemmAccBt(dhead.data(), bvh.data(), dprobs.data(), len,
                            len, hd);
            dvh.assign(static_cast<size_t>(len) * hd, 0.0f);
            gemm::GemmAccAt(probs, dhead.data(), dvh.data(), len, len, hd);
            vi->EnsureGrad();
            for (int j = 0; j < len; ++j) {
              const float* g = dvh.data() + static_cast<size_t>(j) * hd;
              float* vg = vi->grad.data() +
                          static_cast<size_t>(base + j) * dim + c0;
              for (int p = 0; p < hd; ++p) vg[p] += g[p];
            }
          } else {
            // dprobs is still needed for the q/k gradients below; the v
            // block must be packed for it either way.
            bvh.resize(static_cast<size_t>(len) * hd);
            PackHead(vi->data.data(), base, len, dim, c0, hd, bvh.data());
            gemm::GemmAccBt(dhead.data(), bvh.data(), dprobs.data(), len,
                            len, hd);
          }
          // Softmax backward then the score scale, in place over dprobs.
          for (int i = 0; i < len; ++i) {
            const float* y = probs + static_cast<size_t>(i) * len;
            float* dy = dprobs.data() + static_cast<size_t>(i) * len;
            float dot = 0.0f;
            for (int j = 0; j < len; ++j) dot += dy[j] * y[j];
            for (int j = 0; j < len; ++j) {
              dy[j] = scale * (y[j] * (dy[j] - dot));
            }
          }
          if (qi->requires_grad || ki->requires_grad) {
            bqh.resize(static_cast<size_t>(len) * hd);
            bkht.resize(static_cast<size_t>(hd) * len);
            PackHead(qi->data.data(), base, len, dim, c0, hd, bqh.data());
            PackHeadT(ki->data.data(), base, len, dim, c0, hd, bkht.data());
          }
          if (qi->requires_grad) {
            dqh.assign(static_cast<size_t>(len) * hd, 0.0f);
            gemm::GemmAccBt(dprobs.data(), bkht.data(), dqh.data(), len, hd,
                            len);
            qi->EnsureGrad();
            for (int i = 0; i < len; ++i) {
              const float* g = dqh.data() + static_cast<size_t>(i) * hd;
              float* qg = qi->grad.data() +
                          static_cast<size_t>(base + i) * dim + c0;
              for (int p = 0; p < hd; ++p) qg[p] += g[p];
            }
          }
          if (ki->requires_grad) {
            dkht.assign(static_cast<size_t>(hd) * len, 0.0f);
            gemm::GemmAccAt(bqh.data(), dprobs.data(), dkht.data(), len, hd,
                            len);
            ki->EnsureGrad();
            for (int p = 0; p < hd; ++p) {
              const float* g = dkht.data() + static_cast<size_t>(p) * len;
              for (int j = 0; j < len; ++j) {
                ki->grad[static_cast<size_t>(base + j) * dim + c0 + p] +=
                    g[j];
              }
            }
          }
          off += l2;
        }
      }
    };
  }
  return Tensor(std::move(out));
}

// ----- losses -----

Tensor CrossEntropy(const Tensor& logits, const std::vector<int>& labels) {
  auto [m, n] = RowsCols(logits);
  KGLINK_CHECK_EQ(static_cast<size_t>(m), labels.size());
  std::vector<float> ls(logits.data().size());
  RowLogSoftmax(logits.data().data(), ls.data(), m, n);
  float loss = 0.0f;
  for (int i = 0; i < m; ++i) {
    KGLINK_CHECK(labels[i] >= 0 && labels[i] < n) << "label out of range";
    loss -= ls[static_cast<size_t>(i) * n + labels[i]];
  }
  loss /= m;
  auto out = NewOutput({1}, {loss}, {logits});
  if (out->requires_grad) {
    auto li = logits.impl();
    TensorImpl* o = out.get();
    auto ls_copy = std::make_shared<std::vector<float>>(std::move(ls));
    auto labels_copy = std::make_shared<std::vector<int>>(labels);
    out->backward = [li, o, ls_copy, labels_copy, m, n] {
      li->EnsureGrad();
      float g = o->grad[0] / m;
      for (int i = 0; i < m; ++i) {
        const float* lsr = ls_copy->data() + static_cast<size_t>(i) * n;
        float* dl = li->grad.data() + static_cast<size_t>(i) * n;
        for (int j = 0; j < n; ++j) {
          float p = std::exp(lsr[j]);
          dl[j] += g * (p - (j == (*labels_copy)[i] ? 1.0f : 0.0f));
        }
      }
    };
  }
  return Tensor(std::move(out));
}

Tensor SoftCrossEntropy(const Tensor& logits, const Tensor& targets) {
  auto [m, n] = RowsCols(logits);
  KGLINK_CHECK(logits.shape() == targets.shape())
      << "SoftCrossEntropy shape mismatch";
  std::vector<float> ls(logits.data().size());
  RowLogSoftmax(logits.data().data(), ls.data(), m, n);
  float loss = 0.0f;
  for (size_t i = 0; i < ls.size(); ++i) loss -= targets.data()[i] * ls[i];
  loss /= m;
  // Gradients flow to logits only; targets are treated as constants (the
  // caller detaches the teacher in distillation setups).
  auto out = NewOutput({1}, {loss}, {logits});
  if (out->requires_grad) {
    auto li = logits.impl();
    auto ti = targets.impl();
    TensorImpl* o = out.get();
    auto ls_copy = std::make_shared<std::vector<float>>(std::move(ls));
    out->backward = [li, ti, o, ls_copy, m, n] {
      li->EnsureGrad();
      float g = o->grad[0] / m;
      for (int i = 0; i < m; ++i) {
        const float* lsr = ls_copy->data() + static_cast<size_t>(i) * n;
        const float* tr = ti->data.data() + static_cast<size_t>(i) * n;
        float* dl = li->grad.data() + static_cast<size_t>(i) * n;
        float tsum = 0.0f;
        for (int j = 0; j < n; ++j) tsum += tr[j];
        for (int j = 0; j < n; ++j) {
          dl[j] += g * (tsum * std::exp(lsr[j]) - tr[j]);
        }
      }
    };
  }
  return Tensor(std::move(out));
}

Tensor MseLoss(const Tensor& a, const Tensor& b) {
  KGLINK_CHECK(a.shape() == b.shape());
  Tensor diff = Sub(a, b);
  return Mean(Mul(diff, diff));
}

Tensor CosineSimilarity(const Tensor& a, const Tensor& b, float eps) {
  KGLINK_CHECK_EQ(a.numel(), b.numel());
  Tensor dot = Sum(Mul(a, b));
  Tensor na = Sum(Mul(a, a));
  Tensor nb = Sum(Mul(b, b));
  // s = dot / sqrt(na*nb + eps) implemented with primitive ops so the
  // gradient is exact.
  Tensor prod = Mul(na, nb);
  Tensor denom =
      UnaryOp(
          AddScalar(prod, eps), [](float x) { return 1.0f / std::sqrt(x); },
          [](float x, float y) {
            (void)x;
            return -0.5f * y * y * y;
          });
  return Mul(dot, denom);
}

}  // namespace kglink::nn
