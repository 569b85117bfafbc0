#include "baselines/sherlock.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <unordered_set>

#include "nn/optim.h"
#include "nn/tensor.h"
#include "table/ner.h"
#include "util/string_util.h"

namespace kglink::baselines {

namespace {

// 22 scalar statistics + bow_dim hashed word counts.
constexpr int kNumStats = 22;

uint64_t HashWord(const std::string& w) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (char c : w) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

SherlockAnnotator::SherlockAnnotator(SherlockOptions options)
    : options_(std::move(options)) {}

SherlockAnnotator::~SherlockAnnotator() = default;

int SherlockAnnotator::feature_dim() const {
  return kNumStats + options_.bow_dim;
}

std::vector<float> SherlockAnnotator::ExtractFeatures(const table::Table& t,
                                                      int col) const {
  std::vector<float> f(static_cast<size_t>(feature_dim()), 0.0f);
  int rows = t.num_rows();
  if (rows == 0) return f;

  int64_t chars = 0, digits = 0, alphas = 0, uppers = 0, puncts = 0,
          spaces = 0;
  int64_t numeric_cells = 0, date_cells = 0, empty_cells = 0;
  double len_sum = 0, len_sq = 0, len_min = 1e9, len_max = 0;
  double words_sum = 0;
  double num_sum = 0, num_sq = 0;
  int64_t num_count = 0;
  std::unordered_set<std::string> distinct;

  for (int r = 0; r < rows; ++r) {
    const table::Cell& cell = t.at(r, col);
    distinct.insert(cell.text);
    double len = static_cast<double>(cell.text.size());
    len_sum += len;
    len_sq += len * len;
    len_min = std::min(len_min, len);
    len_max = std::max(len_max, len);
    switch (cell.kind) {
      case table::CellKind::kNumber:
        ++numeric_cells;
        num_sum += cell.number;
        num_sq += cell.number * cell.number;
        ++num_count;
        break;
      case table::CellKind::kDate:
        ++date_cells;
        break;
      case table::CellKind::kEmpty:
        ++empty_cells;
        break;
      default:
        break;
    }
    for (char c : cell.text) {
      ++chars;
      unsigned char uc = static_cast<unsigned char>(c);
      if (std::isdigit(uc)) ++digits;
      if (std::isalpha(uc)) ++alphas;
      if (std::isupper(uc)) ++uppers;
      if (std::ispunct(uc)) ++puncts;
      if (std::isspace(uc)) ++spaces;
    }
    auto words = SplitWords(cell.text);
    words_sum += static_cast<double>(words.size());
    for (const auto& w : words) {
      size_t bucket = static_cast<size_t>(
          HashWord(w) % static_cast<uint64_t>(options_.bow_dim));
      f[kNumStats + bucket] += 1.0f;
    }
  }

  double inv_rows = 1.0 / rows;
  double inv_chars = chars > 0 ? 1.0 / static_cast<double>(chars) : 0.0;
  double len_mean = len_sum * inv_rows;
  double len_var = len_sq * inv_rows - len_mean * len_mean;
  double num_mean = num_count > 0 ? num_sum / num_count : 0;
  double num_var =
      num_count > 0 ? num_sq / num_count - num_mean * num_mean : 0;

  int i = 0;
  f[i++] = static_cast<float>(digits * inv_chars);
  f[i++] = static_cast<float>(alphas * inv_chars);
  f[i++] = static_cast<float>(uppers * inv_chars);
  f[i++] = static_cast<float>(puncts * inv_chars);
  f[i++] = static_cast<float>(spaces * inv_chars);
  f[i++] = static_cast<float>(len_mean / 32.0);
  f[i++] = static_cast<float>(std::sqrt(std::max(0.0, len_var)) / 16.0);
  f[i++] = static_cast<float>(len_min / 32.0);
  f[i++] = static_cast<float>(len_max / 64.0);
  f[i++] = static_cast<float>(words_sum * inv_rows / 8.0);
  f[i++] = static_cast<float>(numeric_cells * inv_rows);
  f[i++] = static_cast<float>(date_cells * inv_rows);
  f[i++] = static_cast<float>(empty_cells * inv_rows);
  f[i++] = static_cast<float>(distinct.size() * inv_rows);
  f[i++] = static_cast<float>(std::log1p(std::abs(num_mean)) / 16.0 *
                              (num_mean < 0 ? -1 : 1));
  f[i++] = static_cast<float>(std::log1p(std::sqrt(std::max(0.0, num_var))) /
                              16.0);
  f[i++] = static_cast<float>(rows / 64.0);
  // Person-shaped and year-shaped cell fractions.
  int64_t person_like = 0, year_like = 0;
  for (int r = 0; r < rows; ++r) {
    const table::Cell& cell = t.at(r, col);
    if (table::NamedEntityRecognizer::LooksLikePerson(cell.text)) {
      ++person_like;
    }
    if (cell.kind == table::CellKind::kNumber && cell.number >= 1000 &&
        cell.number < 3000 && std::floor(cell.number) == cell.number) {
      ++year_like;
    }
  }
  f[i++] = static_cast<float>(person_like * inv_rows);
  f[i++] = static_cast<float>(year_like * inv_rows);
  f[i++] = t.num_cols() / 8.0f;
  f[i++] = col / 8.0f;
  f[i++] = 1.0f;  // bias-ish constant
  KGLINK_CHECK_EQ(i, kNumStats);

  // L1-normalize the bag-of-words block.
  float bow_total = 0;
  for (int b = 0; b < options_.bow_dim; ++b) bow_total += f[kNumStats + b];
  if (bow_total > 0) {
    for (int b = 0; b < options_.bow_dim; ++b) {
      f[kNumStats + b] /= bow_total;
    }
  }
  return f;
}

nn::Tensor SherlockAnnotator::Forward(const std::vector<float>& features,
                                      bool training) {
  nn::Tensor x = nn::Tensor::FromData({1, feature_dim()},
                                      std::vector<float>(features.begin(),
                                                         features.end()));
  nn::Tensor h = nn::Relu(hidden1_->Forward(x));
  h = nn::Dropout(h, options_.dropout, *rng_, training);
  h = nn::Relu(hidden2_->Forward(h));
  return out_->Forward(h);
}

void SherlockAnnotator::Fit(const table::Corpus& train,
                            const table::Corpus& valid) {
  (void)valid;
  label_names_ = train.label_names;
  rng_ = std::make_unique<Rng>(options_.seed);
  hidden1_ = nn::Linear(feature_dim(), options_.hidden_dim, *rng_,
                        "sherlock.h1");
  hidden2_ = nn::Linear(options_.hidden_dim, options_.hidden_dim, *rng_,
                        "sherlock.h2");
  out_ = nn::Linear(options_.hidden_dim, train.num_labels(), *rng_,
                    "sherlock.out");

  std::vector<nn::NamedParam> params;
  hidden1_->CollectParams(&params);
  hidden2_->CollectParams(&params);
  out_->CollectParams(&params);
  nn::AdamWOptions adam;
  adam.lr = options_.lr;
  nn::AdamW optimizer(std::move(params), adam);

  struct Sample {
    std::vector<float> features;
    int label;
  };
  std::vector<Sample> samples;
  for (const auto& lt : train.tables) {
    for (int c = 0; c < lt.table.num_cols(); ++c) {
      int label = lt.column_labels[static_cast<size_t>(c)];
      if (label == table::kUnlabeled) continue;
      samples.push_back({ExtractFeatures(lt.table, c), label});
    }
  }

  std::vector<size_t> order(samples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  float loss_scale = 1.0f / static_cast<float>(options_.batch_size);
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng_->Shuffle(order);
    int in_batch = 0;
    optimizer.ZeroGrad();
    for (size_t idx : order) {
      nn::Tensor logits = Forward(samples[idx].features, /*training=*/true);
      nn::Scale(nn::CrossEntropy(logits, {samples[idx].label}), loss_scale)
          .Backward();
      if (++in_batch == options_.batch_size) {
        optimizer.Step();
        optimizer.ZeroGrad();
        in_batch = 0;
      }
    }
    if (in_batch > 0) {
      optimizer.Step();
      optimizer.ZeroGrad();
    }
  }
}

nn::Tensor SherlockAnnotator::ColumnLogits(const table::Table& t, int col) {
  KGLINK_CHECK(out_.has_value()) << "ColumnLogits before Fit";
  return Forward(ExtractFeatures(t, col), /*training=*/false);
}

std::vector<int> SherlockAnnotator::PredictTable(const table::Table& t) {
  nn::NoGradGuard no_grad;  // eval forward: no tape (see nn/tensor.h)
  std::vector<int> pred(static_cast<size_t>(t.num_cols()));
  for (int c = 0; c < t.num_cols(); ++c) {
    nn::Tensor logits = ColumnLogits(t, c);
    const auto& data = logits.data();
    int best = 0;
    for (size_t l = 1; l < data.size(); ++l) {
      if (data[l] > data[best]) best = static_cast<int>(l);
    }
    pred[static_cast<size_t>(c)] = best;
  }
  return pred;
}

}  // namespace kglink::baselines
