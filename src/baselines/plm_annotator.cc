#include "baselines/plm_annotator.h"

#include <algorithm>
#include <cstdio>

#include "nn/loss.h"
#include "nn/tensor.h"
#include "util/stopwatch.h"

namespace kglink::baselines {

PlmColumnAnnotator::PlmColumnAnnotator(PlmOptions options)
    : options_(std::move(options)) {}

PlmColumnAnnotator::~PlmColumnAnnotator() = default;

nn::Tensor PlmColumnAnnotator::EncodeTokens(const std::vector<int>& tokens,
                                            bool training) {
  return encoder_->Forward(tokens, *rng_, training);
}

nn::Tensor PlmColumnAnnotator::EncodeTokens(
    const std::vector<int>& tokens, const std::vector<int>& segments,
    bool training) {
  return encoder_->Forward(tokens, segments, *rng_, training);
}

std::vector<PlmSequence> PlmColumnAnnotator::SerializeMultiColumn(
    const table::Table& t, int row_limit) const {
  std::vector<PlmSequence> out;
  int rows = t.num_rows();
  if (row_limit >= 0) rows = std::min(rows, row_limit);
  for (int chunk_start = 0; chunk_start < t.num_cols();
       chunk_start += options_.max_cols) {
    int chunk_cols = std::min(options_.max_cols,
                              t.num_cols() - chunk_start);
    int budget = (options_.max_seq_len - 1) / chunk_cols;
    PlmSequence seq;
    for (int ci = 0; ci < chunk_cols; ++ci) {
      int col = chunk_start + ci;
      seq.cls_positions.push_back(static_cast<int>(seq.tokens.size()));
      seq.source_cols.push_back(col);
      std::vector<int> col_tokens;
      col_tokens.push_back(nn::Vocabulary::kCls);
      for (int r = 0; r < rows; ++r) {
        if (static_cast<int>(col_tokens.size()) >= budget) break;
        int remaining = budget - static_cast<int>(col_tokens.size());
        for (int id : vocab_->EncodeText(
                 t.at(r, col).text,
                 std::min(remaining, options_.max_cell_tokens))) {
          col_tokens.push_back(id);
        }
      }
      if (static_cast<int>(col_tokens.size()) > budget) {
        col_tokens.resize(static_cast<size_t>(budget));
      }
      seq.tokens.insert(seq.tokens.end(), col_tokens.begin(),
                        col_tokens.end());
      seq.segments.insert(seq.segments.end(), col_tokens.size(), ci);
    }
    seq.tokens.push_back(nn::Vocabulary::kSep);
    seq.segments.push_back(0);
    out.push_back(std::move(seq));
  }
  return out;
}

double PlmColumnAnnotator::TrainTable(const table::Table& t,
                                      const std::vector<int>& labels,
                                      float loss_scale) {
  double loss_value = 0.0;
  for (const PlmSequence& seq : SerializeTable(t)) {
    KGLINK_CHECK(!seq.tokens.empty());
    nn::Tensor hidden =
        EncodeTokens(seq.tokens, seq.segments, /*training=*/true);
    nn::Tensor logits = cls_head_->Forward(nn::Rows(hidden, seq.cls_positions));
    std::vector<int> labeled_rows;
    std::vector<int> gold;
    for (size_t j = 0; j < seq.source_cols.size(); ++j) {
      int label = labels[static_cast<size_t>(seq.source_cols[j])];
      if (label == table::kUnlabeled) continue;
      labeled_rows.push_back(static_cast<int>(j));
      gold.push_back(label);
    }
    if (gold.empty()) continue;
    nn::Tensor loss = nn::CrossEntropy(nn::Rows(logits, labeled_rows), gold);
    loss_value += loss.item();
    nn::Scale(loss, loss_scale).Backward();
  }
  nn::Tensor aux = AuxiliaryLoss(t, *rng_);
  if (aux.defined()) {
    loss_value += aux.item();
    nn::Scale(aux, loss_scale).Backward();
  }
  return loss_value;
}

std::vector<PlmColumnAnnotator::SequenceLogits>
PlmColumnAnnotator::PredictLogits(const table::Table& t) {
  KGLINK_CHECK(encoder_ != nullptr) << "PredictLogits before Fit";
  std::vector<SequenceLogits> out;
  for (PlmSequence& seq : SerializeTable(t)) {
    KGLINK_CHECK(!seq.tokens.empty());
    nn::Tensor hidden =
        EncodeTokens(seq.tokens, seq.segments, /*training=*/false);
    out.push_back({std::move(seq.source_cols),
                   cls_head_->Forward(nn::Rows(hidden, seq.cls_positions))});
  }
  return out;
}

double PlmColumnAnnotator::EvaluateCorpus(const table::Corpus& corpus) {
  int64_t correct = 0;
  int64_t total = 0;
  for (const auto& lt : corpus.tables) {
    std::vector<int> pred = PredictTable(lt.table);
    for (size_t c = 0; c < lt.column_labels.size(); ++c) {
      if (lt.column_labels[c] == table::kUnlabeled) continue;
      ++total;
      if (pred[c] == lt.column_labels[c]) ++correct;
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(correct) /
                          static_cast<double>(total);
}

void PlmColumnAnnotator::Fit(const table::Corpus& train,
                             const table::Corpus& valid) {
  Stopwatch watch;
  label_names_ = train.label_names;
  rng_ = std::make_unique<Rng>(options_.seed);

  std::vector<std::string> texts = label_names_;
  for (const auto& lt : train.tables) {
    for (int r = 0; r < lt.table.num_rows(); ++r) {
      for (int c = 0; c < lt.table.num_cols(); ++c) {
        texts.push_back(lt.table.at(r, c).text);
      }
    }
  }
  CollectExtraVocabTexts(&texts);
  vocab_ = nn::Vocabulary::Build(texts, options_.max_vocab);

  Prepare(train);

  nn::EncoderConfig enc = options_.encoder;
  enc.vocab_size = vocab_->size();
  enc.max_seq_len = std::max(enc.max_seq_len, options_.max_seq_len);
  encoder_ = std::make_unique<nn::TransformerEncoder>(enc, *rng_);
  cls_head_ = nn::Linear(enc.dim, train.num_labels(), *rng_, "plm.cls_head");

  std::vector<nn::NamedParam> params = encoder_->Parameters();
  cls_head_->CollectParams(&params);
  nn::AdamWOptions adam;
  adam.lr = options_.lr;
  adam.weight_decay = options_.weight_decay;
  nn::AdamW optimizer(std::move(params), adam);

  int64_t steps_per_epoch =
      (static_cast<int64_t>(train.tables.size()) + options_.batch_size - 1) /
      options_.batch_size;
  nn::LinearDecaySchedule schedule(options_.lr,
                                   steps_per_epoch * options_.epochs);

  std::vector<size_t> order(train.tables.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  double best_valid = -1.0;
  int bad_epochs = 0;
  std::vector<std::vector<float>> best_params;
  auto snapshot = [&] {
    best_params.clear();
    for (const auto& p : optimizer.params()) {
      best_params.push_back(p.tensor.data());
    }
  };
  auto restore = [&] {
    if (best_params.empty()) return;
    auto prm = optimizer.params();
    for (size_t i = 0; i < prm.size(); ++i) {
      prm[i].tensor.data() = best_params[i];
    }
  };

  int64_t step = 0;
  float loss_scale = 1.0f / static_cast<float>(options_.batch_size);
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng_->Shuffle(order);
    double epoch_loss = 0.0;
    int in_batch = 0;
    optimizer.ZeroGrad();
    for (size_t idx : order) {
      const auto& lt = train.tables[idx];
      epoch_loss += TrainTable(lt.table, lt.column_labels, loss_scale);
      if (++in_batch == options_.batch_size) {
        optimizer.ClipGradNorm(options_.clip_norm);
        optimizer.Step(schedule.LrAt(step++));
        optimizer.ZeroGrad();
        in_batch = 0;
      }
    }
    if (in_batch > 0) {
      optimizer.ClipGradNorm(options_.clip_norm);
      optimizer.Step(schedule.LrAt(step++));
      optimizer.ZeroGrad();
    }

    double valid_acc =
        EvaluateCorpus(valid.tables.empty() ? train : valid);
    if (options_.verbose) {
      std::fprintf(stderr, "[%s] epoch %d loss=%.4f valid_acc=%.4f\n",
                   name().c_str(), epoch,
                   epoch_loss / std::max<size_t>(1, train.tables.size()),
                   valid_acc);
    }
    if (valid_acc > best_valid) {
      best_valid = valid_acc;
      bad_epochs = 0;
      snapshot();
    } else if (++bad_epochs > options_.patience) {
      break;
    }
  }
  restore();
  fit_seconds_ = watch.ElapsedSeconds();
}

std::vector<int> PlmColumnAnnotator::PredictTable(const table::Table& t) {
  nn::NoGradGuard no_grad;  // eval forward: no tape (see nn/tensor.h)
  std::vector<int> pred(static_cast<size_t>(t.num_cols()), 0);
  for (const SequenceLogits& seq : PredictLogits(t)) {
    const auto& data = seq.logits.data();
    int num_labels = seq.logits.cols();
    for (size_t j = 0; j < seq.source_cols.size(); ++j) {
      const float* row = data.data() + j * static_cast<size_t>(num_labels);
      int best = 0;
      for (int l = 1; l < num_labels; ++l) {
        if (row[l] > row[best]) best = l;
      }
      pred[static_cast<size_t>(seq.source_cols[j])] = best;
    }
  }
  return pred;
}

}  // namespace kglink::baselines
