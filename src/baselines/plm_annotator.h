// Shared machinery for the PLM-based baselines (TaBERT-, Doduo-,
// Sudowoodo- and RECA-style): corpus vocabulary, transformer encoder,
// classification head, training loop with early stopping. Subclasses only
// decide how a table becomes token sequences (their serialization strategy
// is exactly what differentiates these systems in the paper) plus optional
// auxiliary losses.
#ifndef KGLINK_BASELINES_PLM_ANNOTATOR_H_
#define KGLINK_BASELINES_PLM_ANNOTATOR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eval/annotator.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "nn/vocab.h"

namespace kglink::baselines {

struct PlmOptions {
  nn::EncoderConfig encoder;
  int max_seq_len = 192;
  int max_cols = 8;
  int max_cell_tokens = 4;
  int epochs = 8;
  int batch_size = 8;
  float lr = 1e-3f;
  float weight_decay = 0.01f;
  float clip_norm = 1.0f;
  int patience = 3;
  int max_vocab = 6000;
  uint64_t seed = 4242;
  bool verbose = false;
  std::string display_name = "PLM";
};

// One serialized view of (part of) a table: a token sequence with a [CLS]
// position per predicted column.
struct PlmSequence {
  std::vector<int> tokens;
  // Parallel to tokens; empty means all-zero segments. Multi-column
  // serializations use the column index, RECA uses section indices.
  std::vector<int> segments;
  std::vector<int> cls_positions;
  std::vector<int> source_cols;
};

class PlmColumnAnnotator : public eval::ColumnAnnotator {
 public:
  explicit PlmColumnAnnotator(PlmOptions options);
  ~PlmColumnAnnotator() override;

  std::string name() const override { return options_.display_name; }
  void Fit(const table::Corpus& train, const table::Corpus& valid) override;
  // Argmax of PredictLogits, computed under nn::NoGradGuard (no tape), as
  // is the validation pass of Fit.
  std::vector<int> PredictTable(const table::Table& t) override;

  // Eval-mode logits of one serialized sequence: row j predicts table
  // column source_cols[j].
  struct SequenceLogits {
    std::vector<int> source_cols;
    nn::Tensor logits;  // [source_cols.size() x num_labels]
  };
  // Runs every sequence of `t` through the encoder and the head in eval
  // mode. Records a tape unless the caller holds nn::NoGradGuard.
  std::vector<SequenceLogits> PredictLogits(const table::Table& t);

  double fit_seconds() const { return fit_seconds_; }

 protected:
  // The subclass's serialization strategy. Must cover every column of the
  // table (possibly across several sequences).
  virtual std::vector<PlmSequence> SerializeTable(
      const table::Table& t) const = 0;

  // Hook run before training (e.g. RECA builds its related-table index).
  virtual void Prepare(const table::Corpus& train) { (void)train; }

  // Optional auxiliary training loss for one table (e.g. Sudowoodo's
  // self-supervised consistency term). Default: none (undefined tensor).
  virtual nn::Tensor AuxiliaryLoss(const table::Table& t, Rng& rng) {
    (void)t;
    (void)rng;
    return {};
  }

  // Extra texts for the vocabulary beyond the table cells.
  virtual void CollectExtraVocabTexts(std::vector<std::string>* texts) const {
    (void)texts;
  }

  // Helpers available to subclasses.
  const nn::Vocabulary& vocab() const { return *vocab_; }
  bool has_vocab() const { return vocab_.has_value(); }
  const PlmOptions& options() const { return options_; }
  nn::Tensor EncodeTokens(const std::vector<int>& tokens, bool training);
  nn::Tensor EncodeTokens(const std::vector<int>& tokens,
                          const std::vector<int>& segments, bool training);
  Rng& rng() { return *rng_; }

  // Standard multi-column serialization ([CLS] per column, cells top-down,
  // `row_limit` < 0 means all rows) — shared by several subclasses.
  std::vector<PlmSequence> SerializeMultiColumn(const table::Table& t,
                                                int row_limit) const;

 private:
  // One training forward + backward over `t`; returns the summed loss.
  double TrainTable(const table::Table& t, const std::vector<int>& labels,
                    float loss_scale);
  double EvaluateCorpus(const table::Corpus& corpus);

  PlmOptions options_;
  std::vector<std::string> label_names_;
  std::optional<nn::Vocabulary> vocab_;
  std::unique_ptr<nn::TransformerEncoder> encoder_;
  std::optional<nn::Linear> cls_head_;
  std::unique_ptr<Rng> rng_;
  double fit_seconds_ = 0.0;
};

}  // namespace kglink::baselines

#endif  // KGLINK_BASELINES_PLM_ANNOTATOR_H_
