// Sherlock-style baseline (Hulsebos et al., KDD'19): per-column prediction
// from engineered features — character-class distributions, cell-length
// and word statistics, value-type fractions, distinct-value ratio, numeric
// summaries, and a hashed bag-of-words — fed to a small MLP. No table
// context, no KG, no transformer. Included as an extra reference point
// beyond the paper's Table I (the paper cites Sherlock as the classic
// deep-learning CTA system).
#ifndef KGLINK_BASELINES_SHERLOCK_H_
#define KGLINK_BASELINES_SHERLOCK_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eval/annotator.h"
#include "nn/layers.h"

namespace kglink::baselines {

struct SherlockOptions {
  int bow_dim = 64;     // hashed bag-of-words bucket count
  int hidden_dim = 96;
  int epochs = 12;
  int batch_size = 16;
  float lr = 1e-3f;
  float dropout = 0.2f;
  uint64_t seed = 31;
  std::string display_name = "Sherlock";
};

class SherlockAnnotator : public eval::ColumnAnnotator {
 public:
  explicit SherlockAnnotator(SherlockOptions options);
  ~SherlockAnnotator() override;

  std::string name() const override { return options_.display_name; }
  void Fit(const table::Corpus& train, const table::Corpus& valid) override;
  // Argmax of ColumnLogits per column, under nn::NoGradGuard (no tape).
  std::vector<int> PredictTable(const table::Table& t) override;

  // Eval-mode [1 x num_labels] logits for one column. Records a tape
  // unless the caller holds nn::NoGradGuard.
  nn::Tensor ColumnLogits(const table::Table& t, int col);

  // The engineered feature vector for one column (exposed for tests).
  std::vector<float> ExtractFeatures(const table::Table& t, int col) const;
  int feature_dim() const;

 private:
  nn::Tensor Forward(const std::vector<float>& features, bool training);

  SherlockOptions options_;
  std::vector<std::string> label_names_;
  std::optional<nn::Linear> hidden1_;
  std::optional<nn::Linear> hidden2_;
  std::optional<nn::Linear> out_;
  std::unique_ptr<Rng> rng_;
};

}  // namespace kglink::baselines

#endif  // KGLINK_BASELINES_SHERLOCK_H_
