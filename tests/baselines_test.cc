// Baseline-annotator tests: each system trains on a miniature corpus,
// predicts sane shapes, and exhibits its characteristic behaviour (MTab's
// direct label translation, HNN's first-cell dependence, RECA's related-
// table retrieval, Sudowoodo's per-column isolation).
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "baselines/doduo.h"
#include "baselines/hnn.h"
#include "baselines/mtab.h"
#include "baselines/reca.h"
#include "baselines/sherlock.h"
#include "baselines/sudowoodo.h"
#include "baselines/tabert.h"
#include "data/corpus_gen.h"
#include "data/world.h"
#include "eval/metrics.h"
#include "nn/tensor.h"
#include "search/search_engine.h"

namespace kglink::baselines {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::WorldConfig wc;
    wc.scale = 0.25;
    world_ = new data::World(data::GenerateWorld(wc));
    engine_ = new search::SearchEngine(
        search::IndexKnowledgeGraph(world_->kg));
    table::Corpus corpus = data::GenerateSemTabCorpus(
        *world_, data::CorpusOptions::SemTabDefaults(40));
    Rng rng(5);
    split_ = new table::SplitCorpus(
        table::StratifiedSplit(corpus, 0.7, 0.1, rng));
  }
  static void TearDownTestSuite() {
    delete split_;
    delete engine_;
    delete world_;
  }

  static PlmOptions FastPlm(const char* name) {
    PlmOptions o;
    o.encoder.dim = 24;
    o.encoder.num_heads = 2;
    o.encoder.num_layers = 1;
    o.encoder.ffn_dim = 32;
    o.max_seq_len = 96;
    o.epochs = 5;
    o.display_name = name;
    return o;
  }

  static void ExpectLearns(eval::ColumnAnnotator& annotator,
                           double min_train_accuracy) {
    annotator.Fit(split_->train, split_->valid);
    eval::Metrics m = annotator.Evaluate(split_->train);
    EXPECT_GT(m.accuracy, min_train_accuracy) << annotator.name();
    // Predictions must have one entry per column, in label range.
    std::vector<int> pred =
        annotator.PredictTable(split_->test.tables[0].table);
    EXPECT_EQ(pred.size(),
              split_->test.tables[0].column_labels.size());
    for (int p : pred) {
      EXPECT_GE(p, 0);
      EXPECT_LT(p, split_->train.num_labels());
    }
  }

  static data::World* world_;
  static search::SearchEngine* engine_;
  static table::SplitCorpus* split_;
};
data::World* BaselinesTest::world_ = nullptr;
search::SearchEngine* BaselinesTest::engine_ = nullptr;
table::SplitCorpus* BaselinesTest::split_ = nullptr;

TEST_F(BaselinesTest, DoduoLearns) {
  DoduoAnnotator doduo(FastPlm("Doduo"));
  EXPECT_EQ(doduo.name(), "Doduo");
  ExpectLearns(doduo, 0.15);
}

TEST_F(BaselinesTest, TabertLearnsFromSnapshot) {
  TabertAnnotator tabert(FastPlm("TaBERT"), /*snapshot_rows=*/3);
  ExpectLearns(tabert, 0.15);
}

TEST_F(BaselinesTest, SudowoodoLearnsPerColumn) {
  SudowoodoAnnotator sudo(FastPlm("Sudowoodo"));
  ExpectLearns(sudo, 0.15);
}

TEST_F(BaselinesTest, RecaLearnsWithRelatedTables) {
  RecaAnnotator reca(FastPlm("RECA"));
  ExpectLearns(reca, 0.15);
}

TEST_F(BaselinesTest, HnnLearnsFromFirstCell) {
  HnnOptions o;
  o.epochs = 6;
  HnnAnnotator hnn(&world_->kg, engine_, o);
  ExpectLearns(hnn, 0.15);
}

TEST_F(BaselinesTest, MtabTranslatesKgTypesDirectly) {
  MtabOptions o;
  MtabAnnotator mtab(&world_->kg, engine_, o);
  mtab.Fit(split_->train, split_->valid);
  // SemTab regime: labels ARE KG type labels, so MTab should be strong.
  eval::Metrics m = mtab.Evaluate(split_->test);
  EXPECT_GT(m.accuracy, 0.5);
}

TEST_F(BaselinesTest, MtabFallsBackOnUnlinkableColumns) {
  MtabOptions o;
  MtabAnnotator mtab(&world_->kg, engine_, o);
  mtab.Fit(split_->train, split_->valid);
  // A numeric table has no candidate types anywhere: every prediction is
  // the majority-class fallback.
  table::Table numeric = table::Table::FromStrings(
      "nums", {{"1", "2"}, {"3", "4"}, {"5", "6"}});
  std::vector<int> pred = mtab.PredictTable(numeric);
  ASSERT_EQ(pred.size(), 2u);
  EXPECT_EQ(pred[0], pred[1]);  // same fallback everywhere
}

TEST_F(BaselinesTest, HnnOnlyConsultsTheFirstCell) {
  HnnOptions o;
  o.epochs = 4;
  HnnAnnotator hnn(&world_->kg, engine_, o);
  hnn.Fit(split_->train, split_->valid);
  // Two tables identical in row 0, wildly different below: HNN cannot tell
  // them apart (by construction).
  table::Table a = table::Table::FromStrings(
      "a", {{"Rust"}, {"alpha"}, {"beta"}});
  table::Table b = table::Table::FromStrings(
      "b", {{"Rust"}, {"gamma"}, {"delta"}});
  EXPECT_EQ(hnn.PredictTable(a), hnn.PredictTable(b));
}

TEST_F(BaselinesTest, EvaluateWithPredictionsReturnsFlatVectors) {
  DoduoAnnotator doduo(FastPlm("Doduo"));
  doduo.Fit(split_->train, split_->valid);
  std::vector<int> gold, pred;
  eval::Metrics m =
      doduo.EvaluateWithPredictions(split_->test, &gold, &pred);
  EXPECT_EQ(gold.size(), pred.size());
  EXPECT_EQ(static_cast<int64_t>(gold.size()), m.total);
}


bool BitEqual(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

int Argmax(const float* row, int n) {
  int best = 0;
  for (int l = 1; l < n; ++l) {
    if (row[l] > row[best]) best = l;
  }
  return best;
}

// A Doduo that notes, at every serialization, whether ops would record a
// tape right then: the eval path has to run under nn::NoGradGuard.
class TapeProbeDoduo : public DoduoAnnotator {
 public:
  using DoduoAnnotator::DoduoAnnotator;
  mutable int taped = 0;
  mutable int untaped = 0;

 protected:
  std::vector<PlmSequence> SerializeTable(
      const table::Table& t) const override {
    nn::Tensor probe = nn::Tensor::FromData({1, 1}, {1.0f},
                                            /*requires_grad=*/true);
    ++(nn::Gelu(probe).requires_grad() ? taped : untaped);
    return DoduoAnnotator::SerializeTable(t);
  }
};

TEST_F(BaselinesTest, PlmEvalBuildsNoTapeAndKeepsPredictions) {
  TapeProbeDoduo doduo(FastPlm("Doduo"));
  doduo.Fit(split_->train, split_->valid);
  // Fit trains with the tape and validates without it.
  EXPECT_GT(doduo.taped, 0);
  EXPECT_GT(doduo.untaped, 0);
  for (const table::LabeledTable& lt : split_->test.tables) {
    const table::Table& t = lt.table;
    doduo.taped = doduo.untaped = 0;
    std::vector<int> pred = doduo.PredictTable(t);
    EXPECT_EQ(doduo.taped, 0) << t.id();
    EXPECT_GT(doduo.untaped, 0) << t.id();

    // Logits with and without a tape are bit-identical, and PredictTable
    // is their argmax.
    auto taped = doduo.PredictLogits(t);
    std::vector<PlmColumnAnnotator::SequenceLogits> free;
    {
      nn::NoGradGuard no_grad;
      free = doduo.PredictLogits(t);
    }
    ASSERT_EQ(taped.size(), free.size());
    std::vector<int> want(static_cast<size_t>(t.num_cols()), 0);
    for (size_t i = 0; i < taped.size(); ++i) {
      EXPECT_TRUE(taped[i].logits.requires_grad());
      EXPECT_FALSE(free[i].logits.requires_grad());
      EXPECT_TRUE(BitEqual(taped[i].logits, free[i].logits)) << t.id();
      EXPECT_EQ(taped[i].source_cols, free[i].source_cols);
      const int n = taped[i].logits.cols();
      for (size_t j = 0; j < taped[i].source_cols.size(); ++j) {
        want[static_cast<size_t>(taped[i].source_cols[j])] = Argmax(
            taped[i].logits.data().data() + j * static_cast<size_t>(n), n);
      }
    }
    EXPECT_EQ(pred, want) << t.id();
  }
}

TEST_F(BaselinesTest, SherlockEvalLogitsAreBitIdenticalWithoutTape) {
  SherlockOptions options;
  options.epochs = 2;
  SherlockAnnotator sherlock(options);
  sherlock.Fit(split_->train, split_->valid);
  for (const table::LabeledTable& lt : split_->test.tables) {
    const table::Table& t = lt.table;
    std::vector<int> want;
    for (int c = 0; c < t.num_cols(); ++c) {
      nn::Tensor taped = sherlock.ColumnLogits(t, c);
      nn::Tensor free;
      {
        nn::NoGradGuard no_grad;
        free = sherlock.ColumnLogits(t, c);
      }
      EXPECT_TRUE(taped.requires_grad());
      EXPECT_FALSE(free.requires_grad());
      EXPECT_TRUE(BitEqual(taped, free)) << t.id() << " col " << c;
      want.push_back(Argmax(taped.data().data(), taped.cols()));
    }
    EXPECT_EQ(sherlock.PredictTable(t), want) << t.id();
  }
}

}  // namespace
}  // namespace kglink::baselines
