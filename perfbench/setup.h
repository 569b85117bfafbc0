// What a benchmark run builds before it measures: the world, the BM25
// index, the SemTab-like corpus and a trained KgLinkAnnotator with the
// default encoder config, plus the request sources the workloads draw from.
#ifndef PERFBENCH_SETUP_H_
#define PERFBENCH_SETUP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/annotator.h"
#include "data/world.h"
#include "search/search_engine.h"
#include "serve/loadgen.h"
#include "table/corpus.h"
#include "util/rng.h"

namespace perfbench {

namespace core = kglink::core;
namespace data = kglink::data;
namespace search = kglink::search;
namespace table = kglink::table;
using kglink::Rng;

// Training epochs. At 4 the model has converged far enough that accuracy
// across annotator seeds stays within a few points (0.92-0.99), so a change
// that only perturbs float rounding, which moves the model as a new seed
// would, stays inside accuracy's bound. At 2 epochs it spans 0.68-0.90.
inline constexpr int kEpochs = 4;

// Seed of item `index` of random stream `stream` of a run seeded `seed`.
// Every stream a run draws from (callers, schedule, fresh tables) is one.
uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t index);

// The annotator configuration every workload serves and trains: library
// defaults (default EncoderConfig, batch 8, lr 1e-3, seed 1234) with
// kEpochs epochs.
core::KgLinkOptions AnnotatorOptions();

// The world, index, corpus and annotator are the fixed SemTab-like setting
// of the repository's paper benches (world seed 42, 200 tables, split seed
// 2024); the run's --seed moves every request stream, so the program sees
// different inputs but the same model. Not movable: the annotator borrows
// `world.kg` and `engine`.
struct Workbench {
  data::World world;
  search::SearchEngine engine;
  table::SplitCorpus split;
  std::unique_ptr<core::KgLinkAnnotator> annotator;
  double fit_s = 0.0;
  int fit_epochs = 0;

  // Training tables x epochs / Fit seconds of the last Fit.
  double TrainTablesPerSecond() const;
};

// Builds world, index and corpus, then fits an annotator on the
// train/valid split.
std::unique_ptr<Workbench> BuildWorkbench();

// A generated table with gold labels in the annotator's label space
// (table::kUnlabeled where the label is unknown to the model).
struct GoldTable {
  table::Table table;
  std::vector<int> gold;
};

// One request: the table, its gold labels and, when known before the run,
// the predictions the sequential reference pass produced for it.
struct Job {
  int64_t key = 0;  // names the table: pool index, or fresh-table serial
  const table::Table* table = nullptr;
  const std::vector<int>* gold = nullptr;
  const std::vector<int>* reference = nullptr;  // null: checked after the run
  std::shared_ptr<const GoldTable> owned;       // keeps a fresh table alive
};

class JobSource {
 public:
  virtual ~JobSource() = default;
  // Thread-safe. `rng` belongs to the calling thread.
  virtual Job Next(Rng& rng) = 0;
};

// The SemTab-like test split, drawn zipf-distributed by split order (the
// first table is the hottest). The constructor annotates every table once,
// sequentially with AnnotateTable: those predictions are the reference
// every served result must equal.
class HotPool : public JobSource {
 public:
  HotPool(const table::Corpus& pool, core::KgLinkAnnotator& annotator,
          double zipf_s);
  Job Next(Rng& rng) override;

 private:
  const table::Corpus& pool_;
  std::vector<std::vector<int>> references_;
  kglink::serve::ZipfPicker picker_;
};

// Never-seen SemTab-like tables of 100-200 rows over the same world,
// generated from (seed, stream) by one corpus-generator call in the
// constructor, so no table is generated while requests are timed. Each
// table is handed out once; then Next returns a Job with a null table.
class FreshPool : public JobSource {
 public:
  FreshPool(const data::World& world,
            const std::vector<std::string>& label_names, uint64_t seed,
            int stream, size_t count);

  Job Next(Rng& rng) override;

 private:
  std::vector<std::shared_ptr<const GoldTable>> tables_;
  std::atomic<size_t> taken_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_SETUP_H_
