#include "setup.h"

#include <stdexcept>
#include <unordered_map>

#include "data/corpus_gen.h"
#include "util/stopwatch.h"

namespace perfbench {

uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  Rng rng(seed ^ (stream * 0x9e3779b97f4a7c15ULL) ^
          (index * 0xbf58476d1ce4e5b9ULL));
  return rng.Next();
}

core::KgLinkOptions AnnotatorOptions() {
  core::KgLinkOptions options;
  options.epochs = kEpochs;
  return options;
}

double Workbench::TrainTablesPerSecond() const {
  return static_cast<double>(split.train.tables.size()) * fit_epochs / fit_s;
}

std::unique_ptr<Workbench> BuildWorkbench() {
  auto bench = std::make_unique<Workbench>();
  data::WorldConfig world_config;
  world_config.open_class_scale = 20.0;
  world_config.duplicate_entity_prob = 0.20;
  bench->world = data::GenerateWorld(world_config);
  bench->engine = search::IndexKnowledgeGraph(bench->world.kg);
  table::Corpus corpus = data::GenerateSemTabCorpus(
      bench->world, data::CorpusOptions::SemTabDefaults(200));
  Rng split_rng(2024);
  bench->split = table::StratifiedSplit(corpus, 0.7, 0.1, split_rng);
  bench->annotator = std::make_unique<core::KgLinkAnnotator>(
      &bench->world.kg, &bench->engine, AnnotatorOptions());
  kglink::Stopwatch watch;
  bench->annotator->Fit(bench->split.train, bench->split.valid);
  bench->fit_s = watch.ElapsedSeconds();
  bench->fit_epochs =
      static_cast<int>(bench->annotator->epoch_stats().size());
  return bench;
}

HotPool::HotPool(const table::Corpus& pool, core::KgLinkAnnotator& annotator,
                 double zipf_s)
    : pool_(pool), picker_(pool.tables.size(), zipf_s) {
  for (const table::LabeledTable& lt : pool.tables) {
    core::AnnotateOutcome out = annotator.AnnotateTable(lt.table);
    if (!out.status.ok() || out.degraded) {
      throw std::runtime_error("reference pass failed on table " +
                               lt.table.id());
    }
    references_.push_back(std::move(out.predictions));
  }
}

Job HotPool::Next(Rng& rng) {
  size_t i = picker_.Pick(rng);
  const table::LabeledTable& lt = pool_.tables[i];
  return {static_cast<int64_t>(i), &lt.table, &lt.column_labels,
          &references_[i], {}};
}

FreshPool::FreshPool(const data::World& world,
                     const std::vector<std::string>& label_names,
                     uint64_t seed, int stream, size_t count) {
  std::unordered_map<std::string, int> label_ids;
  for (size_t i = 0; i < label_names.size(); ++i) {
    label_ids.emplace(label_names[i], static_cast<int>(i));
  }
  data::CorpusOptions options = data::CorpusOptions::SemTabDefaults(
      static_cast<int>(count),
      StreamSeed(seed, static_cast<uint64_t>(stream), 0));
  options.min_rows = 100;
  options.max_rows = 200;
  table::Corpus corpus = data::GenerateSemTabCorpus(world, options);
  for (table::LabeledTable& lt : corpus.tables) {
    auto gold = std::make_shared<GoldTable>();
    for (int label : lt.column_labels) {
      auto it = label == table::kUnlabeled
                    ? label_ids.end()
                    : label_ids.find(
                          corpus.label_names[static_cast<size_t>(label)]);
      gold->gold.push_back(it == label_ids.end() ? table::kUnlabeled
                                                 : it->second);
    }
    gold->table = std::move(lt.table);
    tables_.push_back(std::move(gold));
  }
}

Job FreshPool::Next(Rng& /*rng*/) {
  size_t i = taken_.fetch_add(1);
  if (i >= tables_.size()) return {};
  // The slot is released here, so a served table lives only as long as
  // its Job (or a deferred check) holds it.
  std::shared_ptr<const GoldTable> next = std::move(tables_[i]);
  return {static_cast<int64_t>(i), &next->table, &next->gold, nullptr, next};
}

}  // namespace perfbench
