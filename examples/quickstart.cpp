// Quickstart: generate a synthetic world + corpus, train KGLink, annotate
// a held-out table, and print the predictions with their KG evidence.
//
//   ./build/examples/quickstart [num_tables]
#include <cstdio>

#include "core/annotator.h"
#include "data/corpus_gen.h"
#include "data/world.h"
#include "eval/metrics.h"
#include "search/search_engine.h"
#include "table/corpus.h"
#include "util/string_util.h"

using namespace kglink;

int main(int argc, char** argv) {
  int num_tables = 120;
  bool usage_ok = argc <= 2;
  if (argc == 2) {
    usage_ok = ParseNonNegativeInt(std::string_view(argv[1]), &num_tables) &&
               num_tables >= 1;
  }
  if (!usage_ok) {
    std::fprintf(stderr, "usage: %s [num_tables >= 1]\n", argv[0]);
    return 2;
  }

  // 1. The substrate: a WikiData-style synthetic KG and its BM25 index.
  data::WorldConfig world_config;
  world_config.scale = 0.6;
  data::World world = data::GenerateWorld(world_config);
  search::SearchEngine engine = search::IndexKnowledgeGraph(world.kg);
  std::printf("world: %lld entities, %lld triples\n",
              static_cast<long long>(world.kg.num_entities()),
              static_cast<long long>(world.kg.num_triples()));

  // 2. A SemTab-style corpus with a stratified 7:1:2 split.
  table::Corpus corpus = data::GenerateSemTabCorpus(
      world, data::CorpusOptions::SemTabDefaults(num_tables));
  Rng split_rng(99);
  table::SplitCorpus split = table::StratifiedSplit(corpus, 0.7, 0.1,
                                                    split_rng);
  std::printf("corpus: %zu train / %zu valid / %zu test tables, %d types\n",
              split.train.tables.size(), split.valid.tables.size(),
              split.test.tables.size(), corpus.num_labels());

  // 3. Train KGLink.
  core::KgLinkOptions options;
  options.epochs = 6;
  options.verbose = true;
  core::KgLinkAnnotator kglink_annotator(&world.kg, &engine, options);
  kglink_annotator.Fit(split.train, split.valid);

  // 4. Evaluate on the test split.
  eval::Metrics metrics = kglink_annotator.Evaluate(split.test);
  std::printf("test accuracy=%.2f%% weighted F1=%.2f%% (%lld columns)\n",
              100.0 * metrics.accuracy, 100.0 * metrics.weighted_f1,
              static_cast<long long>(metrics.total));

  // 5. Annotate one held-out table and show the KG evidence.
  if (!split.test.tables.empty()) {
    const table::LabeledTable& lt = split.test.tables[0];
    linker::ProcessedTable processed = kglink_annotator.Preprocess(lt.table);
    std::vector<int> pred = kglink_annotator.PredictProcessed(processed);
    std::printf("\nsample table %s:\n", lt.table.id().c_str());
    for (int c = 0; c < lt.table.num_cols(); ++c) {
      const auto& info = processed.columns[static_cast<size_t>(c)];
      std::string cts;
      for (const auto& label : info.candidate_type_labels) {
        if (!cts.empty()) cts += ", ";
        cts += label;
      }
      std::printf(
          "  col %d: first cell '%s' | predicted '%s' | gold '%s' | "
          "candidate types [%s]\n",
          c, lt.table.num_rows() ? lt.table.at(0, c).text.c_str() : "",
          corpus.label_names[static_cast<size_t>(pred[c])].c_str(),
          corpus.label_names[static_cast<size_t>(lt.column_labels[c])]
              .c_str(),
          cts.c_str());
    }
  }
  return 0;
}
