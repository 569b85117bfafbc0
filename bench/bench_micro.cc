// google-benchmark microbenchmarks for the performance-critical kernels:
// BM25 retrieval, the Part-1 pipeline, serialization, encoder forward and
// a full training step. These back the complexity discussion in the
// paper's Section III-C (KGLink is linear in data size).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <vector>

#include "bench_common.h"
#include "core/annotator.h"
#include "core/serializer.h"
#include "data/corpus_gen.h"
#include "data/world.h"
#include "linker/pipeline.h"
#include "nn/layers.h"
#include "search/search_engine.h"
#include "util/check.h"

namespace kglink {
namespace {

struct MicroEnv {
  data::World world;
  search::SearchEngine engine;
  table::Corpus corpus;
  nn::Vocabulary vocab;

  MicroEnv()
      : world(data::GenerateWorld({.seed = 42, .scale = 1.0})),
        engine(search::IndexKnowledgeGraph(world.kg)),
        corpus(data::GenerateSemTabCorpus(
            world, data::CorpusOptions::SemTabDefaults(24))) {
    std::vector<std::string> texts;
    for (const auto& lt : corpus.tables) {
      for (int r = 0; r < lt.table.num_rows(); ++r) {
        for (int c = 0; c < lt.table.num_cols(); ++c) {
          texts.push_back(lt.table.at(r, c).text);
        }
      }
    }
    vocab = nn::Vocabulary::Build(texts, 6000);
  }
};

MicroEnv& Env() {
  // Arm KGLINK_TRACE / KGLINK_METRICS export; bench_micro builds its own
  // corpus instead of going through bench::GetEnv().
  bench::InitObservabilityFromEnv();
  static MicroEnv& env = *new MicroEnv();
  return env;
}

void BM_Bm25TopK(benchmark::State& state) {
  MicroEnv& env = Env();
  const auto& t = env.corpus.tables[0].table;
  int64_t queries = 0;
  for (auto _ : state) {
    for (int r = 0; r < t.num_rows(); ++r) {
      benchmark::DoNotOptimize(env.engine.TopK(t.at(r, 0).text, 10));
      ++queries;
    }
  }
  state.SetItemsProcessed(queries);
}
BENCHMARK(BM_Bm25TopK);

void BM_Part1Pipeline(benchmark::State& state) {
  MicroEnv& env = Env();
  linker::KgPipeline pipeline(&env.world.kg, &env.engine, {});
  size_t i = 0;
  int64_t tables = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pipeline.Process(env.corpus.tables[i % env.corpus.tables.size()]
                             .table));
    ++i;
    ++tables;
  }
  state.SetItemsProcessed(tables);
}
BENCHMARK(BM_Part1Pipeline);

// The perfbench fresh_long shape: SemTab-like tables of 100-200 rows over
// a world with a large open-class pool and same-label decoys (the
// perfbench world settings), cycled through the default 4096-entry cell
// cache. 64 tables hold far more distinct cells than the cache, so most
// lookups miss or evict and Part 1's linking and overlap work dominates.
struct FreshEnv {
  data::World world;
  search::SearchEngine engine;
  std::vector<table::Table> tables;

  FreshEnv()
      : world(data::GenerateWorld({.seed = 42,
                                   .open_class_scale = 20.0,
                                   .duplicate_entity_prob = 0.2})),
        engine(search::IndexKnowledgeGraph(world.kg)) {
    data::CorpusOptions options =
        data::CorpusOptions::SemTabDefaults(160, /*seed=*/3);
    options.min_rows = 100;
    options.max_rows = 200;
    // The generator shortens a table whose anchor class is smaller than
    // the drawn row count; keep the first 64 full-length ones.
    for (table::LabeledTable& lt :
         data::GenerateSemTabCorpus(world, options).tables) {
      if (lt.table.num_rows() >= 100 && tables.size() < 64) {
        tables.push_back(std::move(lt.table));
      }
    }
    KGLINK_CHECK_EQ(tables.size(), 64u);
  }
};

void BM_Part1PipelineFresh(benchmark::State& state) {
  bench::InitObservabilityFromEnv();
  static FreshEnv& env = *new FreshEnv();
  linker::KgPipeline pipeline(&env.world.kg, &env.engine, {});
  size_t i = 0;
  int64_t tables = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pipeline.Process(env.tables[i % env.tables.size()]));
    ++i;
    ++tables;
  }
  state.SetItemsProcessed(tables);
}
BENCHMARK(BM_Part1PipelineFresh);

void BM_Serialize(benchmark::State& state) {
  MicroEnv& env = Env();
  linker::KgPipeline pipeline(&env.world.kg, &env.engine, {});
  linker::ProcessedTable pt = pipeline.Process(env.corpus.tables[0].table);
  core::TableSerializer serializer(&env.vocab, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(serializer.Serialize(
        pt, core::LabelSlot::kMask, nullptr, /*use_candidate_types=*/true));
  }
}
BENCHMARK(BM_Serialize);

// Wall time and iterations actually executed by BM_EncoderForward, summed
// over every trial (including google-benchmark's untimed calibration
// ramp-up runs, which the reporter never sees but the sampling profiler
// does). scripts/profile_report.py reconciles the profiler's inclusive
// encoder.forward time against this total, not the reported per-iteration
// number, so calibration work cannot skew the comparison.
struct ForwardWallClock {
  int64_t wall_ns = 0;
  int64_t iterations = 0;
};

std::map<int64_t, ForwardWallClock>& ForwardWallClocks() {
  static std::map<int64_t, ForwardWallClock>& m =
      *new std::map<int64_t, ForwardWallClock>();
  return m;
}

void BM_EncoderForward(benchmark::State& state) {
  Rng init(1);
  nn::EncoderConfig config;
  config.vocab_size = 6000;
  config.max_seq_len = 192;
  nn::TransformerEncoder encoder(config, init);
  std::vector<int> tokens(static_cast<size_t>(state.range(0)));
  Rng rng(2);
  for (auto& t : tokens) t = static_cast<int>(rng.Uniform(6000));
  // Inference as the annotator serves it: no autograd tape.
  nn::NoGradGuard no_grad;
  auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Forward(tokens, rng, false));
  }
  auto stop = std::chrono::steady_clock::now();
  ForwardWallClock& wc = ForwardWallClocks()[state.range(0)];
  wc.wall_ns +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count();
  wc.iterations += state.iterations();
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncoderForward)->Arg(64)->Arg(128)->Arg(192);

// Batched padded inference: range(0) sequences padded to range(1) tokens.
// Lengths vary from max/2 up to max so the bench pays the padding and
// masking cost a real mixed-length drain pays, not the no-pad fast case.
void BM_EncoderForwardBatched(benchmark::State& state) {
  Rng init(1);
  nn::EncoderConfig config;
  config.vocab_size = 6000;
  config.max_seq_len = 192;
  nn::TransformerEncoder encoder(config, init);
  const int batch = static_cast<int>(state.range(0));
  const int max_len = static_cast<int>(state.range(1));
  Rng rng(2);
  std::vector<std::vector<int>> sequences(static_cast<size_t>(batch));
  int64_t total_tokens = 0;
  for (int i = 0; i < batch; ++i) {
    int len = batch > 1 ? max_len / 2 + (i * (max_len - max_len / 2)) /
                                            (batch - 1)
                        : max_len;
    sequences[static_cast<size_t>(i)].resize(static_cast<size_t>(len));
    for (auto& t : sequences[static_cast<size_t>(i)]) {
      t = static_cast<int>(rng.Uniform(6000));
    }
    total_tokens += len;
  }
  std::vector<nn::EncoderBatchItem> items(static_cast<size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    items[static_cast<size_t>(i)].token_ids = &sequences[static_cast<size_t>(i)];
  }
  nn::NoGradGuard no_grad;  // as in BM_EncoderForward
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.ForwardBatch(items, rng, false));
  }
  state.SetItemsProcessed(state.iterations() * total_tokens);
}
BENCHMARK(BM_EncoderForwardBatched)->Args({8, 64})->Args({8, 192});

void BM_EncoderTrainStep(benchmark::State& state) {
  Rng init(1);
  nn::EncoderConfig config;
  config.vocab_size = 6000;
  config.max_seq_len = 192;
  nn::TransformerEncoder encoder(config, init);
  nn::AdamW optimizer(encoder.Parameters(), {});
  std::vector<int> tokens(128);
  Rng rng(2);
  for (auto& t : tokens) t = static_cast<int>(rng.Uniform(6000));
  for (auto _ : state) {
    optimizer.ZeroGrad();
    nn::Tensor h = encoder.Forward(tokens, rng, true);
    nn::Mean(nn::Mul(h, h)).Backward();
    optimizer.Step();
  }
}
BENCHMARK(BM_EncoderTrainStep);

void BM_CorpusGeneration(benchmark::State& state) {
  MicroEnv& env = Env();
  uint64_t seed = 1;
  for (auto _ : state) {
    data::CorpusOptions opts = data::CorpusOptions::SemTabDefaults(8, seed++);
    benchmark::DoNotOptimize(data::GenerateSemTabCorpus(env.world, opts));
  }
}
BENCHMARK(BM_CorpusGeneration);

// Console reporter that additionally records every run into the bench
// telemetry buffer, so bench_micro drops a BENCH_micro.json like the
// table/figure benches.
class TelemetryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      bench::RecordBenchMetric(run.benchmark_name(),
                               run.GetAdjustedRealTime(),
                               benchmark::GetTimeUnitString(run.time_unit),
                               run.iterations);
    }
    ConsoleReporter::ReportRuns(reports);
  }
};

}  // namespace
}  // namespace kglink

int main(int argc, char** argv) {
  kglink::bench::InitBenchTelemetry("micro");
  // Explicit: filters like --benchmark_filter=BM_EncoderForward never reach
  // Env(), which is otherwise what arms KGLINK_TRACE/KGLINK_METRICS/
  // KGLINK_PROFILE export.
  kglink::bench::InitObservabilityFromEnv();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  kglink::TelemetryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (std::getenv("KGLINK_PROFILE") != nullptr) {
    for (const auto& [arg, wc] : kglink::ForwardWallClocks()) {
      if (wc.iterations <= 0) continue;
      kglink::bench::RecordBenchMetric(
          "BM_EncoderForward_" + std::to_string(arg) + ".profiled_wall_us",
          static_cast<double>(wc.wall_ns) / 1000.0, "us_total",
          wc.iterations);
    }
  }
  return 0;
}
