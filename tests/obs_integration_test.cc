// End-to-end observability test: runs the same path as
//   kglink_cli train --trace=FILE --metrics=FILE
// (trace recorder armed around a full Fit + predict on a miniature corpus)
// and asserts the acceptance contract: the Chrome trace JSON is valid with
// balanced B/E events covering every Part-1 stage and every training
// epoch, and the metrics snapshot contains the required counter/gauge
// names with sane values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/annotator.h"
#include "data/corpus_gen.h"
#include "data/world.h"
#include "linker/row_filter.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/search_engine.h"
#include "util/csv.h"

namespace kglink {
namespace {

core::KgLinkOptions TinyOptions() {
  core::KgLinkOptions o;
  o.epochs = 2;
  o.early_stopping_patience = 5;  // never early-stop in 2 epochs
  o.encoder.dim = 24;
  o.encoder.num_heads = 2;
  o.encoder.num_layers = 1;
  o.encoder.ffn_dim = 32;
  o.serializer.max_seq_len = 96;
  o.linker.top_k_rows = 6;
  return o;
}

TEST(ObsIntegrationTest, TraceAndMetricsCoverTrainingRun) {
  data::WorldConfig wc;
  wc.scale = 0.25;
  data::World world = data::GenerateWorld(wc);
  search::SearchEngine engine = search::IndexKnowledgeGraph(world.kg);
  table::Corpus corpus = data::GenerateSemTabCorpus(
      world, data::CorpusOptions::SemTabDefaults(30));
  Rng rng(5);
  table::SplitCorpus split = table::StratifiedSplit(corpus, 0.7, 0.1, rng);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.ResetAll();
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Start();

  core::KgLinkAnnotator annotator(&world.kg, &engine, TinyOptions());
  annotator.Fit(split.train, split.valid);
  ASSERT_FALSE(split.test.tables.empty());
  annotator.PredictTable(split.test.tables[0].table);

  recorder.Stop();

  // ----- trace contract -----
  std::vector<obs::TraceEvent> events = recorder.Events();
  ASSERT_FALSE(events.empty());

  std::map<std::string, int> begins;
  std::vector<const obs::TraceEvent*> stack;
  for (const obs::TraceEvent& e : events) {
    if (e.phase == 'B') {
      ++begins[e.name];
      stack.push_back(&e);
    } else {
      ASSERT_EQ(e.phase, 'E');
      ASSERT_FALSE(stack.empty()) << "E without matching B: " << e.name;
      EXPECT_EQ(stack.back()->name, e.name);
      stack.pop_back();
    }
  }
  EXPECT_TRUE(stack.empty()) << "unclosed spans in trace";

  // Every Part-1 stage, once per processed table (train + valid + the
  // predicted test table).
  int tables = static_cast<int>(split.train.tables.size() +
                                split.valid.tables.size()) + 1;
  EXPECT_EQ(begins["part1.process"], tables);
  EXPECT_EQ(begins["part1.link_rows"], tables);
  EXPECT_EQ(begins["part1.row_filter"], tables);
  EXPECT_EQ(begins["part1.candidate_types"], tables);
  EXPECT_EQ(begins["part1.feature_sequence"], tables);
  // LinkRow's two halves, cell linking and the Eq. 3/6 overlap step, once
  // per row of every processed table.
  int rows = split.test.tables[0].table.num_rows();
  for (const table::Corpus* part : {&split.train, &split.valid}) {
    for (const table::LabeledTable& lt : part->tables) {
      rows += lt.table.num_rows();
    }
  }
  EXPECT_EQ(begins["part1.link_cells"], rows);
  EXPECT_EQ(begins["part1.overlap"], rows);
  // Every training epoch, plus the enclosing fit span.
  EXPECT_EQ(begins["train.fit"], 1);
  EXPECT_EQ(begins["train.epoch"], 2);
  EXPECT_EQ(begins["train.validate"], 2);

  std::string trace_json = recorder.ExportChromeJson();
  EXPECT_TRUE(obs::IsValidJson(trace_json));
  EXPECT_NE(trace_json.find("\"traceEvents\""), std::string::npos);

  // ----- metrics contract (the names the CLI integration relies on) -----
  EXPECT_GT(registry.GetCounter("search.topk.calls").value(), 0);
  EXPECT_GT(registry.GetCounter("search.topk.candidates").value(), 0);
  EXPECT_GT(registry.GetCounter("linker.rows.kept").value(), 0);
  EXPECT_GT(registry.GetCounter("linker.rows.dropped").value(), 0);
  EXPECT_GT(registry.GetCounter("linker.cells.linked").value(), 0);
  EXPECT_GT(registry.GetCounter("serializer.tokens.emitted").value(), 0);
  EXPECT_GT(registry.GetCounter("serializer.chunks").value(), 0);
  EXPECT_GT(registry.GetCounter("pipeline.tables.processed").value(), 0);
  EXPECT_EQ(registry.GetCounter("train.epoch.count").value(), 2);
  EXPECT_NE(registry.GetGauge("train.epoch.loss").value(), 0.0);
  EXPECT_GT(registry.GetHistogram("search.topk.latency_us").count(), 0);

  std::string metrics_json = registry.SnapshotJson();
  EXPECT_TRUE(obs::IsValidJson(metrics_json));
  for (const char* name :
       {"search.topk.calls", "linker.rows.kept", "linker.rows.dropped",
        "serializer.tokens.emitted", "train.epoch.loss"}) {
    EXPECT_NE(metrics_json.find(std::string("\"") + name + "\""),
              std::string::npos)
        << "metrics snapshot missing " << name << "\n" << metrics_json;
  }

  // ----- file export round-trip (what --trace= / --metrics= write) -----
  std::string dir = ::testing::TempDir();
  std::string trace_path = dir + "/kglink_obs_test.trace";
  std::string metrics_path = dir + "/kglink_obs_test.metrics.json";
  ASSERT_TRUE(recorder.WriteChromeJson(trace_path).ok());
  ASSERT_TRUE(registry.WriteSnapshot(metrics_path).ok());
  auto trace_back = ReadFile(trace_path);
  auto metrics_back = ReadFile(metrics_path);
  ASSERT_TRUE(trace_back.ok());
  ASSERT_TRUE(metrics_back.ok());
  EXPECT_EQ(*trace_back, trace_json);
  EXPECT_TRUE(obs::IsValidJson(*metrics_back));
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

// The row filter accounts every input row as kept or dropped.
TEST(ObsIntegrationTest, RowFilterAccountingAddsUp) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& kept = registry.GetCounter("linker.rows.kept");
  obs::Counter& dropped = registry.GetCounter("linker.rows.dropped");
  int64_t kept_before = kept.value();
  int64_t dropped_before = dropped.value();

  linker::LinkerConfig config;
  config.top_k_rows = 3;
  std::vector<double> scores = {0.5, 2.0, 1.0, 0.0, 4.0};
  std::vector<int> rows = linker::FilterRows(scores, config);
  EXPECT_EQ(rows.size(), 3u);
  EXPECT_EQ(kept.value() - kept_before, 3);
  EXPECT_EQ(dropped.value() - dropped_before, 2);
}

}  // namespace
}  // namespace kglink
