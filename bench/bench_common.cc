#include "bench/bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "obs/heap_profiler.h"
#include "obs/json_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "util/csv.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

#ifndef KGLINK_GIT_DESCRIBE
#define KGLINK_GIT_DESCRIBE "unknown"
#endif

namespace kglink::bench {

namespace {

// Exit-time export targets (set once by InitObservabilityFromEnv).
std::string& TracePath() {
  static std::string& path = *new std::string();
  return path;
}
std::string& MetricsPath() {
  static std::string& path = *new std::string();
  return path;
}
std::string& ProfilePrefix() {
  static std::string& path = *new std::string();
  return path;
}

void ExportProfileAtExit() {
  obs::Profiler& profiler = obs::Profiler::Global();
  profiler.Stop();
  const std::string collapsed = ProfilePrefix() + ".collapsed";
  const std::string speedscope = ProfilePrefix() + ".speedscope.json";
  Status s = profiler.WriteCollapsed(collapsed);
  if (s.ok()) s = profiler.WriteSpeedscope(speedscope);
  if (!s.ok()) {
    KGLINK_LOG(kWarn, "bench.profile_export_failed")
        .With("prefix", ProfilePrefix())
        .With("status", s.ToString());
    return;
  }
  if (obs::HeapProfiler::Global().enabled()) {
    (void)obs::HeapProfiler::Global().WriteCollapsed(ProfilePrefix() +
                                                     ".heap.collapsed");
  }
  std::fprintf(stderr, "profile: %lld samples -> %s, %s\n",
               static_cast<long long>(profiler.samples()), collapsed.c_str(),
               speedscope.c_str());
  std::string summary = profiler.SummaryText();
  if (!summary.empty()) std::fputs(summary.c_str(), stderr);
}

void ExportObservabilityAtExit() {
  if (!TracePath().empty()) {
    obs::TraceRecorder::Global().Stop();
    Status s = obs::TraceRecorder::Global().WriteChromeJson(TracePath());
    if (!s.ok()) {
      KGLINK_LOG(kWarn, "bench.trace_export_failed")
          .With("path", TracePath())
          .With("status", s.ToString());
    }
  }
  if (!MetricsPath().empty()) {
    Status s = obs::MetricsRegistry::Global().WriteSnapshot(MetricsPath());
    if (!s.ok()) {
      KGLINK_LOG(kWarn, "bench.metrics_export_failed")
          .With("path", MetricsPath())
          .With("status", s.ToString());
    }
  }
}

double ReadScale() {
  static const double scale = [] {
    const char* s = std::getenv("KGLINK_BENCH_SCALE");
    if (s == nullptr) return 1.0;
    double v = 0.0;
    if (!ParseFiniteDouble(std::string_view(s), &v) || v <= 0) {
      std::fprintf(stderr,
                   "ignoring bad KGLINK_BENCH_SCALE '%s': using 1.0\n", s);
      return 1.0;
    }
    return v;
  }();
  return scale;
}

// ----- bench telemetry -----

struct BenchMetric {
  std::string name;
  double value;
  std::string unit;
  int64_t repetitions;
};

std::string& BenchName() {
  static std::string& name = *new std::string();
  return name;
}

std::vector<BenchMetric>& BenchMetrics() {
  static std::vector<BenchMetric>& metrics = *new std::vector<BenchMetric>();
  return metrics;
}

std::string SanitizeMetricName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

void WriteBenchTelemetryAtExit() {
  const std::string git = KGLINK_GIT_DESCRIBE;
  // A "-dirty" describe means the binary was built from uncommitted
  // sources: such numbers are unreproducible and must never become
  // committed baselines. The explicit flag lets bench_compare.py and CI
  // reject them without re-parsing the describe string.
  const bool dirty = git.size() >= 6 &&
                     git.compare(git.size() - 6, 6, "-dirty") == 0;
  std::string json = "{\"bench\":\"" + obs::JsonEscape(BenchName()) + "\"";
  json += ",\"git\":\"" + obs::JsonEscape(git) + "\"";
  json += std::string(",\"dirty\":") + (dirty ? "true" : "false");
  json += ",\"scale\":" + obs::JsonNumber(ReadScale());
  json += ",\"metrics\":[";
  const std::vector<BenchMetric>& metrics = BenchMetrics();
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ',';
    json += "{\"name\":\"" + obs::JsonEscape(metrics[i].name) + "\"";
    json += ",\"value\":" + obs::JsonNumber(metrics[i].value);
    json += ",\"unit\":\"" + obs::JsonEscape(metrics[i].unit) + "\"";
    json += ",\"repetitions\":" + std::to_string(metrics[i].repetitions);
    json += "}";
  }
  json += "]}";
  const char* out_dir = std::getenv("KGLINK_BENCH_OUT");
  std::string path = out_dir != nullptr && out_dir[0] != '\0'
                         ? std::string(out_dir) + "/"
                         : std::string();
  path += "BENCH_" + BenchName() + ".json";
  Status s = WriteFile(path, json);
  if (!s.ok()) {
    KGLINK_LOG(kWarn, "bench.telemetry_export_failed")
        .With("path", path)
        .With("status", s.ToString());
  } else {
    std::fprintf(stderr, "bench telemetry: %zu metrics -> %s\n",
                 metrics.size(), path.c_str());
  }
}

BenchEnv BuildEnv() {
  BenchEnv env;
  env.scale = ReadScale();
  // A large world relative to the corpus size keeps entity reuse across
  // tables low, so test tables are dominated by rarely-seen surface forms
  // — the regime where context, closed-class tokens and KG evidence (not
  // cell memorization) drive accuracy, as on the real benchmarks.
  data::WorldConfig wc;
  wc.scale = 1.0;
  wc.open_class_scale = 20.0;
  wc.duplicate_entity_prob = 0.20;
  env.world = data::GenerateWorld(wc);
  env.engine = search::IndexKnowledgeGraph(env.world.kg);

  env.semtab_tables = std::max(40, static_cast<int>(200 * env.scale));
  env.viznet_tables = std::max(60, static_cast<int>(320 * env.scale));

  table::Corpus semtab = data::GenerateSemTabCorpus(
      env.world, data::CorpusOptions::SemTabDefaults(env.semtab_tables));
  table::Corpus viznet = data::GenerateVizNetCorpus(
      env.world, data::CorpusOptions::VizNetDefaults(env.viznet_tables));
  Rng semtab_rng(2024);
  Rng viznet_rng(2025);
  env.semtab = table::StratifiedSplit(semtab, 0.7, 0.1, semtab_rng);
  env.viznet = table::StratifiedSplit(viznet, 0.7, 0.1, viznet_rng);
  return env;
}

}  // namespace

void InitObservabilityFromEnv() {
  static bool initialized = [] {
    const char* trace = std::getenv("KGLINK_TRACE");
    const char* metrics = std::getenv("KGLINK_METRICS");
    if (trace != nullptr && trace[0] != '\0') TracePath() = trace;
    if (metrics != nullptr && metrics[0] != '\0') MetricsPath() = metrics;
    if (!TracePath().empty()) obs::TraceRecorder::Global().Start();
    if (!TracePath().empty() || !MetricsPath().empty()) {
      std::atexit(ExportObservabilityAtExit);
    }
    const char* heap = std::getenv("KGLINK_HEAP_PROFILE");
    int heap_on = 0;
    if (heap != nullptr && heap[0] != '\0' &&
        !ParseNonNegativeInt(std::string_view(heap), &heap_on)) {
      std::fprintf(stderr,
                   "ignoring bad KGLINK_HEAP_PROFILE '%s': heap profiler "
                   "stays off\n",
                   heap);
    }
    if (heap_on != 0) {
      if (obs::kHeapProfilerCompiledIn) {
        obs::HeapProfiler::Global().Enable({});
      } else {
        std::fprintf(stderr,
                     "KGLINK_HEAP_PROFILE set but this build has no heap "
                     "profiler (configure -DKGLINK_ENABLE_HEAP_PROFILER=ON)\n");
      }
    }
    const char* profile = std::getenv("KGLINK_PROFILE");
    if (profile != nullptr && profile[0] != '\0') {
      ProfilePrefix() = profile;
      obs::ProfilerOptions opts;
      const char* hz = std::getenv("KGLINK_PROFILE_HZ");
      int parsed_hz = 0;
      if (hz != nullptr && hz[0] != '\0') {
        if (ParseNonNegativeInt(std::string_view(hz), &parsed_hz)) {
          opts.hz = parsed_hz;
        } else {
          std::fprintf(stderr,
                       "ignoring bad KGLINK_PROFILE_HZ '%s': using %d Hz\n",
                       hz, opts.hz);
        }
      }
      Status s = obs::Profiler::Global().Start(opts);
      if (!s.ok()) {
        std::fprintf(stderr, "profiler start failed: %s\n",
                     s.ToString().c_str());
        ProfilePrefix().clear();
      } else {
        std::atexit(ExportProfileAtExit);
      }
    }
    return true;
  }();
  (void)initialized;
}

void InitBenchTelemetry(const std::string& bench_name) {
  if (!BenchName().empty()) return;
  BenchName() = SanitizeMetricName(bench_name);
  std::atexit(WriteBenchTelemetryAtExit);
}

void RecordBenchMetric(const std::string& name, double value,
                       const std::string& unit, int64_t repetitions) {
  BenchMetrics().push_back(
      {SanitizeMetricName(name), value, unit, repetitions});
}

BenchEnv& GetEnv() {
  InitObservabilityFromEnv();
  static BenchEnv& env = *new BenchEnv(BuildEnv());
  return env;
}

core::KgLinkOptions KgLinkDefaults(bool viznet) {
  core::KgLinkOptions o;
  // Paper: dropout 0.1 (SemTab) / 0.2 (VizNet), 50/20 epochs, k=25 rows.
  // Our from-scratch encoder needs far fewer epochs at lr 1e-3.
  o.encoder.dropout = viznet ? 0.2f : 0.1f;
  o.epochs = 12;
  o.batch_size = 4;
  o.linker.top_k_rows = 25;
  o.seed = 1234;
  return o;
}

baselines::PlmOptions PlmDefaults(const std::string& name, bool viznet) {
  baselines::PlmOptions o;
  o.encoder.dropout = viznet ? 0.2f : 0.1f;
  o.epochs = 12;
  o.batch_size = 4;
  o.display_name = name;
  o.seed = 4242;
  return o;
}

std::vector<std::unique_ptr<eval::ColumnAnnotator>> AllSystems(
    const BenchEnv& env, bool viznet) {
  std::vector<std::unique_ptr<eval::ColumnAnnotator>> systems;
  systems.push_back(std::make_unique<baselines::MtabAnnotator>(
      &env.world.kg, &env.engine, baselines::MtabOptions{}));
  systems.push_back(std::make_unique<baselines::TabertAnnotator>(
      PlmDefaults("TaBERT", viznet)));
  systems.push_back(std::make_unique<baselines::DoduoAnnotator>(
      PlmDefaults("Doduo", viznet)));
  baselines::HnnOptions hnn;
  systems.push_back(std::make_unique<baselines::HnnAnnotator>(
      &env.world.kg, &env.engine, hnn));
  systems.push_back(std::make_unique<baselines::SudowoodoAnnotator>(
      PlmDefaults("Sudowoodo", viznet)));
  systems.push_back(std::make_unique<baselines::RecaAnnotator>(
      PlmDefaults("RECA", viznet)));
  systems.push_back(std::make_unique<core::KgLinkAnnotator>(
      &env.world.kg, &env.engine, KgLinkDefaults(viznet)));
  return systems;
}

RunResult RunSystem(eval::ColumnAnnotator& annotator,
                    const table::SplitCorpus& split,
                    const std::string& corpus_tag) {
  RunResult result;
  result.model = annotator.name();
  Stopwatch fit_watch;
  annotator.Fit(split.train, split.valid);
  result.fit_seconds = fit_watch.ElapsedSeconds();
  Stopwatch eval_watch;
  result.metrics = annotator.EvaluateWithPredictions(split.test,
                                                     &result.gold,
                                                     &result.pred);
  result.eval_seconds = eval_watch.ElapsedSeconds();
  KGLINK_LOG(kInfo, "bench.system_done")
      .With("model", result.model)
      .With("acc", 100 * result.metrics.accuracy, 2)
      .With("wf1", 100 * result.metrics.weighted_f1, 2)
      .With("fit_s", result.fit_seconds, 1)
      .With("eval_s", result.eval_seconds, 1);
  std::string prefix = result.model + "." +
                       (corpus_tag.empty() ? "run" : corpus_tag) + ".";
  RecordBenchMetric(prefix + "accuracy", 100 * result.metrics.accuracy,
                    "percent");
  RecordBenchMetric(prefix + "weighted_f1",
                    100 * result.metrics.weighted_f1, "percent");
  RecordBenchMetric(prefix + "fit_seconds", result.fit_seconds, "seconds");
  RecordBenchMetric(prefix + "eval_seconds", result.eval_seconds,
                    "seconds");
  return result;
}

void PrintHeader(const std::string& title, const std::string& detail) {
  std::printf("\n================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", detail.c_str());
  const BenchEnv& env = GetEnv();
  std::printf(
      "world: %lld entities / %lld triples; semtab-like: %d tables; "
      "viznet-like: %d tables (KGLINK_BENCH_SCALE=%.2f)\n",
      static_cast<long long>(env.world.kg.num_entities()),
      static_cast<long long>(env.world.kg.num_triples()), env.semtab_tables,
      env.viznet_tables, env.scale);
  std::printf("================================================\n");
}

}  // namespace kglink::bench
