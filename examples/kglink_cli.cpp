// kglink_cli — end-to-end command-line workflow around the library:
//
//   kglink_cli gen-data   <dir> [--style semtab|viznet] [--tables N]
//       generate a world + corpus; writes the corpus (CSV + manifest),
//       the KG (TSV) and the train/valid/test splits under <dir>.
//   kglink_cli train      <dir> --model <prefix> [--epochs N]
//       train KGLink on <dir>'s train/valid splits; saves the model.
//   kglink_cli eval       <dir> --model <prefix>
//       evaluate a saved model on <dir>'s test split.
//   kglink_cli annotate   <dir> --model <prefix> <file.csv>
//       annotate an arbitrary CSV with a saved model.
//
// The world/KG is regenerated deterministically from the seed recorded in
// <dir>/world.seed, so a saved model stays consistent with its KG.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/annotator.h"
#include "data/corpus_gen.h"
#include "data/world.h"
#include "eval/explain_report.h"
#include "eval/metrics.h"
#include "obs/flight_recorder.h"
#include "obs/heap_profiler.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/provenance.h"
#include "obs/statsz.h"
#include "obs/trace.h"
#include "robust/fault_injector.h"
#include "search/search_engine.h"
#include "serve/annotation_service.h"
#include "serve/loadgen.h"
#include "store/snapshot_store.h"
#include "store/snapshot_writer.h"
#include "table/corpus_io.h"
#include "util/csv.h"
#include "util/deadline.h"
#include "util/string_util.h"

using namespace kglink;

namespace {

struct Args {
  std::string command;
  std::string dir;
  std::string model_prefix;
  std::string csv_path;
  std::string style = "semtab";
  std::string trace_path;    // --trace=FILE: Chrome trace-event JSON
  std::string metrics_path;  // --metrics=FILE: metrics snapshot JSON
  std::string explain_dir;   // --explain=DIR: provenance JSONL + report
  std::string statsz_path;   // --statsz=FILE: periodic status-page JSON
  std::string slow_log_path; // --slow-log=FILE: flight-recorder JSONL
  std::string profile_prefix;  // --profile=PREFIX: sampling profiler export
  int profile_hz = 997;        // --profile-hz N: sampling frequency
  bool heap_profile = false;   // --heap-profile: heap attribution
  int64_t statsz_interval_ms = 1000;  // --statsz-interval-ms N
  int64_t slo_ms = 0;        // --slo-ms N: served latency SLO target
  int64_t slow_ms = 0;       // --slow-ms N: flight-record threshold
  int64_t slow_every = 0;    // --slow-every N: also record 1-in-N
  std::string faults;        // --faults=site:prob[:latency_us],...
  uint64_t fault_seed = 42;  // --fault-seed=N
  // Snapshot store (train / eval / annotate; --save-snapshot also in
  // gen-data). --snapshot serves the KG + BM25 index straight out of a
  // mapped snapshot file; a bad file quarantines and falls back to the
  // deterministic rebuild.
  std::string snapshot_path;         // --snapshot=FILE
  std::string save_snapshot_path;    // --save-snapshot=FILE
  std::string reload_snapshot_path;  // --reload-snapshot=FILE (served eval)
  std::string snapshot_validate = "eager";  // --snapshot-validate=eager|lazy
  uint64_t snapshot_generation = 1;  // --snapshot-generation=N
  int tables = 160;
  int epochs = 8;
  uint64_t seed = 42;
  // Serving knobs (eval / annotate): 1 thread and no deadline = the
  // sequential in-process path; anything else routes through the
  // AnnotationService.
  int threads = 1;        // --threads N: service worker threads
  int64_t deadline_ms = 0;  // --deadline-ms N: per-request deadline
  int max_queue = 64;     // --max-queue N: admission-control bound
  int encode_batch = 1;   // --encode-batch N: padded encoder batch drain
  int cell_cache = 4096;  // --cell-cache N: cell-link cache entries (0=off)
  // Overload control (served eval / load eval).
  double retry_budget = 0.0;  // --retry-budget N: retry tokens/s (0=off)
  // Load-eval (eval with --load-rate > 0): open-loop arrivals against the
  // service instead of one submission per test table.
  double load_rate = 0.0;          // --load-rate R: offered arrivals/s
  double load_duration_s = 5.0;    // --load-duration-s S
  double load_zipf = 1.1;          // --load-zipf S: popularity skew
  int64_t load_burst_on_ms = 0;    // --load-burst-on-ms N
  int64_t load_burst_off_ms = 0;   // --load-burst-off-ms N
  uint64_t load_seed = 1;          // --load-seed N
};

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  kglink_cli gen-data <dir> [--style semtab|viznet] [--tables N] "
      "[--seed S]\n"
      "  kglink_cli train    <dir> --model <prefix> [--epochs N]\n"
      "  kglink_cli eval     <dir> --model <prefix>\n"
      "  kglink_cli annotate <dir> --model <prefix> <file.csv>\n"
      "  kglink_cli report   <explain-dir | provenance.jsonl>\n"
      "\n"
      "serving (eval / annotate):\n"
      "  --threads N      annotate test tables concurrently on an N-worker\n"
      "                   AnnotationService (default 1 = sequential)\n"
      "  --deadline-ms N  per-request deadline; an expired request degrades\n"
      "                   to the PLM-only path instead of blocking\n"
      "  --max-queue N    admission-control queue bound (default 64);\n"
      "                   overflow requests are shed to the degraded path\n"
      "  --encode-batch N workers drain up to N queued requests into one\n"
      "                   padded, attention-masked encoder forward\n"
      "                   (default 1 = sequential); a member whose deadline\n"
      "                   cannot survive the batch degrades instead\n"
      "  --slo-ms N       served-latency SLO target; HealthJson/--statsz\n"
      "                   report sliding-window compliance and burn rate\n"
      "                   against it (default 100)\n"
      "\n"
      "overload control (served eval / load eval):\n"
      "  --retry-budget N retry token budget shared by the service's\n"
      "                   requests (tokens/s, burst 2N; 0 = off). An\n"
      "                   exhausted budget degrades the operation instead\n"
      "                   of retrying\n"
      "\n"
      "load eval (eval --load-rate R, requires --threads/--model):\n"
      "  --load-rate R         open-loop offered arrivals/s over the test\n"
      "                        tables (0 = normal served eval)\n"
      "  --load-duration-s S   offered window (default 5)\n"
      "  --load-zipf S         zipfian table-popularity exponent (default\n"
      "                        1.1; 0 = uniform)\n"
      "  --load-burst-on-ms N  on/off bursty arrivals: on-window (0 =\n"
      "                        steady)\n"
      "  --load-burst-off-ms N off-window\n"
      "  --load-seed N         arrival-schedule seed (default 1)\n"
      "\n"
      "retrieval (train / eval / annotate):\n"
      "  --cell-cache N   cell-link cache capacity in entries (default\n"
      "                   4096; 0 disables). Memoizes cell-text -> BM25\n"
      "                   top-k results across rows and tables; hit/miss/\n"
      "                   eviction counts appear under search.cache.* in\n"
      "                   --metrics output\n"
      "\n"
      "observability (any command):\n"
      "  --trace=FILE    write a Chrome trace-event JSON (load in\n"
      "                  chrome://tracing or https://ui.perfetto.dev)\n"
      "  --metrics=FILE  write a metrics snapshot (counters, gauges,\n"
      "                  latency histograms) as JSON\n"
      "  --explain=DIR   record per-column decision provenance (BM25 hits,\n"
      "                  filter decisions, candidate types, final logits)\n"
      "                  to DIR/provenance.jsonl; eval/annotate runs also\n"
      "                  write DIR/report.{txt,json} — the accuracy split\n"
      "                  by linked/unlinked/degraded columns\n"
      "  --statsz=FILE   rewrite FILE every --statsz-interval-ms (default\n"
      "                  1000) with a /statsz-style JSON status page:\n"
      "                  metrics snapshot plus, in served runs, the\n"
      "                  service's sliding-window latency/SLO health\n"
      "  --slow-ms N     flight-record any served request slower than N ms\n"
      "                  (stage breakdown as one JSON line, in-memory ring)\n"
      "  --slow-every N  also flight-record every Nth served request\n"
      "  --slow-log=FILE dump the flight-recorder ring as JSONL at exit\n"
      "  --profile=PREFIX  run the in-process sampling profiler for the\n"
      "                  whole command; writes PREFIX.collapsed (flamegraph\n"
      "                  .pl input) and PREFIX.speedscope.json at exit.\n"
      "                  Served eval also prints a hot-frame summary\n"
      "  --profile-hz N  sampling frequency (default 997)\n"
      "  --heap-profile  attribute allocations to profile frames; writes\n"
      "                  PREFIX.heap.collapsed (needs a build configured\n"
      "                  with -DKGLINK_ENABLE_HEAP_PROFILER=ON)\n"
      "\n"
      "snapshots (crash-safe mmap store for the KG + BM25 index):\n"
      "  --save-snapshot=FILE     write the world's KG + finalized index as\n"
      "                           one mmap-able snapshot (atomic\n"
      "                           temp+fsync+rename publish)\n"
      "  --snapshot=FILE          serve train/eval/annotate straight out of\n"
      "                           the mapped snapshot (zero-copy); a\n"
      "                           corrupt file is quarantined to\n"
      "                           FILE.corrupt and the world is rebuilt\n"
      "                           from <dir>/world.seed instead\n"
      "  --snapshot-validate=MODE eager (default: full CRC sweep at open)\n"
      "                           or lazy (header now, sections on first\n"
      "                           use)\n"
      "  --reload-snapshot=FILE   served eval only: hot-reload FILE between\n"
      "                           requests mid-run (RCU generation swap; a\n"
      "                           bad file rolls back to the serving\n"
      "                           generation)\n"
      "  --snapshot-generation=N  generation stamp for --save-snapshot\n"
      "                           (default 1; surfaced in HealthJson)\n"
      "\n"
      "fault injection (any command; for chaos testing):\n"
      "  --faults=SPEC   comma-separated site:prob[:latency_us] rules,\n"
      "                  e.g. --faults=search.topk:0.1,io.read:0.05:250\n"
      "                  sites: search.topk kg.neighbors io.read io.write\n"
      "                  train.batch predict (also via env KGLINK_FAULTS)\n"
      "  --fault-seed=N  seed for the deterministic fault streams\n"
      "                  (default 42; env KGLINK_FAULT_SEED)\n");
  return 2;
}

// Live while --statsz is active; ServedEval registers the service health
// section on it for the duration of the serving run.
std::unique_ptr<obs::StatszDumper> g_statsz;

// Parses a millisecond flag value that is later scaled to microseconds:
// digits only, and small enough that `* 1000` cannot overflow.
bool ParseMillis(const char* v, int64_t* out) {
  return ParseNonNegativeInt(std::string_view(v), out) &&
         *out <= INT64_MAX / 1000;
}

// Parses an integer flag value: the whole field, digits only, in T's range
// and at least `min`.
template <typename T>
bool ParseIntFlag(std::string_view v, T* out, std::type_identity_t<T> min = 0) {
  return ParseNonNegativeInt(v, out) && *out >= min;
}

// Parses a float flag value: the whole field, finite and >= 0.
bool ParseDoubleFlag(std::string_view v, double* out) {
  return ParseFiniteDouble(v, out) && *out >= 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 3) return false;
  args->command = argv[1];
  args->dir = argv[2];
  for (int i = 3; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--style") {
      const char* v = next();
      if (!v) return false;
      args->style = v;
    } else if (a == "--tables") {
      const char* v = next();
      if (!v) return false;
      if (!ParseIntFlag(v, &args->tables)) return false;
    } else if (a == "--epochs") {
      const char* v = next();
      if (!v) return false;
      if (!ParseIntFlag(v, &args->epochs)) return false;
    } else if (a == "--seed") {
      const char* v = next();
      if (!v) return false;
      if (!ParseIntFlag(v, &args->seed)) return false;
    } else if (a == "--model") {
      const char* v = next();
      if (!v) return false;
      args->model_prefix = v;
    } else if (a == "--threads") {
      const char* v = next();
      if (!v) return false;
      if (!ParseIntFlag(v, &args->threads, 1)) return false;
    } else if (a == "--deadline-ms") {
      const char* v = next();
      if (!v) return false;
      if (!ParseMillis(v, &args->deadline_ms)) return false;
    } else if (a == "--max-queue") {
      const char* v = next();
      if (!v) return false;
      if (!ParseIntFlag(v, &args->max_queue, 1)) return false;
    } else if (a == "--encode-batch") {
      const char* v = next();
      if (!v) return false;
      if (!ParseIntFlag(v, &args->encode_batch, 1)) return false;
    } else if (a == "--cell-cache") {
      const char* v = next();
      if (!v) return false;
      if (!ParseIntFlag(v, &args->cell_cache)) return false;
    } else if (a == "--retry-budget") {
      const char* v = next();
      if (!v) return false;
      if (!ParseDoubleFlag(v, &args->retry_budget)) return false;
    } else if (a.rfind("--retry-budget=", 0) == 0) {
      if (!ParseDoubleFlag(a.c_str() + std::strlen("--retry-budget="),
                           &args->retry_budget)) {
        return false;
      }
    } else if (a == "--load-rate") {
      const char* v = next();
      if (!v) return false;
      if (!ParseDoubleFlag(v, &args->load_rate)) return false;
    } else if (a.rfind("--load-rate=", 0) == 0) {
      if (!ParseDoubleFlag(a.c_str() + std::strlen("--load-rate="),
                           &args->load_rate)) {
        return false;
      }
    } else if (a == "--load-duration-s") {
      const char* v = next();
      if (!v) return false;
      if (!ParseDoubleFlag(v, &args->load_duration_s) ||
          args->load_duration_s <= 0) {
        return false;
      }
    } else if (a.rfind("--load-duration-s=", 0) == 0) {
      if (!ParseDoubleFlag(a.c_str() + std::strlen("--load-duration-s="),
                           &args->load_duration_s) ||
          args->load_duration_s <= 0) {
        return false;
      }
    } else if (a == "--load-zipf") {
      const char* v = next();
      if (!v) return false;
      if (!ParseDoubleFlag(v, &args->load_zipf)) return false;
    } else if (a.rfind("--load-zipf=", 0) == 0) {
      if (!ParseDoubleFlag(a.c_str() + std::strlen("--load-zipf="),
                           &args->load_zipf)) {
        return false;
      }
    } else if (a == "--load-burst-on-ms") {
      const char* v = next();
      if (!v) return false;
      if (!ParseMillis(v, &args->load_burst_on_ms)) return false;
    } else if (a.rfind("--load-burst-on-ms=", 0) == 0) {
      if (!ParseMillis(a.c_str() + std::strlen("--load-burst-on-ms="),
                       &args->load_burst_on_ms)) {
        return false;
      }
    } else if (a == "--load-burst-off-ms") {
      const char* v = next();
      if (!v) return false;
      if (!ParseMillis(v, &args->load_burst_off_ms)) return false;
    } else if (a.rfind("--load-burst-off-ms=", 0) == 0) {
      if (!ParseMillis(a.c_str() + std::strlen("--load-burst-off-ms="),
                       &args->load_burst_off_ms)) {
        return false;
      }
    } else if (a == "--load-seed") {
      const char* v = next();
      if (!v) return false;
      if (!ParseIntFlag(v, &args->load_seed)) return false;
    } else if (a.rfind("--load-seed=", 0) == 0) {
      if (!ParseIntFlag(a.c_str() + std::strlen("--load-seed="),
                        &args->load_seed)) {
        return false;
      }
    } else if (a.rfind("--trace=", 0) == 0) {
      args->trace_path = a.substr(std::strlen("--trace="));
      if (args->trace_path.empty()) return false;
    } else if (a == "--trace") {
      const char* v = next();
      if (!v) return false;
      args->trace_path = v;
    } else if (a.rfind("--explain=", 0) == 0) {
      args->explain_dir = a.substr(std::strlen("--explain="));
      if (args->explain_dir.empty()) return false;
    } else if (a == "--explain") {
      const char* v = next();
      if (!v) return false;
      args->explain_dir = v;
    } else if (a.rfind("--metrics=", 0) == 0) {
      args->metrics_path = a.substr(std::strlen("--metrics="));
      if (args->metrics_path.empty()) return false;
    } else if (a == "--metrics") {
      const char* v = next();
      if (!v) return false;
      args->metrics_path = v;
    } else if (a.rfind("--statsz=", 0) == 0) {
      args->statsz_path = a.substr(std::strlen("--statsz="));
      if (args->statsz_path.empty()) return false;
    } else if (a == "--statsz") {
      const char* v = next();
      if (v == nullptr) return false;
      args->statsz_path = v;
    } else if (a == "--statsz-interval-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseMillis(v, &args->statsz_interval_ms) ||
          args->statsz_interval_ms < 1) {
        return false;
      }
    } else if (a == "--slo-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseMillis(v, &args->slo_ms) || args->slo_ms < 1) return false;
    } else if (a == "--slow-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseMillis(v, &args->slow_ms) || args->slow_ms < 1) return false;
    } else if (a == "--slow-every") {
      const char* v = next();
      if (v == nullptr) return false;
      // The flight recorder samples 1-in-N with a uint32_t counter.
      if (!ParseNonNegativeInt(std::string_view(v), &args->slow_every) ||
          args->slow_every < 1 || args->slow_every > UINT32_MAX) {
        return false;
      }
    } else if (a.rfind("--slow-log=", 0) == 0) {
      args->slow_log_path = a.substr(std::strlen("--slow-log="));
      if (args->slow_log_path.empty()) return false;
    } else if (a == "--slow-log") {
      const char* v = next();
      if (v == nullptr) return false;
      args->slow_log_path = v;
    } else if (a.rfind("--profile=", 0) == 0) {
      args->profile_prefix = a.substr(std::strlen("--profile="));
      if (args->profile_prefix.empty()) return false;
    } else if (a == "--profile") {
      const char* v = next();
      if (v == nullptr) return false;
      args->profile_prefix = v;
    } else if (a == "--profile-hz") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseIntFlag(v, &args->profile_hz, 1)) return false;
    } else if (a == "--heap-profile") {
      args->heap_profile = true;
    } else if (a.rfind("--faults=", 0) == 0) {
      args->faults = a.substr(std::strlen("--faults="));
      if (args->faults.empty()) return false;
    } else if (a.rfind("--fault-seed=", 0) == 0) {
      if (!ParseIntFlag(a.c_str() + std::strlen("--fault-seed="),
                        &args->fault_seed)) {
        return false;
      }
    } else if (a.rfind("--snapshot=", 0) == 0) {
      args->snapshot_path = a.substr(std::strlen("--snapshot="));
      if (args->snapshot_path.empty()) return false;
    } else if (a.rfind("--save-snapshot=", 0) == 0) {
      args->save_snapshot_path = a.substr(std::strlen("--save-snapshot="));
      if (args->save_snapshot_path.empty()) return false;
    } else if (a.rfind("--reload-snapshot=", 0) == 0) {
      args->reload_snapshot_path =
          a.substr(std::strlen("--reload-snapshot="));
      if (args->reload_snapshot_path.empty()) return false;
    } else if (a.rfind("--snapshot-validate=", 0) == 0) {
      args->snapshot_validate =
          a.substr(std::strlen("--snapshot-validate="));
      if (args->snapshot_validate != "eager" &&
          args->snapshot_validate != "lazy") {
        std::fprintf(stderr,
                     "kglink_cli: --snapshot-validate must be 'eager' or "
                     "'lazy', got '%s'\n",
                     args->snapshot_validate.c_str());
        return false;
      }
    } else if (a.rfind("--snapshot-generation=", 0) == 0) {
      if (!ParseIntFlag(a.c_str() + std::strlen("--snapshot-generation="),
                        &args->snapshot_generation)) {
        return false;
      }
    } else if (a.rfind("--", 0) != 0) {
      args->csv_path = a;
    } else {
      // A typo'd flag (--snapsot=...) must fail loudly, not silently fall
      // back to default behavior.
      std::fprintf(stderr, "kglink_cli: unrecognized flag '%s'\n", a.c_str());
      return false;
    }
  }
  return true;
}

// Rebuilds the deterministic world recorded under dir.
StatusOr<data::World> LoadWorld(const std::string& dir) {
  const std::string path = dir + "/world.seed";
  KGLINK_ASSIGN_OR_RETURN(std::string seed_text, ReadFile(path));
  data::WorldConfig wc;
  // A damaged seed would silently rebuild a different world than the one
  // the model was trained against.
  if (!ParseNonNegativeInt(StripWhitespace(seed_text), &wc.seed)) {
    return Status::Corruption(path +
                              ": world seed is not a non-negative integer");
  }
  wc.open_class_scale = 4.0;
  return data::GenerateWorld(wc);
}

// The KG + engine a command runs against: either borrowed zero-copy from a
// mapped snapshot generation, or rebuilt in memory from <dir>/world.seed.
// Exactly one of {snap} / {world, built_engine} is populated; kg/engine
// always point at the live pair.
struct WorldSource {
  // Non-null when --snapshot / --reload-snapshot were given; served eval
  // attaches it to the AnnotationService so hot reload works.
  std::unique_ptr<store::SnapshotStore> store;
  std::shared_ptr<const store::LoadedSnapshot> snap;
  std::optional<data::World> world;
  std::optional<search::SearchEngine> built_engine;
  const kg::KnowledgeGraph* kg = nullptr;
  const search::SearchEngine* engine = nullptr;
};

// Prefers the snapshot when one was requested; any load failure (after the
// store's quarantine policy ran) falls back to the deterministic rebuild
// instead of aborting the command.
bool OpenWorld(const Args& args, WorldSource* src) {
  if (!args.snapshot_path.empty() || !args.reload_snapshot_path.empty()) {
    store::LoadOptions lopts;
    lopts.validate = args.snapshot_validate == "lazy"
                         ? store::ValidateMode::kLazy
                         : store::ValidateMode::kEager;
    src->store = std::make_unique<store::SnapshotStore>(lopts);
  }
  if (!args.snapshot_path.empty()) {
    auto loaded = src->store->Load(args.snapshot_path);
    if (loaded.ok()) {
      src->snap = std::move(loaded).value();
      src->kg = &src->snap->kg;
      src->engine = &src->snap->engine;
      std::printf("snapshot: serving generation %llu from %s (%s)\n",
                  static_cast<unsigned long long>(src->snap->generation),
                  args.snapshot_path.c_str(),
                  args.snapshot_validate.c_str());
      return true;
    }
    std::fprintf(stderr,
                 "kglink_cli: snapshot load failed (%s); falling back to "
                 "in-memory rebuild\n",
                 loaded.status().ToString().c_str());
  }
  auto world = LoadWorld(args.dir);
  if (!world.ok()) {
    std::fprintf(stderr, "%s\n", world.status().ToString().c_str());
    return false;
  }
  src->world = std::move(world).value();
  src->built_engine = search::IndexKnowledgeGraph(src->world->kg);
  src->kg = &src->world->kg;
  src->engine = &*src->built_engine;
  return true;
}

// --save-snapshot: atomic temp+fsync+rename publish of the (kg, engine)
// pair. Returns the command exit code contribution (0 = ok).
int MaybeSaveSnapshot(const Args& args, const kg::KnowledgeGraph& kg,
                      const search::SearchEngine& engine) {
  if (args.save_snapshot_path.empty()) return 0;
  store::WriterOptions wopts;
  wopts.generation = args.snapshot_generation;
  Status s =
      store::WriteSnapshot(args.save_snapshot_path, kg, engine, wopts);
  if (!s.ok()) {
    std::fprintf(stderr, "kglink_cli: save-snapshot failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::printf("snapshot: wrote generation %llu to %s\n",
              static_cast<unsigned long long>(args.snapshot_generation),
              args.save_snapshot_path.c_str());
  return 0;
}

int GenData(const Args& args) {
  data::WorldConfig wc;
  wc.seed = args.seed;
  wc.open_class_scale = 4.0;
  data::World world = data::GenerateWorld(wc);
  std::printf("world: %lld entities / %lld triples\n",
              static_cast<long long>(world.kg.num_entities()),
              static_cast<long long>(world.kg.num_triples()));

  table::Corpus corpus =
      args.style == "viznet"
          ? data::GenerateVizNetCorpus(
                world, data::CorpusOptions::VizNetDefaults(args.tables,
                                                           args.seed + 1))
          : data::GenerateSemTabCorpus(
                world, data::CorpusOptions::SemTabDefaults(args.tables,
                                                           args.seed + 1));
  Rng rng(args.seed + 2);
  table::SplitCorpus split = table::StratifiedSplit(corpus, 0.7, 0.1, rng);

  const std::pair<const char*, const table::Corpus*> parts[] = {
      {"train", &split.train}, {"valid", &split.valid},
      {"test", &split.test}};
  for (const auto& [name, part] : parts) {
    Status s = table::SaveCorpus(*part, args.dir + "/" + name);
    if (!s.ok()) {
      std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (!world.kg.SaveToFile(args.dir + "/kg.tsv").ok() ||
      !WriteFile(args.dir + "/world.seed", std::to_string(args.seed))
           .ok()) {
    std::fprintf(stderr, "cannot persist world\n");
    return 1;
  }
  std::printf("wrote %zu/%zu/%zu train/valid/test tables to %s\n",
              split.train.tables.size(), split.valid.tables.size(),
              split.test.tables.size(), args.dir.c_str());
  if (!args.save_snapshot_path.empty()) {
    search::SearchEngine engine = search::IndexKnowledgeGraph(world.kg);
    return MaybeSaveSnapshot(args, world.kg, engine);
  }
  return 0;
}

int Train(const Args& args) {
  WorldSource src;
  if (!OpenWorld(args, &src)) return 1;
  if (int rc = MaybeSaveSnapshot(args, *src.kg, *src.engine)) return rc;
  auto train = table::LoadCorpus(args.dir + "/train");
  auto valid = table::LoadCorpus(args.dir + "/valid");
  if (!train.ok() || !valid.ok()) {
    std::fprintf(stderr, "cannot load corpus splits from %s\n",
                 args.dir.c_str());
    return 1;
  }
  core::KgLinkOptions options;
  options.epochs = args.epochs;
  options.verbose = true;
  options.linker.cell_cache_capacity = args.cell_cache;
  core::KgLinkAnnotator annotator(src.kg, src.engine, options);
  annotator.Fit(*train, *valid);
  Status s = annotator.Save(args.model_prefix);
  if (!s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("model saved to %s.{vocab,labels,weights}\n",
              args.model_prefix.c_str());
  return 0;
}

// Evaluates the test split through an AnnotationService: tables are
// submitted as concurrent requests with the CLI's deadline, and columns
// from degraded/shed responses still count toward accuracy (they carry the
// PLM-only predictions). Prints the per-status breakdown next to accuracy.
// ServiceOptions shared by the served-eval and load-eval paths, including
// the overload-control posture. ValidatedServiceOptions (applied by the
// service constructor) clamps anything nonsensical with a logged warning.
serve::ServiceOptions ServiceOptionsFromArgs(const Args& args) {
  serve::ServiceOptions sopts;
  sopts.num_threads = args.threads;
  sopts.max_queue = args.max_queue;
  sopts.encode_batch = args.encode_batch;
  sopts.default_deadline_us = args.deadline_ms * 1000;
  if (args.slo_ms > 0) sopts.slo_target_us = args.slo_ms * 1000;
  sopts.retry_budget_per_second = args.retry_budget;
  return sopts;
}

int ServedEval(const Args& args, WorldSource& src,
               core::KgLinkAnnotator& annotator, const table::Corpus& test) {
  serve::AnnotationService service(&annotator, ServiceOptionsFromArgs(args));
  if (src.store != nullptr) service.AttachSnapshotStore(src.store.get());
  if (g_statsz != nullptr) {
    g_statsz->AddSection("serve",
                         [&service] { return service.HealthJson(); });
  }

  std::vector<std::future<serve::AnnotationResult>> futures;
  futures.reserve(test.tables.size());
  const size_t reload_at = test.tables.size() / 2;
  for (size_t i = 0; i < test.tables.size(); ++i) {
    if (i == reload_at && !args.reload_snapshot_path.empty()) {
      // Swap generations with requests in flight: the service quiesces
      // between items, so submissions before and after the swap both
      // complete — against the old and new generation respectively.
      Status s = service.ReloadSnapshot(args.reload_snapshot_path);
      if (s.ok()) {
        std::printf("snapshot: hot-reloaded %s mid-run (generation %llu)\n",
                    args.reload_snapshot_path.c_str(),
                    static_cast<unsigned long long>(
                        service.serving_snapshot()->generation));
      } else {
        std::fprintf(stderr,
                     "kglink_cli: hot reload failed (%s); previous "
                     "generation keeps serving\n",
                     s.ToString().c_str());
      }
    }
    futures.push_back(service.Submit(test.tables[i].table));
  }

  int64_t correct = 0;
  int64_t total = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    serve::AnnotationResult result = futures[i].get();
    const auto& labels = test.tables[i].column_labels;
    if (result.predictions.empty()) continue;  // overloaded / failed
    for (size_t c = 0; c < labels.size(); ++c) {
      if (labels[c] == table::kUnlabeled) continue;
      ++total;
      if (c < result.predictions.size() &&
          result.predictions[c] == labels[c]) {
        ++correct;
      }
    }
  }
  if (g_statsz != nullptr) {
    // Freeze the last live health snapshot before the service object dies:
    // later dumps (including Stop()'s final write) keep reporting it
    // instead of losing the "serve" section.
    std::string final_health = service.HealthJson();
    g_statsz->AddSection(
        "serve", [final_health] { return final_health; });
  }
  service.Shutdown();

  double accuracy =
      total == 0 ? 0.0
                 : static_cast<double>(correct) / static_cast<double>(total);
  std::printf("test accuracy=%.2f%% over %lld columns "
              "(threads=%d deadline_ms=%lld max_queue=%d)\n",
              100 * accuracy, static_cast<long long>(total), args.threads,
              static_cast<long long>(args.deadline_ms), args.max_queue);
  for (int s = 0; s < serve::kNumRequestStatuses; ++s) {
    auto status = static_cast<serve::RequestStatus>(s);
    int64_t n = service.completed(status);
    if (n > 0) {
      std::printf("  %-10s %lld\n", serve::RequestStatusName(status),
                  static_cast<long long>(n));
    }
  }
  if (obs::Profiler::Global().running()) {
    // Hot-frame summary for the serving run (export happens at exit).
    std::fputs(obs::Profiler::Global().SummaryText().c_str(), stdout);
  }
  return 0;
}

// eval --load-rate R: open-loop offered load over the test tables instead
// of one submission each — the CLI entry point to the load harness (the
// full gated version lives in bench/bench_load.cc). Prints the LoadReport
// JSON; accuracy is not computed (arrivals repeat zipf-picked tables).
int LoadEval(const Args& args, WorldSource& src,
             core::KgLinkAnnotator& annotator, const table::Corpus& test) {
  serve::AnnotationService service(&annotator, ServiceOptionsFromArgs(args));
  if (src.store != nullptr) service.AttachSnapshotStore(src.store.get());
  if (g_statsz != nullptr) {
    g_statsz->AddSection("serve",
                         [&service] { return service.HealthJson(); });
  }
  std::vector<const table::Table*> tables;
  tables.reserve(test.tables.size());
  for (const auto& lt : test.tables) tables.push_back(&lt.table);

  serve::LoadgenOptions lg;
  lg.rate_per_second = args.load_rate;
  lg.duration_us = static_cast<int64_t>(args.load_duration_s * 1e6);
  lg.zipf_s = args.load_zipf;
  lg.burst_on_us = args.load_burst_on_ms * 1000;
  lg.burst_off_us = args.load_burst_off_ms * 1000;
  lg.deadline_us = args.deadline_ms * 1000;
  lg.seed = args.load_seed;
  serve::LoadReport report = serve::RunOpenLoop(service, tables, lg);
  std::printf("load report: %s\n", report.Json().c_str());

  if (g_statsz != nullptr) {
    std::string final_health = service.HealthJson();
    g_statsz->AddSection("serve", [final_health] { return final_health; });
  }
  service.Shutdown();
  return 0;
}

int Eval(const Args& args) {
  WorldSource src;
  if (!OpenWorld(args, &src)) return 1;
  if (int rc = MaybeSaveSnapshot(args, *src.kg, *src.engine)) return rc;
  auto test = table::LoadCorpus(args.dir + "/test");
  if (!test.ok()) {
    std::fprintf(stderr, "cannot load test split\n");
    return 1;
  }
  core::KgLinkOptions options;
  options.linker.cell_cache_capacity = args.cell_cache;
  core::KgLinkAnnotator annotator(src.kg, src.engine, options);
  Status s = annotator.Load(args.model_prefix);
  if (!s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  if (args.load_rate > 0) {
    return LoadEval(args, src, annotator, *test);
  }
  if (args.threads > 1 || args.deadline_ms > 0 || args.retry_budget > 0) {
    return ServedEval(args, src, annotator, *test);
  }
  eval::Metrics m = annotator.Evaluate(*test);
  std::printf("test accuracy=%.2f%% weighted F1=%.2f%% over %lld columns\n",
              100 * m.accuracy, 100 * m.weighted_f1,
              static_cast<long long>(m.total));
  return 0;
}

int Annotate(const Args& args) {
  WorldSource src;
  if (!OpenWorld(args, &src)) return 1;
  if (int rc = MaybeSaveSnapshot(args, *src.kg, *src.engine)) return rc;
  core::KgLinkOptions options;
  options.linker.cell_cache_capacity = args.cell_cache;
  core::KgLinkAnnotator annotator(src.kg, src.engine, options);
  Status s = annotator.Load(args.model_prefix);
  if (!s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  auto rows = ReadCsvFile(args.csv_path);
  if (!rows.ok()) {
    std::fprintf(stderr, "%s\n", rows.status().ToString().c_str());
    return 1;
  }
  auto t = table::Table::TryFromStrings(args.csv_path, *rows);
  if (!t.ok()) {
    std::fprintf(stderr, "%s\n", t.status().ToString().c_str());
    return 1;
  }
  RequestContext rc;
  if (args.deadline_ms > 0) {
    rc.deadline = Deadline::AfterMicros(args.deadline_ms * 1000);
  }
  core::AnnotateOutcome outcome = annotator.AnnotateTable(*t, &rc);
  if (!outcome.status.ok()) {
    std::fprintf(stderr, "annotate failed: %s\n",
                 outcome.status.ToString().c_str());
    return 1;
  }
  if (outcome.degraded) {
    std::printf("(degraded: %s — PLM-only predictions)\n",
                outcome.degrade_reason.c_str());
  }
  for (int c = 0; c < t->num_cols(); ++c) {
    std::printf("column %d: %s\n", c,
                annotator
                    .label_names()[static_cast<size_t>(
                        outcome.predictions[static_cast<size_t>(c)])]
                    .c_str());
  }
  return 0;
}

// Aggregates an existing provenance JSONL (or an --explain output dir)
// into the linked/unlinked/degraded error-analysis report.
int Report(const Args& args) {
  std::string path = args.dir;
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    path += "/provenance.jsonl";
  }
  auto report = eval::LoadExplainReport(path);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::fputs(eval::FormatExplainReport(*report).c_str(), stdout);
  return 0;
}

// Writes the provenance JSONL plus the aggregated report.{txt,json} into
// the --explain directory.
int ExportProvenance(const std::string& dir, int command_rc) {
  obs::ProvenanceRecorder& recorder = obs::ProvenanceRecorder::Global();
  recorder.Stop();
  std::string jsonl = recorder.Jsonl();
  eval::ExplainReport report = eval::BuildExplainReport(jsonl);
  const std::pair<const char*, std::string> outputs[] = {
      {"/provenance.jsonl", std::move(jsonl)},
      {"/report.txt", eval::FormatExplainReport(report)},
      {"/report.json", eval::ExplainReportJson(report)},
  };
  for (const auto& [name, text] : outputs) {
    Status s = WriteFile(dir + name, text);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot write explain output: %s\n",
                   s.ToString().c_str());
      if (command_rc == 0) command_rc = 1;
      return command_rc;
    }
  }
  std::printf("explain: %lld records (%lld columns) -> %s\n",
              static_cast<long long>(recorder.record_count()),
              static_cast<long long>(report.columns), dir.c_str());
  return command_rc;
}

// Writes the trace / metrics files requested on the command line. Called
// after the command body so the files capture the whole run.
int ExportObservability(const Args& args, int command_rc) {
  if (!args.trace_path.empty()) {
    obs::TraceRecorder::Global().Stop();
    Status s =
        obs::TraceRecorder::Global().WriteChromeJson(args.trace_path);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot write trace: %s\n", s.ToString().c_str());
      if (command_rc == 0) command_rc = 1;
    }
  }
  if (!args.metrics_path.empty()) {
    Status s =
        obs::MetricsRegistry::Global().WriteSnapshot(args.metrics_path);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot write metrics: %s\n",
                   s.ToString().c_str());
      if (command_rc == 0) command_rc = 1;
    }
  }
  if (!args.explain_dir.empty()) {
    command_rc = ExportProvenance(args.explain_dir, command_rc);
  }
  if (g_statsz != nullptr) {
    g_statsz->Stop();  // final write with end-of-run metrics
    std::printf("statsz: %lld dumps -> %s\n",
                static_cast<long long>(g_statsz->dumps()),
                g_statsz->path().c_str());
    g_statsz.reset();
  }
  if (!args.slow_log_path.empty()) {
    obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
    recorder.Disable();
    Status s = recorder.WriteJsonl(args.slow_log_path);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot write slow-request log: %s\n",
                   s.ToString().c_str());
      if (command_rc == 0) command_rc = 1;
    } else {
      std::printf("slow-log: %zu records (%lld captured, %lld dropped) "
                  "-> %s\n",
                  recorder.size(),
                  static_cast<long long>(recorder.recorded()),
                  static_cast<long long>(recorder.overwritten()),
                  args.slow_log_path.c_str());
    }
  }
  if (!args.profile_prefix.empty()) {
    obs::Profiler& profiler = obs::Profiler::Global();
    profiler.Stop();
    const std::string collapsed = args.profile_prefix + ".collapsed";
    const std::string speedscope =
        args.profile_prefix + ".speedscope.json";
    Status s = profiler.WriteCollapsed(collapsed);
    if (s.ok()) s = profiler.WriteSpeedscope(speedscope);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot write profile: %s\n",
                   s.ToString().c_str());
      if (command_rc == 0) command_rc = 1;
    } else {
      std::printf("profile: %lld samples @ %d Hz -> %s, %s\n",
                  static_cast<long long>(profiler.samples()),
                  args.profile_hz, collapsed.c_str(), speedscope.c_str());
    }
    if (obs::HeapProfiler::Global().enabled()) {
      const std::string heap = args.profile_prefix + ".heap.collapsed";
      Status hs = obs::HeapProfiler::Global().WriteCollapsed(heap);
      if (!hs.ok()) {
        std::fprintf(stderr, "cannot write heap profile: %s\n",
                     hs.ToString().c_str());
        if (command_rc == 0) command_rc = 1;
      } else {
        std::printf("heap profile: -> %s\n", heap.c_str());
      }
    }
  }
  return command_rc;
}

int RunCommand(const Args& args) {
  if (args.command == "gen-data") return GenData(args);
  if (args.command == "report") return Report(args);
  if ((args.command == "train" || args.command == "eval" ||
       args.command == "annotate") &&
      args.model_prefix.empty()) {
    return Usage();
  }
  if (args.command == "train") return Train(args);
  if (args.command == "eval") return Eval(args);
  if (args.command == "annotate" && !args.csv_path.empty()) {
    return Annotate(args);
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (!args.faults.empty()) {
    Status s = robust::FaultInjector::Global().ConfigureFromSpec(
        args.faults, args.fault_seed);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return Usage();
    }
  }
  if (!args.trace_path.empty()) obs::TraceRecorder::Global().Start();
  if (!args.statsz_path.empty()) {
    g_statsz = std::make_unique<obs::StatszDumper>(args.statsz_path,
                                                   args.statsz_interval_ms);
    g_statsz->Start();
  }
  if (args.slow_ms > 0 || args.slow_every > 0) {
    obs::FlightRecorderOptions fr;
    fr.threshold_us = args.slow_ms * 1000;
    fr.sample_every_n = static_cast<uint32_t>(args.slow_every);
    obs::FlightRecorder::Global().Configure(fr);
  }
  if (args.heap_profile) {
    if (obs::kHeapProfilerCompiledIn) {
      obs::HeapProfiler::Global().Enable({});
    } else {
      std::fprintf(stderr,
                   "warning: built with KGLINK_ENABLE_HEAP_PROFILER=OFF; "
                   "--heap-profile will record nothing\n");
    }
  }
  if (!args.profile_prefix.empty()) {
    obs::ProfilerOptions popts;
    popts.hz = args.profile_hz;
    Status s = obs::Profiler::Global().Start(popts);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot start profiler: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }
  if (!args.explain_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.explain_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n",
                   args.explain_dir.c_str(), ec.message().c_str());
      return 1;
    }
    obs::ProvenanceRecorder::Global().Start();
  }
  return ExportObservability(args, RunCommand(args));
}
