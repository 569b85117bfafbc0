// Overload/chaos acceptance harness for the serving path.
//
// Phases:
//   1. Closed-loop capacity probe (no faults): N workers submit-and-wait,
//      measuring the sustainable no-fault peak goodput.
//   2. Open-loop overload run at `--rate-multiplier` × that peak (default
//      2×) with injected faults (default "search.topk:0.1,predict:0.01"),
//      the max_queue admission bound and the service's retry budget on —
//      the production overload posture. Bursty zipfian arrivals.
//   3. Gates: goodput under overload ≥ --goodput-floor × peak (0 disables),
//      and the queue stays bounded (max observed depth ≤ max_queue).
//   4. Optional --check-determinism: the single-threaded-submission batch
//      mode twice under the same fault seed (no retry budget) must produce
//      byte-identical result checksums.
//
// Emits BENCH_load.json. The machine-portable gate metric is
// load.goodput_vs_peak (ratio — overload goodput relative to the same
// machine's no-fault peak); absolute rates/latencies are tracked
// informationally. Goodput counts every answered request (ok + degraded):
// under faults the retry budget converts fault-hit tables to the cheap
// PLM-only fallback, so the ratio legitimately lands *above* 1.0 on a
// healthy run — degraded answers cost less than full ones. The floor is
// what matters: a refuse storm, retry storm or unbounded queue drags
// answered throughput below it.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "obs/statsz.h"
#include "robust/fault_injector.h"
#include "serve/annotation_service.h"
#include "serve/loadgen.h"
#include "util/string_util.h"

using namespace kglink;

namespace {

struct Flags {
  uint64_t seed = 42;
  double capacity_duration_s = 1.5;
  double duration_s = 4.0;
  double rate_multiplier = 2.0;
  double rate = 0.0;  // explicit offered rate; 0 = multiplier × capacity
  double zipf_s = 1.1;
  int64_t burst_on_ms = 200;
  int64_t burst_off_ms = 100;
  int64_t deadline_ms = 250;
  int threads = 4;
  int max_queue = 32;
  std::string faults = "search.topk:0.1,predict:0.01";
  double goodput_floor = 0.0;  // 0 disables the gate
  bool check_determinism = false;
  std::string statsz_out;
};

void Usage(const char* prog) {
  std::fprintf(
      stderr,
      "Usage: %s [options]\n"
      "  --seed N                arrival/fault seed (default 42)\n"
      "  --capacity-duration-s S closed-loop probe length (default 1.5)\n"
      "  --duration-s S          open-loop overload window (default 4)\n"
      "  --rate-multiplier M     offered = M x measured peak (default 2)\n"
      "  --rate R                explicit offered rate/s (overrides "
      "multiplier)\n"
      "  --zipf S                table popularity exponent (default 1.1)\n"
      "  --burst-on-ms N         arrival burst on-window (default 200)\n"
      "  --burst-off-ms N        arrival burst off-window (default 100)\n"
      "  --deadline-ms N         per-request deadline, 0 = none (default "
      "250)\n"
      "  --threads N             service worker threads (default 4)\n"
      "  --max-queue N           service queue bound (default 32)\n"
      "  --faults SPEC           overload-phase fault spec (default "
      "\"search.topk:0.1,predict:0.01\")\n"
      "  --goodput-floor F       fail if overload goodput < F x peak "
      "(default 0 = off)\n"
      "  --check-determinism     run the batch mode twice, fail on "
      "checksum mismatch\n"
      "  --statsz-out PATH       write one statsz snapshot after the "
      "overload phase\n",
      prog);
}

// PR-8 CLI contract: --flag=V and --flag V both accepted; any unknown
// --flag is a loud usage error (exit 2), never silently ignored.
bool ParseFlags(int argc, char** argv, Flags* flags) {
  auto value = [&](int& i, std::string_view arg, std::string_view name,
                   std::string* out) {
    if (arg.size() > name.size() && arg[name.size()] == '=') {
      *out = std::string(arg.substr(name.size() + 1));
      return true;
    }
    if (arg.size() == name.size() && i + 1 < argc) {
      *out = argv[++i];
      return true;
    }
    std::fprintf(stderr, "%s: missing value for %.*s\n", argv[0],
                 static_cast<int>(name.size()), name.data());
    return false;
  };
  // Numeric values are parsed over the whole field: a trailing suffix, a
  // sign, an out-of-range or non-finite number is a usage error rather
  // than a silently truncated value.
  auto number = [&](int& i, std::string_view arg, std::string_view name,
                    auto* out) {
    std::string v;
    if (!value(i, arg, name, &v)) return false;
    bool ok;
    if constexpr (std::is_floating_point_v<
                      std::remove_pointer_t<decltype(out)>>) {
      ok = ParseFiniteDouble(v, out);
    } else {
      ok = ParseNonNegativeInt(std::string_view(v), out);
    }
    if (!ok) {
      std::fprintf(stderr, "%s: invalid value '%s' for %.*s\n", argv[0],
                   v.c_str(), static_cast<int>(name.size()), name.data());
      Usage(argv[0]);
    }
    return ok;
  };
  // Millisecond flags are scaled to microseconds: keep `* 1000` in range.
  auto millis = [&](int& i, std::string_view arg, std::string_view name,
                    int64_t* out) {
    if (!number(i, arg, name, out)) return false;
    if (*out <= INT64_MAX / 1000) return true;
    std::fprintf(stderr, "%s: %.*s out of range\n", argv[0],
                 static_cast<int>(name.size()), name.data());
    Usage(argv[0]);
    return false;
  };
  auto matches = [](std::string_view arg, std::string_view name) {
    return arg == name ||
           (arg.size() > name.size() && arg.compare(0, name.size(), name) == 0 &&
            arg[name.size()] == '=');
  };
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    std::string v;
    if (matches(arg, "--seed")) {
      if (!number(i, arg, "--seed", &flags->seed)) return false;
    } else if (matches(arg, "--capacity-duration-s")) {
      if (!number(i, arg, "--capacity-duration-s",
                  &flags->capacity_duration_s)) {
        return false;
      }
    } else if (matches(arg, "--duration-s")) {
      if (!number(i, arg, "--duration-s", &flags->duration_s)) return false;
    } else if (matches(arg, "--rate-multiplier")) {
      if (!number(i, arg, "--rate-multiplier", &flags->rate_multiplier)) {
        return false;
      }
    } else if (matches(arg, "--rate")) {
      if (!number(i, arg, "--rate", &flags->rate)) return false;
    } else if (matches(arg, "--zipf")) {
      if (!number(i, arg, "--zipf", &flags->zipf_s)) return false;
    } else if (matches(arg, "--burst-on-ms")) {
      if (!millis(i, arg, "--burst-on-ms", &flags->burst_on_ms)) return false;
    } else if (matches(arg, "--burst-off-ms")) {
      if (!millis(i, arg, "--burst-off-ms", &flags->burst_off_ms)) return false;
    } else if (matches(arg, "--deadline-ms")) {
      if (!millis(i, arg, "--deadline-ms", &flags->deadline_ms)) return false;
    } else if (matches(arg, "--threads")) {
      if (!number(i, arg, "--threads", &flags->threads)) return false;
    } else if (matches(arg, "--max-queue")) {
      if (!number(i, arg, "--max-queue", &flags->max_queue)) return false;
    } else if (matches(arg, "--faults")) {
      if (!value(i, arg, "--faults", &v)) return false;
      flags->faults = v;
    } else if (matches(arg, "--goodput-floor")) {
      if (!number(i, arg, "--goodput-floor", &flags->goodput_floor)) {
        return false;
      }
    } else if (arg == "--check-determinism") {
      flags->check_determinism = true;
    } else if (matches(arg, "--statsz-out")) {
      if (!value(i, arg, "--statsz-out", &v)) return false;
      flags->statsz_out = v;
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], argv[i]);
      Usage(argv[0]);
      return false;
    }
  }
  // The service clamps both to at least 1 while the queue-depth gate
  // compares against the flag, so 0 would fail that gate spuriously.
  if (flags->threads < 1 || flags->max_queue < 1) {
    std::fprintf(stderr, "%s: --threads and --max-queue must be >= 1\n",
                 argv[0]);
    Usage(argv[0]);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  bench::InitBenchTelemetry("load");
  bench::BenchEnv& env = bench::GetEnv();
  bench::PrintHeader(
      "Goodput under overload (load/chaos harness)",
      "Closed-loop capacity probe, then an open-loop overload run at a "
      "multiple of the measured peak with injected faults, the queue "
      "bound and the retry budget engaged. The gate is goodput "
      "retention relative to the same machine's peak.");

  // A deliberately small model: this harness measures the overload
  // machinery, not model quality.
  core::KgLinkOptions o;
  o.epochs = 2;
  o.encoder.dim = 24;
  o.encoder.num_heads = 2;
  o.encoder.num_layers = 1;
  o.encoder.ffn_dim = 32;
  o.serializer.max_seq_len = 96;
  o.linker.top_k_rows = 8;
  o.seed = 99;
  core::KgLinkAnnotator annotator(&env.world.kg, &env.engine, o);
  annotator.Fit(env.semtab.train, env.semtab.valid);

  std::vector<const table::Table*> tables;
  for (const auto& lt : env.semtab.test.tables) tables.push_back(&lt.table);

  serve::LoadgenOptions lg;
  lg.seed = flags.seed;
  lg.zipf_s = flags.zipf_s;
  lg.deadline_us = flags.deadline_ms * 1000;
  lg.closed_loop_workers = flags.threads;

  // Phase 1: no-fault closed-loop peak.
  robust::FaultInjector::Global().Disable();
  double peak_goodput = 0.0;
  {
    serve::ServiceOptions so;
    so.num_threads = flags.threads;
    so.max_queue = flags.max_queue;
    serve::AnnotationService service(&annotator, so);
    // Warm-up (discarded): the first pass over the zipfian working set
    // fills the annotator's cell-link cache. Probing cold would
    // understate peak and inflate the overload/peak ratio the gate runs
    // on — the overload phase always runs warm.
    serve::LoadgenOptions warm = lg;
    warm.duration_us = 500'000;
    serve::RunClosedLoop(service, tables, warm);
    serve::LoadgenOptions probe = lg;
    probe.duration_us = static_cast<int64_t>(flags.capacity_duration_s * 1e6);
    // Saturating concurrency: with only one closed-loop caller per worker
    // thread, futures-resolution wakeup latency leaves workers idle
    // between requests and the probe understates peak. 4x callers keep
    // the queue non-empty so the probe measures the service, not the
    // probe's own round-trip.
    probe.closed_loop_workers = flags.threads * 4;
    serve::LoadReport cap = serve::RunClosedLoop(service, tables, probe);
    peak_goodput = cap.goodput_per_second;
    std::printf("capacity probe: %.1f good/s over %.2fs (%lld submitted)\n",
                cap.goodput_per_second, cap.duration_s,
                static_cast<long long>(cap.submitted));
    bench::RecordBenchMetric("load.capacity_per_second", peak_goodput,
                             "items_per_second");
  }
  if (peak_goodput <= 0.0) {
    std::fprintf(stderr, "capacity probe produced no goodput\n");
    return 1;
  }

  // Phase 2: overload at a multiple of peak, faults + full overload
  // posture on.
  double offered = flags.rate > 0.0 ? flags.rate
                                    : flags.rate_multiplier * peak_goodput;
  Status fault_status = robust::FaultInjector::Global().ConfigureFromSpec(
      flags.faults, flags.seed);
  if (!fault_status.ok()) {
    std::fprintf(stderr, "bad --faults spec: %s\n",
                 fault_status.ToString().c_str());
    return 2;
  }
  serve::LoadReport overload;
  int configured_max_queue = flags.max_queue;
  {
    serve::ServiceOptions so;
    so.num_threads = flags.threads;
    so.max_queue = flags.max_queue;
    // The SLO target is scaled to the measured capacity, not hard-coded:
    // 12 mean service times (threads / peak rate). An absolute target
    // would read as all-violating on any machine where it is unachievable
    // (a TSan CI runner is ~10x slower) and as trivially met on a faster
    // one; scaling keeps the health report about the overload machinery,
    // not the host.
    int64_t mean_service_us = std::max<int64_t>(
        1'000,
        static_cast<int64_t>(1e6 * flags.threads / peak_goodput));
    so.slo_target_us = 12 * mean_service_us;
    so.retry_budget_per_second = 25.0;
    serve::AnnotationService service(&annotator, so);
    serve::LoadgenOptions over = lg;
    over.rate_per_second = offered;
    over.duration_us = static_cast<int64_t>(flags.duration_s * 1e6);
    over.burst_on_us = flags.burst_on_ms * 1000;
    over.burst_off_us = flags.burst_off_ms * 1000;
    overload = serve::RunOpenLoop(service, tables, over);
    std::printf("overload: %s\n", overload.Json().c_str());
    if (!flags.statsz_out.empty()) {
      // Scoped inside the service block: the destructor's final write
      // re-runs the health section, so it must happen while the service
      // is alive.
      obs::StatszDumper dumper(flags.statsz_out, /*period_ms=*/60'000);
      dumper.AddSection("health", [&] { return service.HealthJson(); });
      Status written = dumper.WriteOnce();
      if (!written.ok()) {
        std::fprintf(stderr, "statsz write failed: %s\n",
                     written.ToString().c_str());
        return 1;
      }
    }
  }

  double goodput_vs_peak = overload.goodput_per_second / peak_goodput;
  bench::RecordBenchMetric("load.offered_per_second", offered,
                           "items_per_second");
  bench::RecordBenchMetric("load.goodput_per_second",
                           overload.goodput_per_second, "items_per_second");
  bench::RecordBenchMetric("load.goodput_vs_peak", goodput_vs_peak, "ratio");
  bench::RecordBenchMetric("load.p50_latency",
                           overload.LatencyPercentileUs(50) / 1e6, "seconds");
  bench::RecordBenchMetric("load.p99_latency",
                           overload.LatencyPercentileUs(99) / 1e6, "seconds");
  bench::RecordBenchMetric("load.p999_latency",
                           overload.LatencyPercentileUs(99.9) / 1e6,
                           "seconds");
  bench::RecordBenchMetric("load.max_queue_depth",
                           static_cast<double>(overload.max_queue_depth),
                           "count");
  double submitted = static_cast<double>(
      overload.submitted > 0 ? overload.submitted : 1);
  bench::RecordBenchMetric(
      "load.shed_share",
      static_cast<double>(
          overload.by_status[static_cast<size_t>(serve::RequestStatus::kShed)]) /
          submitted,
      "share");
  bench::RecordBenchMetric(
      "load.refused_share",
      static_cast<double>(overload.by_status[static_cast<size_t>(
          serve::RequestStatus::kOverloaded)]) /
          submitted,
      "share");
  // Only the overload-phase service has a retry budget, so the process
  // counter is that budget's denials.
  bench::RecordBenchMetric(
      "load.retry_budget_denied",
      static_cast<double>(obs::MetricsRegistry::Global()
                              .GetCounter("robust.retry_budget.denied")
                              .value()),
      "count");
  bench::RecordBenchMetric(
      "load.latency_truncations",
      static_cast<double>(
          robust::FaultInjector::Global().latency_truncations()),
      "count");

  bool failed = false;
  if (flags.goodput_floor > 0.0 &&
      goodput_vs_peak < flags.goodput_floor) {
    std::fprintf(stderr,
                 "GATE FAIL: goodput under overload %.2fx peak, floor %.2fx\n",
                 goodput_vs_peak, flags.goodput_floor);
    failed = true;
  }
  if (overload.max_queue_depth > configured_max_queue) {
    std::fprintf(stderr, "GATE FAIL: queue depth %d exceeded bound %d\n",
                 overload.max_queue_depth, configured_max_queue);
    failed = true;
  }

  // Phase 3 (optional): per-seed determinism of the chaos batch mode.
  // Single-threaded submission, no retry budget;
  // per-request fault streams make the 4-thread worker pool immaterial.
  if (flags.check_determinism) {
    serve::LoadgenOptions batch = lg;
    batch.deadline_us = 0;  // wall-clock expiry would be schedule-dependent
    uint64_t checksums[2] = {0, 0};
    for (int round = 0; round < 2; ++round) {
      // Reconfigure reseeds every fault stream, so both rounds see the
      // same draw sequences.
      Status st = robust::FaultInjector::Global().ConfigureFromSpec(
          flags.faults, flags.seed);
      if (!st.ok()) {
        std::fprintf(stderr, "fault reconfigure failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      serve::ServiceOptions so;
      so.num_threads = flags.threads;
      so.max_queue = 4096;
      serve::AnnotationService service(&annotator, so);
      serve::BatchResult r = serve::RunBatch(service, tables, 128, batch);
      checksums[round] = r.checksum;
    }
    if (checksums[0] != checksums[1]) {
      std::fprintf(stderr,
                   "GATE FAIL: chaos batch not deterministic per seed "
                   "(%016llx vs %016llx)\n",
                   static_cast<unsigned long long>(checksums[0]),
                   static_cast<unsigned long long>(checksums[1]));
      failed = true;
    } else {
      std::printf("determinism: ok (checksum %016llx)\n",
                  static_cast<unsigned long long>(checksums[0]));
    }
  }

  robust::FaultInjector::Global().Disable();
  if (failed) return 1;
  std::printf(
      "\nNo paper counterpart: KGLink reports offline accuracy only. This "
      "harness gates the overload posture (queue bound, retry budget) "
      "added on top.\n");
  return 0;
}
