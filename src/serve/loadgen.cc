#include "serve/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <mutex>
#include <thread>

#include "util/check.h"

namespace kglink::serve {

namespace {

// Statuses whose completions held a queue slot and ran on a worker; their
// latencies are the ones the accepted-request percentiles describe.
bool AcceptedStatus(RequestStatus s) {
  return s == RequestStatus::kOk || s == RequestStatus::kDegraded ||
         s == RequestStatus::kCancelled || s == RequestStatus::kFailed;
}

bool GoodputStatus(RequestStatus s) {
  return s == RequestStatus::kOk || s == RequestStatus::kDegraded;
}

void FoldResult(const AnnotationResult& result, LoadReport& report) {
  report.by_status[static_cast<size_t>(result.status)]++;
  if (AcceptedStatus(result.status)) {
    report.accepted_latency_us.push_back(result.total_us());
  }
}

void FinalizeReport(LoadReport& report, double offered_window_s,
                    double duration_s) {
  report.duration_s = duration_s;
  if (offered_window_s > 0) {
    report.offered_per_second =
        static_cast<double>(report.submitted) / offered_window_s;
  }
  int64_t good = 0;
  for (int i = 0; i < kNumRequestStatuses; ++i) {
    if (GoodputStatus(static_cast<RequestStatus>(i))) {
      good += report.by_status[static_cast<size_t>(i)];
    }
  }
  if (duration_s > 0) {
    report.goodput_per_second = static_cast<double>(good) / duration_s;
  }
  std::sort(report.accepted_latency_us.begin(),
            report.accepted_latency_us.end());
}

std::future<AnnotationResult> SubmitOne(AnnotationService& service,
                                        const table::Table& table,
                                        const LoadgenOptions& options) {
  if (options.deadline_us > 0) {
    return service.Submit(table, Deadline::AfterMicros(options.deadline_us));
  }
  return service.Submit(table);
}

}  // namespace

int64_t LoadReport::LatencyPercentileUs(double pct) const {
  if (accepted_latency_us.empty()) return 0;
  double rank = pct / 100.0 * static_cast<double>(accepted_latency_us.size());
  size_t idx = static_cast<size_t>(std::ceil(rank));
  if (idx > 0) --idx;
  if (idx >= accepted_latency_us.size()) {
    idx = accepted_latency_us.size() - 1;
  }
  return accepted_latency_us[idx];
}

std::string LoadReport::Json() const {
  std::string out = "{\"submitted\": " + std::to_string(submitted);
  out += ", \"duration_s\": " + std::to_string(duration_s);
  out += ", \"offered_per_second\": " + std::to_string(offered_per_second);
  out += ", \"goodput_per_second\": " + std::to_string(goodput_per_second);
  out += ", \"max_queue_depth\": " + std::to_string(max_queue_depth);
  out += ", \"by_status\": {";
  for (int i = 0; i < kNumRequestStatuses; ++i) {
    if (i > 0) out += ", ";
    out += std::string("\"") +
           RequestStatusName(static_cast<RequestStatus>(i)) +
           "\": " + std::to_string(by_status[static_cast<size_t>(i)]);
  }
  out += "}, \"latency\": {\"accepted\": " +
         std::to_string(accepted_latency_us.size());
  out += ", \"p50_us\": " + std::to_string(LatencyPercentileUs(50));
  out += ", \"p99_us\": " + std::to_string(LatencyPercentileUs(99));
  out += ", \"p999_us\": " + std::to_string(LatencyPercentileUs(99.9));
  out += "}}";
  return out;
}

ZipfPicker::ZipfPicker(size_t n, double s) {
  KGLINK_CHECK_GT(n, 0u);
  cumulative_.reserve(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cumulative_.push_back(total);
  }
}

size_t ZipfPicker::Pick(Rng& rng) const {
  double r = rng.UniformDouble() * cumulative_.back();
  auto it =
      std::upper_bound(cumulative_.begin(), cumulative_.end(), r);
  if (it == cumulative_.end()) --it;
  return static_cast<size_t>(it - cumulative_.begin());
}

LoadReport RunClosedLoop(AnnotationService& service,
                         const std::vector<const table::Table*>& tables,
                         const LoadgenOptions& options) {
  KGLINK_CHECK(!tables.empty());
  int workers = options.closed_loop_workers > 0 ? options.closed_loop_workers
                                                : 1;
  LoadReport report;
  std::mutex merge_mu;
  auto start = std::chrono::steady_clock::now();
  auto until = start + std::chrono::microseconds(options.duration_us);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      Rng rng(options.seed + static_cast<uint64_t>(w) * 0x9e3779b97f4a7c15ULL);
      ZipfPicker picker(tables.size(), options.zipf_s);
      LoadReport local;
      while (std::chrono::steady_clock::now() < until) {
        const table::Table& t = *tables[picker.Pick(rng)];
        AnnotationResult result = SubmitOne(service, t, options).get();
        ++local.submitted;
        FoldResult(result, local);
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      report.submitted += local.submitted;
      for (int i = 0; i < kNumRequestStatuses; ++i) {
        report.by_status[static_cast<size_t>(i)] +=
            local.by_status[static_cast<size_t>(i)];
      }
      report.accepted_latency_us.insert(report.accepted_latency_us.end(),
                                        local.accepted_latency_us.begin(),
                                        local.accepted_latency_us.end());
    });
  }
  for (auto& th : pool) th.join();
  double elapsed_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  FinalizeReport(report, elapsed_s, elapsed_s);
  return report;
}

LoadReport RunOpenLoop(AnnotationService& service,
                       const std::vector<const table::Table*>& tables,
                       const LoadgenOptions& options) {
  KGLINK_CHECK(!tables.empty());
  KGLINK_CHECK_GT(options.rate_per_second, 0.0);

  // The whole arrival schedule is drawn up front from the seed: Poisson
  // inter-arrivals at the offered rate, then burst-gated by shifting any
  // arrival that lands in an off-window to the start of the next on-window
  // (so a burst cycle opens with the queued-up backlog, as real on/off
  // sources do). Pacing honors the schedule; completions never gate
  // arrivals — that is what makes the loop open.
  Rng rng(options.seed);
  ZipfPicker picker(tables.size(), options.zipf_s);
  int64_t cycle_us = options.burst_on_us + options.burst_off_us;
  std::vector<int64_t> schedule;
  double t_us = 0;
  for (;;) {
    double u = rng.UniformDouble();
    if (u >= 1.0) u = 0.9999999999;
    t_us += -std::log(1.0 - u) / options.rate_per_second * 1e6;
    int64_t at = static_cast<int64_t>(t_us);
    if (cycle_us > 0 && options.burst_off_us > 0) {
      int64_t pos = at % cycle_us;
      if (pos >= options.burst_on_us) at += cycle_us - pos;
    }
    if (at >= options.duration_us) break;
    schedule.push_back(at);
  }

  LoadReport report;
  std::vector<std::future<AnnotationResult>> futures;
  futures.reserve(schedule.size());
  auto start = std::chrono::steady_clock::now();
  for (int64_t at : schedule) {
    std::this_thread::sleep_until(start + std::chrono::microseconds(at));
    const table::Table& t = *tables[picker.Pick(rng)];
    report.max_queue_depth =
        std::max(report.max_queue_depth, service.queue_depth());
    futures.push_back(SubmitOne(service, t, options));
    ++report.submitted;
  }
  for (auto& f : futures) {
    FoldResult(f.get(), report);
  }
  double duration_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  FinalizeReport(report, static_cast<double>(options.duration_us) * 1e-6,
                 duration_s);
  return report;
}

BatchResult RunBatch(AnnotationService& service,
                     const std::vector<const table::Table*>& tables,
                     int count, const LoadgenOptions& options) {
  KGLINK_CHECK(!tables.empty());
  Rng rng(options.seed);
  ZipfPicker picker(tables.size(), options.zipf_s);
  std::vector<std::future<AnnotationResult>> futures;
  futures.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    futures.push_back(SubmitOne(service, *tables[picker.Pick(rng)], options));
  }
  BatchResult out;
  uint64_t h = 14695981039346656037ULL;  // FNV-1a 64 offset basis
  auto fold = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (b * 8)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  for (auto& f : futures) {
    AnnotationResult result = f.get();
    out.by_status[static_cast<size_t>(result.status)]++;
    fold(static_cast<uint64_t>(result.status));
    fold(result.predictions.size());
    for (int p : result.predictions) fold(static_cast<uint64_t>(p));
    fold(result.degrade_reason.size());
    for (char c : result.degrade_reason) {
      fold(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
  }
  out.checksum = h;
  return out;
}

}  // namespace kglink::serve
