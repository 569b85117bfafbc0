#include "robust/retry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "obs/metrics.h"
#include "obs/request_telemetry.h"
#include "robust/retry_budget.h"

namespace kglink::robust {

namespace {

struct RobustMetrics {
  obs::Counter& retries;
  obs::Counter& failed_ops;

  static RobustMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static RobustMetrics& m = *new RobustMetrics{
        reg.GetCounter("robust.retries"),
        reg.GetCounter("robust.failed_ops")};
    return m;
  }
};

// Decorrelates consecutive stream keys into well-separated RNG seeds
// (splitmix64 finalizer).
uint64_t MixStreamKey(uint64_t key) {
  uint64_t z = key + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

int64_t RetryPolicy::BackoffMicros(int attempt, double jitter01) const {
  double backoff = static_cast<double>(base_backoff_us) *
                   std::pow(backoff_multiplier, attempt - 1);
  backoff = std::min(backoff, static_cast<double>(max_backoff_us));
  // Full jitter over the upper half: uniform in [backoff/2, backoff).
  return static_cast<int64_t>(backoff * (0.5 + 0.5 * jitter01));
}

namespace internal {

void SleepBackoff(const RetryPolicy& policy, int attempt) {
  double jitter = FaultInjector::Enabled()
                      ? FaultInjector::Global().JitterUniform()
                      : 0.5;
  SleepBackoff(policy, attempt, policy.BackoffMicros(attempt, jitter));
}

void SleepBackoff(const RetryPolicy& policy, int attempt, int64_t backoff_us) {
  (void)policy;
  (void)attempt;
  RobustMetrics::Get().retries.Add();
  std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
}

bool BackoffBlocked(const RequestContext* request, int64_t backoff_us) {
  if (request == nullptr || request->Unbounded()) return false;
  if (request->cancel.Cancelled()) return true;
  return request->deadline.RemainingMicros() <= backoff_us;
}

bool RetryAllowed(const RequestContext* request) {
  return request == nullptr || request->retry_budget == nullptr ||
         request->retry_budget->TryAcquire();
}

}  // namespace internal

TableOpContext::TableOpContext(const RetryPolicy& policy,
                               const TableBudget& budget,
                               uint64_t jitter_seed)
    : TableOpContext(policy, budget, jitter_seed, nullptr) {}

TableOpContext::TableOpContext(const RetryPolicy& policy,
                               const TableBudget& budget,
                               uint64_t jitter_seed,
                               const RequestContext* request)
    : policy_(policy),
      budget_(budget),
      jitter_rng_(jitter_seed),
      request_(request) {
  if (request_ != nullptr) {
    fault_rng_ = Rng(FaultInjector::Global().seed() ^
                     MixStreamKey(request_->stream_key));
  }
}

void TableOpContext::Degrade(const char* reason) {
  degraded_ = true;
  degrade_reason_ = reason;
  if (obs::RequestTelemetry* t = obs::TelemetryOf(request_)) {
    ++t->degrade_events;
  }
}

bool TableOpContext::DeadlineExpired() {
  if (budget_.deadline_us <= 0) return false;
  return watch_.ElapsedSeconds() * 1e6 >
         static_cast<double>(budget_.deadline_us);
}

bool TableOpContext::RollFault(FaultSite site) {
  if (request_ != nullptr) {
    return FaultInjector::Global().ShouldFailWithRng(site, fault_rng_,
                                                     request_);
  }
  return FaultInjector::Global().ShouldFail(site);
}

bool TableOpContext::SoftFault(FaultSite site) {
  if (!FaultInjector::Enabled()) return false;
  return RollFault(site);
}

bool TableOpContext::CheckDeadline() {
  if (degraded_) return true;
  if (request_ != nullptr && !request_->Unbounded()) {
    if (request_->cancel.Cancelled()) {
      Degrade("cancelled");
      return true;
    }
    if (request_->deadline.IsExpired()) {
      Degrade("deadline");
      return true;
    }
  }
  if (DeadlineExpired()) {
    Degrade("deadline");
    return true;
  }
  return false;
}

bool TableOpContext::Attempt(FaultSite site) {
  if (degraded_) return false;
  if (request_ != nullptr && CheckDeadline()) return false;
  if (!FaultInjector::Enabled()) return true;
  if (CheckDeadline()) return false;
  for (int attempt = 0;; ++attempt) {
    if (!RollFault(site)) return true;
    if (attempt + 1 >= policy_.max_attempts) break;  // retries exhausted
    if (++retries_used_ > budget_.max_retries) {
      Degrade("retry budget exhausted");
      return false;
    }
    if (!internal::RetryAllowed(request_)) {
      // The request's retry budget is spent: degrade this table instead of
      // adding retry traffic to a correlated fault burst.
      Degrade("retry budget exhausted");
      return false;
    }
    int64_t backoff_us =
        policy_.BackoffMicros(attempt + 1, jitter_rng_.UniformDouble());
    if (internal::BackoffBlocked(request_, backoff_us)) {
      // The sleep could not finish inside the request budget: stop
      // retrying now instead of blocking a worker past the deadline.
      Degrade(request_->cancel.Cancelled() ? "cancelled" : "deadline");
      return false;
    }
    RobustMetrics::Get().retries.Add();
    if (obs::RequestTelemetry* t = obs::TelemetryOf(request_)) ++t->retries;
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    if (CheckDeadline()) return false;
  }
  RobustMetrics::Get().failed_ops.Add();
  if (++failed_ops_ > budget_.max_failed_ops) {
    Degrade("fault budget exhausted");
  }
  return false;
}

}  // namespace kglink::robust
