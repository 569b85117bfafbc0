#include "robust/retry_budget.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace kglink::robust {

namespace {

struct BudgetMetrics {
  obs::Counter& granted;
  obs::Counter& denied;

  static BudgetMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static BudgetMetrics& m = *new BudgetMetrics{
        reg.GetCounter("robust.retry_budget.granted"),
        reg.GetCounter("robust.retry_budget.denied")};
    return m;
  }
};

RetryBudgetOptions Sanitized(RetryBudgetOptions options) {
  options.tokens_per_second = std::max(0.0, options.tokens_per_second);
  options.burst = std::max(0.0, options.burst);
  return options;
}

}  // namespace

RetryBudget::RetryBudget(const RetryBudgetOptions& options,
                         obs::ClockMicrosFn clock)
    : options_(Sanitized(options)),
      clock_(std::move(clock)),
      tokens_(options_.burst),
      last_refill_us_(Now()) {}

int64_t RetryBudget::Now() const {
  return clock_ ? clock_() : obs::SteadyNowMicros();
}

void RetryBudget::RefillLocked(int64_t now_us) {
  if (now_us <= last_refill_us_) return;
  double accrued = static_cast<double>(now_us - last_refill_us_) * 1e-6 *
                   options_.tokens_per_second;
  tokens_ = std::min(options_.burst, tokens_ + accrued);
  last_refill_us_ = now_us;
}

bool RetryBudget::TryAcquire() {
  std::lock_guard<std::mutex> lock(mu_);
  RefillLocked(Now());
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    ++granted_;
    BudgetMetrics::Get().granted.Add();
    return true;
  }
  ++denied_;
  BudgetMetrics::Get().denied.Add();
  return false;
}

double RetryBudget::fill() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Refresh so an idle bucket reads as refilled. RefillLocked only writes
  // the mutable accounting fields; const_cast keeps the accessor const.
  const_cast<RetryBudget*>(this)->RefillLocked(Now());
  return tokens_;
}

int64_t RetryBudget::granted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return granted_;
}

int64_t RetryBudget::denied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return denied_;
}

std::string RetryBudget::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  const_cast<RetryBudget*>(this)->RefillLocked(Now());
  std::string out = "{\"enabled\": true";
  out += ", \"tokens_per_second\": " +
         std::to_string(options_.tokens_per_second);
  out += ", \"burst\": " + std::to_string(options_.burst);
  out += ", \"fill\": " + std::to_string(tokens_);
  out += ", \"granted\": " + std::to_string(granted_);
  out += ", \"denied\": " + std::to_string(denied_);
  out += "}";
  return out;
}

}  // namespace kglink::robust
