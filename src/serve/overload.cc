#include "serve/overload.h"

#include <cmath>

#include "obs/metrics.h"

namespace kglink::serve {

namespace {

obs::Counter& CodelShedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("serve.admission.codel_sheds");
  return c;
}

}  // namespace

const char* AdmissionModeName(AdmissionMode mode) {
  return mode == AdmissionMode::kCodel ? "codel" : "static";
}

std::optional<AdmissionMode> AdmissionModeFromName(std::string_view name) {
  if (name == "static") return AdmissionMode::kStatic;
  if (name == "codel") return AdmissionMode::kCodel;
  return std::nullopt;
}

// ---- CodelAdmissionController ---------------------------------------------

CodelAdmissionController::CodelAdmissionController(CodelOptions options,
                                                   obs::ClockMicrosFn clock)
    : options_(options), clock_(std::move(clock)) {}

int64_t CodelAdmissionController::Now() const {
  return clock_ ? clock_() : obs::SteadyNowMicros();
}

void CodelAdmissionController::OnDequeue(int64_t sojourn_us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!have_sample_) {
    sojourn_ewma_us_ = static_cast<double>(sojourn_us);
    have_sample_ = true;
  } else {
    // 1/8 EWMA weight — the TCP RTT estimator constant; smooth enough to
    // read in a health page, fresh enough to track an overload episode.
    sojourn_ewma_us_ += (static_cast<double>(sojourn_us) - sojourn_ewma_us_) *
                        0.125;
  }
  if (sojourn_us < options_.target_us) {
    // One sub-target sojourn ends the episode: a draining burst is not a
    // standing queue. The control-law count decays instead of resetting so
    // a quickly-returning overload resumes near its previous cadence.
    first_above_us_ = 0;
    if (overloaded_) {
      overloaded_ = false;
      shed_count_ = shed_count_ > 2 ? shed_count_ - 2 : 0;
    }
    return;
  }
  int64_t now = Now();
  if (first_above_us_ == 0) {
    first_above_us_ = now + options_.interval_us;
  } else if (!overloaded_ && now >= first_above_us_) {
    // Sojourn has been above target for a full interval: standing queue.
    overloaded_ = true;
    if (shed_count_ < 1) shed_count_ = 1;
    shed_next_us_ = now;  // first arrival sheds immediately
  }
}

bool CodelAdmissionController::ShouldShed() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!overloaded_) return false;
  int64_t now = Now();
  if (now < shed_next_us_) return false;
  // Control law: successive sheds at interval / sqrt(count) — pressure
  // ramps while the standing queue persists.
  ++shed_count_;
  shed_next_us_ =
      now + static_cast<int64_t>(static_cast<double>(options_.interval_us) /
                                 std::sqrt(static_cast<double>(shed_count_)));
  ++sheds_;
  CodelShedCounter().Add();
  return true;
}

bool CodelAdmissionController::overloaded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overloaded_;
}

int64_t CodelAdmissionController::sojourn_ewma_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(sojourn_ewma_us_);
}

int64_t CodelAdmissionController::sheds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sheds_;
}

std::string CodelAdmissionController::SnapshotJsonFields() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "\"target_us\": " + std::to_string(options_.target_us);
  out += ", \"interval_us\": " + std::to_string(options_.interval_us);
  out += ", \"sojourn_ewma_us\": " +
         std::to_string(static_cast<int64_t>(sojourn_ewma_us_));
  out += std::string(", \"overloaded\": ") + (overloaded_ ? "true" : "false");
  out += ", \"sheds\": " + std::to_string(sheds_);
  return out;
}

}  // namespace kglink::serve
