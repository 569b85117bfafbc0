// Adaptive overload control for the serving path.
//
// CodelAdmissionController — CoDel (Controlled Delay, Nichols & Jacobson)
// applied to admission instead of packet drops. The static max_queue bound
// answers "is the queue full", which says nothing about how long requests
// sit in it; CoDel watches the *queue sojourn time* each worker observes
// at dequeue. When the sojourn has stayed above `target_us` continuously
// for `interval_us`, the controller enters the overloaded state and starts
// shedding arrivals on the standard control-law cadence — the i-th shed
// after interval/sqrt(i) — which ramps shedding pressure until sojourn
// falls back under target. A single sub-target sojourn resets the state
// (standing queues persist; bursts drain). Deterministic under an
// injectable clock.
#ifndef KGLINK_SERVE_OVERLOAD_H_
#define KGLINK_SERVE_OVERLOAD_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "obs/rolling_window.h"

namespace kglink::serve {

// Admission policy: the static queue-full bound, or CoDel sojourn control
// layered on top of it (the hard max_queue bound always applies).
enum class AdmissionMode : int { kStatic = 0, kCodel };

const char* AdmissionModeName(AdmissionMode mode);
std::optional<AdmissionMode> AdmissionModeFromName(std::string_view name);

struct CodelOptions {
  int64_t target_us = 5'000;     // acceptable standing sojourn
  int64_t interval_us = 100'000; // how long above-target must persist
};

class CodelAdmissionController {
 public:
  explicit CodelAdmissionController(CodelOptions options,
                                    obs::ClockMicrosFn clock = {});
  CodelAdmissionController(const CodelAdmissionController&) = delete;
  CodelAdmissionController& operator=(const CodelAdmissionController&) =
      delete;

  // Worker side: the sojourn one request just spent queued. Drives the
  // above-target tracking and the EWMA estimate surfaced in HealthJson.
  void OnDequeue(int64_t sojourn_us);

  // Submit side: true when this arrival should be shed. Consumes one shed
  // slot from the control law, so call it only for an arrival that would
  // otherwise be enqueued.
  bool ShouldShed();

  bool overloaded() const;
  int64_t sojourn_ewma_us() const;
  int64_t sheds() const;

  // Inner fields of the admission JSON object (no braces): target_us,
  // interval_us, sojourn_ewma_us, overloaded, sheds. The service wraps
  // them together with the active mode.
  std::string SnapshotJsonFields() const;

 private:
  int64_t Now() const;

  CodelOptions options_;
  obs::ClockMicrosFn clock_;

  mutable std::mutex mu_;
  int64_t first_above_us_ = 0;  // when above-target began + interval; 0=none
  bool overloaded_ = false;
  int64_t shed_next_us_ = 0;  // next control-law shed time while overloaded
  int shed_count_ = 0;        // control-law index (retained across episodes)
  double sojourn_ewma_us_ = 0.0;
  bool have_sample_ = false;
  int64_t sheds_ = 0;
};

}  // namespace kglink::serve

#endif  // KGLINK_SERVE_OVERLOAD_H_
