// Policy-based traffic handler in front of admission.
//
// The degradation ladder sheds load globally; the controller can do better
// because it knows each movie's marginal value under the committed plan.
// Every movie gets a token bucket refilled at a small multiple of its
// planned rate, and a priority class derived from its marginal value
// (top third = class 0). Under overload the gate sheds selectively:
//
//   pressure 0: admit everything (the gate must be invisible off-overload —
//               this is part of the controller-off byte-identity property);
//   pressure 1: class-2 arrivals without a token are shed;
//   pressure 2: class-1 and class-2 arrivals without a token are shed.
//
// Buckets refill lazily (tokens = min(burst, tokens + (t - last) * rate)),
// so the policy is a deterministic pure function of the arrival sequence —
// no RNG, no wall clock.

#ifndef VOD_CTRL_TRAFFIC_POLICY_H_
#define VOD_CTRL_TRAFFIC_POLICY_H_

#include <array>
#include <cstdint>
#include <vector>

#include "ctrl/admission_gate.h"
#include "ctrl/host.h"
#include "obs/event_log.h"

namespace vod {

/// Number of priority classes (0 = most valuable, sheds last).
inline constexpr int kNumPriorityClasses = 3;

/// \brief Per-movie token buckets + priority classes; sheds under pressure.
class TrafficPolicy final : public AdmissionGate {
 public:
  /// `host` supplies the pressure level; `log` is optional telemetry. Both
  /// must outlive the policy.
  TrafficPolicy(const ControllerHost* host, EventLog* log);

  /// Registers `movie_count` movies, all class 0 with the given rates, and
  /// full buckets. Called once before the simulation starts.
  void Configure(const std::vector<double>& rates, double t0);

  /// Updates one movie's planned rate and priority class (on re-plan).
  /// Tokens carry over, clamped to the new burst.
  void Update(int32_t movie, double rate, int priority_class);

  int priority_class(int32_t movie) const {
    return buckets_[static_cast<size_t>(movie)].priority_class;
  }

  /// AdmissionGate: refills the bucket, then admits or sheds by pressure
  /// and class as documented above.
  bool OnArrival(int32_t movie, double t) override;

  int64_t admitted() const { return admitted_; }
  int64_t shed_total() const { return shed_total_; }
  int64_t sheds_in_class(int priority_class) const {
    return sheds_by_class_[static_cast<size_t>(priority_class)];
  }

 private:
  struct Bucket {
    double rate = 0.0;   ///< tokens per minute
    double burst = 0.0;  ///< bucket depth
    double tokens = 0.0;
    double last_refill = 0.0;
    int priority_class = 0;
  };

  const ControllerHost* host_;
  EventLog* log_;
  std::vector<Bucket> buckets_;
  int64_t admitted_ = 0;
  int64_t shed_total_ = 0;
  std::array<int64_t, kNumPriorityClasses> sheds_by_class_{};
};

}  // namespace vod

#endif  // VOD_CTRL_TRAFFIC_POLICY_H_
