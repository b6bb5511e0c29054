#include "ctrl/traffic_policy.h"

#include <algorithm>

#include "common/check.h"

namespace vod {

namespace {

/// Bucket refill rate as a multiple of the movie's planned arrival rate;
/// > 1 so nominal traffic is never token-limited.
constexpr double kRateMultiplier = 1.25;

/// Bucket depth: this many minutes of refill, floored at kMinBurstTokens.
double BurstFor(double rate) {
  constexpr double kBurstWindowMinutes = 10.0;
  constexpr double kMinBurstTokens = 3.0;
  return std::max(kMinBurstTokens, rate * kBurstWindowMinutes);
}

}  // namespace

TrafficPolicy::TrafficPolicy(const ControllerHost* host, EventLog* log)
    : host_(host), log_(log) {
  VOD_CHECK(host != nullptr);
}

void TrafficPolicy::Configure(const std::vector<double>& rates, double t0) {
  buckets_.clear();
  buckets_.reserve(rates.size());
  for (double rate : rates) {
    Bucket b;
    b.rate = rate * kRateMultiplier;
    b.burst = BurstFor(b.rate);
    b.tokens = b.burst;  // start full: nominal traffic is never limited
    b.last_refill = t0;
    buckets_.push_back(b);
  }
}

void TrafficPolicy::Update(int32_t movie, double rate, int priority_class) {
  VOD_CHECK(movie >= 0 && static_cast<size_t>(movie) < buckets_.size());
  VOD_CHECK(priority_class >= 0 && priority_class < kNumPriorityClasses);
  Bucket& b = buckets_[static_cast<size_t>(movie)];
  b.rate = rate * kRateMultiplier;
  b.burst = BurstFor(b.rate);
  b.tokens = std::min(b.tokens, b.burst);
  b.priority_class = priority_class;
}

bool TrafficPolicy::OnArrival(int32_t movie, double t) {
  VOD_CHECK(movie >= 0 && static_cast<size_t>(movie) < buckets_.size());
  Bucket& b = buckets_[static_cast<size_t>(movie)];
  b.tokens = std::min(b.burst, b.tokens + (t - b.last_refill) * b.rate);
  b.last_refill = t;
  const bool has_token = b.tokens >= 1.0;
  if (has_token) b.tokens -= 1.0;

  const int pressure = host_->PressureLevel();
  bool shed = false;
  if (pressure > 0 && !has_token) {
    // Token-exhausted (above planned rate) traffic sheds by class: under
    // moderate pressure only the bottom class, under severe pressure
    // everything below the top class.
    shed = (pressure == 1) ? b.priority_class >= 2 : b.priority_class >= 1;
  }
  if (!shed) {
    ++admitted_;
    return true;
  }
  ++shed_total_;
  ++sheds_by_class_[static_cast<size_t>(b.priority_class)];
  if (ObsEnabled(log_, EventCategory::kController)) {
    log_->Emit(t, EventCategory::kController,
               static_cast<uint8_t>(ControllerEvent::kShed), movie,
               /*id=*/-1, /*value=*/static_cast<double>(pressure),
               /*aux=*/static_cast<uint8_t>(b.priority_class));
  }
  return false;
}

}  // namespace vod
