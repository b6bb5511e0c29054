#include "sim/arrival_process.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace vod {

PoissonArrivals::PoissonArrivals(double rate_per_minute)
    : rate_(rate_per_minute) {
  VOD_CHECK_MSG(rate_per_minute > 0.0, "arrival rate must be positive");
}

double PoissonArrivals::NextArrivalAfter(double after, Rng* rng) const {
  return after + rng->Exponential(1.0 / rate_);
}

Result<SinusoidalArrivals> SinusoidalArrivals::Create(
    double mean_rate_per_minute, double amplitude, double period_minutes) {
  if (!(mean_rate_per_minute > 0.0)) {
    return Status::InvalidArgument("mean rate must be positive");
  }
  if (amplitude < 0.0 || amplitude >= 1.0) {
    return Status::InvalidArgument("amplitude must lie in [0, 1)");
  }
  if (!(period_minutes > 0.0)) {
    return Status::InvalidArgument("period must be positive");
  }
  return SinusoidalArrivals(mean_rate_per_minute, amplitude, period_minutes);
}

double SinusoidalArrivals::RateAt(double t) const {
  return mean_rate_ *
         (1.0 + amplitude_ * std::sin(2.0 * M_PI * t / period_));
}

double SinusoidalArrivals::NextArrivalAfter(double after, Rng* rng) const {
  // Ogata thinning against the envelope λ_max.
  const double max_rate = mean_rate_ * (1.0 + amplitude_);
  double t = after;
  for (;;) {
    t += rng->Exponential(1.0 / max_rate);
    if (rng->Uniform01() * max_rate <= RateAt(t)) return t;
  }
}

Result<PiecewiseArrivals> PiecewiseArrivals::Create(
    std::vector<double> bucket_rates, double cycle_minutes) {
  if (bucket_rates.empty()) {
    return Status::InvalidArgument("need at least one rate bucket");
  }
  if (!(cycle_minutes > 0.0)) {
    return Status::InvalidArgument("cycle must be positive");
  }
  double max_rate = 0.0;
  double sum = 0.0;
  for (double rate : bucket_rates) {
    if (rate < 0.0) {
      return Status::InvalidArgument("bucket rates must be non-negative");
    }
    max_rate = std::max(max_rate, rate);
    sum += rate;
  }
  if (max_rate <= 0.0) {
    return Status::InvalidArgument("at least one bucket must be positive");
  }
  const double mean = sum / static_cast<double>(bucket_rates.size());
  return PiecewiseArrivals(std::move(bucket_rates), cycle_minutes, max_rate,
                           mean);
}

double PiecewiseArrivals::RateAt(double t) const {
  double phase = std::fmod(t, cycle_);
  if (phase < 0.0) phase += cycle_;
  const auto bucket = static_cast<size_t>(
      phase / cycle_ * static_cast<double>(rates_.size()));
  return rates_[std::min(bucket, rates_.size() - 1)];
}

double PiecewiseArrivals::NextArrivalAfter(double after, Rng* rng) const {
  double t = after;
  for (;;) {
    t += rng->Exponential(1.0 / max_rate_);
    if (rng->Uniform01() * max_rate_ <= RateAt(t)) return t;
  }
}

Result<FlashArrivals> FlashArrivals::Create(double base_rate_per_minute,
                                            double peak_factor,
                                            double start_minutes,
                                            double duration_minutes) {
  // An infinite rate would put every arrival at one instant, forever.
  if (!(base_rate_per_minute > 0.0) || !std::isfinite(base_rate_per_minute)) {
    return Status::InvalidArgument("base rate must be positive and finite");
  }
  if (!(peak_factor > 0.0) || !std::isfinite(peak_factor)) {
    return Status::InvalidArgument("peak factor must be positive and finite");
  }
  if (!(start_minutes >= 0.0) || !std::isfinite(start_minutes)) {
    return Status::InvalidArgument(
        "flash start must be non-negative and finite");
  }
  // An infinite duration is a permanent step (the new release of
  // `vodctl reproduce --artifact=drift`).
  if (!(duration_minutes > 0.0)) {
    return Status::InvalidArgument("flash duration must be positive");
  }
  return FlashArrivals(base_rate_per_minute, peak_factor, start_minutes,
                       duration_minutes);
}

double FlashArrivals::RateAt(double t) const {
  const bool in_flash = t >= start_ && t - start_ < duration_;
  return in_flash ? base_rate_ * factor_ : base_rate_;
}

double FlashArrivals::NextArrivalAfter(double after, Rng* rng) const {
  const double max_rate = base_rate_ * std::max(1.0, factor_);
  double t = after;
  for (;;) {
    t += rng->Exponential(1.0 / max_rate);
    if (rng->Uniform01() * max_rate <= RateAt(t)) return t;
  }
}

}  // namespace vod
