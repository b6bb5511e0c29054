#include "ctrl/rate_estimator.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace vod {

namespace {
// Filter time constant tau in minutes: arrivals older than ~tau stop
// mattering, and a silent movie's estimate decays on the same horizon.
constexpr double kTauMinutes = 120.0;
// Page–Hinkley drift tolerance, in units of the noise floor sigma_r.
constexpr double kPhDeltaSigma = 0.5;
// Page–Hinkley alarm threshold, in units of sigma_r. Sized for the
// detector's tau-spaced samples, which still carry ~e^-1 autocorrelation
// (≈1.5x noise inflation): 20 sigma puts the stationary false-alarm ARL
// in the tens of thousands of samples while a flash crowd's residual
// (several sigma *per sample*) crosses within a couple of taus.
constexpr double kPhThresholdSigma = 20.0;

// sigma_r for the normalized shot-noise estimate at rate lambda: stationary
// variance lambda/(2*tau) gives relative std 1/sqrt(2*lambda*tau).
double NoiseFloor(double baseline) {
  const double effective = std::max(2.0 * baseline * kTauMinutes, 1.0);
  return 1.0 / std::sqrt(effective);
}
}  // namespace

RateEstimator::RateEstimator(double baseline_rate, double t0)
    : baseline_(baseline_rate),
      sigma_(NoiseFloor(baseline_rate)),
      rate_(baseline_rate),
      last_arrival_(t0),
      last_ph_sample_(t0) {
  VOD_CHECK(baseline_rate > 0.0);
}

void RateEstimator::Observe(double t) {
  const double tau = kTauMinutes;
  const double gap = std::max(t - last_arrival_, 0.0);
  // Shot-noise filter: decay the running intensity, then add this arrival's
  // kernel mass. Stationary mean is exactly lambda for Poisson input — the
  // estimator is intensity-weighted, never gap-length-weighted.
  const double pre = rate_ * std::exp(-gap / tau);
  rate_ = pre + 1.0 / tau;
  last_arrival_ = t;
  ++observations_;

  // Page-Hinkley on the normalized residual, reset-to-zero form. Two
  // choices keep the sigma-scaled threshold honest under pure noise:
  // the residual uses the PRE-update estimate (by PASTA an arrival instant
  // sees the time-stationary — unbiased — value; post-update adds a +1/tau
  // self-spike), and the detector consumes at most one sample per tau
  // (per-arrival residuals share the filter's memory; summing ~2*lambda*tau
  // correlated terms would let stationary excursions pile up an alarm).
  if (t - last_ph_sample_ < tau) return;
  last_ph_sample_ = t;
  const double residual = (pre - baseline_) / baseline_;
  const double delta = kPhDeltaSigma * sigma_;
  const double threshold = kPhThresholdSigma * sigma_;
  ph_up_ = std::max(0.0, ph_up_ + residual - delta);
  ph_down_ = std::max(0.0, ph_down_ - residual - delta);
  if (ph_up_ > threshold || ph_down_ > threshold) alarm_ = true;
}

double RateEstimator::RateAt(double t) const {
  const double silence = std::max(t - last_arrival_, 0.0);
  return rate_ * std::exp(-silence / kTauMinutes);
}

void RateEstimator::Rebase(double new_baseline) {
  VOD_CHECK(new_baseline > 0.0);
  baseline_ = new_baseline;
  sigma_ = NoiseFloor(new_baseline);
  ph_up_ = 0.0;
  ph_down_ = 0.0;
  alarm_ = false;
}

}  // namespace vod
