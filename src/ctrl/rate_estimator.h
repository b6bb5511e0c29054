// Online per-movie arrival-rate estimation with drift detection.
//
// The controller cannot trust config rates: popularity is Zipf-with-churn
// and diurnal. Each movie tracks its arrival intensity with a shot-noise
// filter — on every arrival the estimate decays by exp(-gap/tau) and gains
// 1/tau — whose stationary mean is exactly lambda for Poisson input (an
// EWMA over inter-arrival *gaps* is length-biased: each gap weights itself
// by its own duration and converges to E[gap^2]/E[gap] = 2/lambda). On top
// of the filter sits a two-sided Page–Hinkley detector on the normalized
// rate residual r = (lambda_hat - lambda_0)/lambda_0, fed with the
// PASTA-unbiased pre-update estimate and decimated to one sample per tau so
// its inputs are roughly independent. The detector's drift tolerance and
// alarm threshold auto-scale with the filter's noise floor
// sigma_r ~ 1/sqrt(2*lambda_0*tau), so a cold movie (few effective samples,
// noisy estimate) needs a proportionally larger excursion to alarm — this
// is what keeps the zero-drift no-op property honest across rate scales.
//
// Everything here is pure arithmetic over arrival timestamps: no RNG is
// consulted, so an estimator observing a simulation cannot perturb it.

#ifndef VOD_CTRL_RATE_ESTIMATOR_H_
#define VOD_CTRL_RATE_ESTIMATOR_H_

#include <cstdint>

namespace vod {

/// \brief One movie's shot-noise rate tracker + Page–Hinkley drift detector.
class RateEstimator {
 public:
  /// `baseline_rate` is lambda_0 (arrivals/minute), the rate the committed
  /// plan was solved for; the filter is initialized to it so the estimator
  /// starts unbiased. `t0` is the observation start time.
  RateEstimator(double baseline_rate, double t0);

  /// Records an arrival at time t (non-decreasing across calls).
  void Observe(double t);

  /// Rate estimate at time t >= the last arrival. Decays exponentially
  /// through silence, so a collapsed movie's estimate fades on the tau
  /// horizon instead of freezing at its last busy value.
  double RateAt(double t) const;

  /// Noise floor of the normalized residual at the current baseline.
  double sigma() const { return sigma_; }

  /// True once the Page–Hinkley statistic crossed its threshold (either
  /// direction). Latched until Rebase().
  bool DriftAlarm() const { return alarm_; }

  /// Re-baselines after a re-plan: lambda_0 <- new_baseline, both PH
  /// statistics and the alarm latch reset. The filter state is kept.
  void Rebase(double new_baseline);

  double baseline() const { return baseline_; }
  int64_t observations() const { return observations_; }

 private:
  double baseline_;  ///< lambda_0 the detector measures drift against
  double sigma_;     ///< noise floor at the current baseline
  double rate_;      ///< shot-noise intensity estimate as of last_arrival_
  double last_arrival_;
  /// Last Page–Hinkley sample time: the detector consumes at most one
  /// residual per tau so its inputs are roughly independent (per-arrival
  /// residuals share the filter's memory and would overwhelm a sigma-scaled
  /// threshold under pure noise).
  double last_ph_sample_;
  int64_t observations_ = 0;

  // Two-sided Page–Hinkley: m^+ tracks upward drift, m^- downward; each is
  // reset-to-zero form (m = max(0, m + r -+ delta)), alarm when m > h.
  double ph_up_ = 0.0;
  double ph_down_ = 0.0;
  bool alarm_ = false;
};

}  // namespace vod

#endif  // VOD_CTRL_RATE_ESTIMATOR_H_
