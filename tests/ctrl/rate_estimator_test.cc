#include "ctrl/rate_estimator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace vod {
namespace {

// Feeds Poisson(rate) arrivals over `minutes`, returns the final time.
double FeedPoisson(RateEstimator* estimator, double rate, double minutes,
                   Rng* rng, double t0 = 0.0) {
  double t = t0;
  for (;;) {
    t += rng->Exponential(1.0 / rate);
    if (t > t0 + minutes) return t0 + minutes;
    estimator->Observe(t);
  }
}

// The shot-noise filter's stationary mean is lambda — the length bias that
// sinks a gap-EWMA (which converges to E[gap^2]/E[gap] = 2/lambda, i.e. an
// estimate of lambda/2) must not reappear.
TEST(RateEstimatorTest, ShotNoiseEstimateIsUnbiasedForPoisson) {
  const double rate = 0.5;
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    RateEstimator estimator(rate, 0.0);
    // Long horizon relative to tau so the filter forgets its init.
    const double end = FeedPoisson(&estimator, rate, 20000.0, &rng);
    EXPECT_NEAR(estimator.RateAt(end) / rate, 1.0, 0.25) << "seed " << seed;
  }
}

TEST(RateEstimatorTest, EstimateDecaysThroughSilence) {
  Rng rng(11);
  RateEstimator estimator(1.0, 0.0);
  const double end = FeedPoisson(&estimator, 1.0, 2000.0, &rng);
  const double busy = estimator.RateAt(end);
  EXPECT_GT(busy, 0.5);
  // One tau of silence decays the estimate by e^-1; ten taus kill it.
  EXPECT_NEAR(estimator.RateAt(end + 120.0), busy * std::exp(-1.0), 1e-12);
  EXPECT_LT(estimator.RateAt(end + 1200.0), 0.001);
}

TEST(RateEstimatorTest, NoAlarmUnderStationaryTraffic) {
  for (uint64_t seed : {42u, 7u, 123u, 999u}) {
    Rng rng(seed);
    RateEstimator estimator(0.5, 0.0);
    FeedPoisson(&estimator, 0.5, 30000.0, &rng);
    EXPECT_FALSE(estimator.DriftAlarm()) << "seed " << seed;
  }
}

TEST(RateEstimatorTest, AlarmsOnUpwardRateStep) {
  Rng rng(5);
  RateEstimator estimator(0.5, 0.0);
  FeedPoisson(&estimator, 0.5, 3000.0, &rng);
  ASSERT_FALSE(estimator.DriftAlarm());
  // 4x flash crowd: residual ~3 sigma-units per tau-spaced sample, so the
  // 20-sigma threshold falls within a few taus.
  FeedPoisson(&estimator, 2.0, 1500.0, &rng, 3000.0);
  EXPECT_TRUE(estimator.DriftAlarm());
}

TEST(RateEstimatorTest, AlarmsOnPopularityCollapse) {
  Rng rng(6);
  RateEstimator estimator(2.0, 0.0);
  FeedPoisson(&estimator, 2.0, 3000.0, &rng);
  ASSERT_FALSE(estimator.DriftAlarm());
  FeedPoisson(&estimator, 0.1, 6000.0, &rng, 3000.0);
  EXPECT_TRUE(estimator.DriftAlarm());
}

TEST(RateEstimatorTest, RebaseClearsAlarmAndKeepsTracking) {
  Rng rng(8);
  RateEstimator estimator(0.5, 0.0);
  FeedPoisson(&estimator, 0.5, 3000.0, &rng);
  FeedPoisson(&estimator, 2.0, 2000.0, &rng, 3000.0);
  ASSERT_TRUE(estimator.DriftAlarm());
  estimator.Rebase(2.0);
  EXPECT_FALSE(estimator.DriftAlarm());
  EXPECT_DOUBLE_EQ(estimator.baseline(), 2.0);
  // At the new baseline the same traffic is no longer drift.
  FeedPoisson(&estimator, 2.0, 10000.0, &rng, 5000.0);
  EXPECT_FALSE(estimator.DriftAlarm());
}

// The noise floor shrinks with lambda*tau: a hotter movie gets a tighter
// detector, a colder one a looser one — this scaling is what makes one
// sigma-denominated threshold work across the whole catalog.
TEST(RateEstimatorTest, NoiseFloorScalesWithRate) {
  RateEstimator hot(2.0, 0.0);
  RateEstimator cold(0.02, 0.0);
  EXPECT_LT(hot.sigma(), cold.sigma());
  EXPECT_NEAR(hot.sigma(), 1.0 / std::sqrt(2.0 * 2.0 * 120.0), 1e-12);
}

TEST(RateEstimatorTest, CountsObservations) {
  RateEstimator estimator(1.0, 0.0);
  estimator.Observe(1.0);
  estimator.Observe(2.0);
  estimator.Observe(2.0);  // simultaneous arrivals are legal
  EXPECT_EQ(estimator.observations(), 3);
}

}  // namespace
}  // namespace vod
