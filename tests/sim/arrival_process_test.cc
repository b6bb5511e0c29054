#include "sim/arrival_process.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "stats/summary.h"
#include "workload/paper_presets.h"

namespace vod {
namespace {

// Counts arrivals of `process` in [0, horizon), bucketed by cycle phase.
std::vector<int> CountByPhase(const ArrivalProcess& process, double horizon,
                              double cycle, int buckets, Rng* rng) {
  std::vector<int> counts(buckets, 0);
  double t = 0.0;
  for (;;) {
    t = process.NextArrivalAfter(t, rng);
    if (t >= horizon) break;
    const double phase = std::fmod(t, cycle);
    counts[static_cast<size_t>(phase / cycle * buckets)]++;
  }
  return counts;
}

TEST(PoissonArrivalsTest, MeanRateRealized) {
  PoissonArrivals process(0.5);
  EXPECT_DOUBLE_EQ(process.MeanRatePerMinute(), 0.5);
  Rng rng(1);
  int count = 0;
  double t = 0.0;
  const double horizon = 100000.0;
  while ((t = process.NextArrivalAfter(t, &rng)) < horizon) ++count;
  EXPECT_NEAR(count / horizon, 0.5, 0.01);
}

TEST(PoissonArrivalsTest, GapsAreExponential) {
  PoissonArrivals process(2.0);
  Rng rng(2);
  RunningStats gaps;
  double t = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double next = process.NextArrivalAfter(t, &rng);
    gaps.Add(next - t);
    t = next;
  }
  EXPECT_NEAR(gaps.mean(), 0.5, 0.01);
  // Exponential: variance = mean².
  EXPECT_NEAR(gaps.variance(), 0.25, 0.01);
}

TEST(SinusoidalArrivalsTest, Validation) {
  EXPECT_TRUE(SinusoidalArrivals::Create(0.0, 0.5, 100.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SinusoidalArrivals::Create(1.0, 1.0, 100.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SinusoidalArrivals::Create(1.0, -0.1, 100.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SinusoidalArrivals::Create(1.0, 0.5, 0.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SinusoidalArrivals::Create(1.0, 0.5, 1440.0).ok());
}

TEST(SinusoidalArrivalsTest, ModulationRealized) {
  const auto process = SinusoidalArrivals::Create(1.0, 0.8, 1000.0);
  ASSERT_TRUE(process.ok());
  Rng rng(3);
  const auto counts = CountByPhase(*process, 400000.0, 1000.0, 4, &rng);
  // Bucket 0 covers the rising sine (mean rate 1 + 0.8·avg(sin) high),
  // bucket 2 the trough. Expected ratio ≈ (1 + 0.51)/(1 − 0.51) ≈ 3.1.
  EXPECT_GT(counts[0], counts[2] * 2);
  EXPECT_GT(counts[1], counts[3] * 2);
  // Total averages to the mean rate.
  const double total = counts[0] + counts[1] + counts[2] + counts[3];
  EXPECT_NEAR(total / 400000.0, 1.0, 0.02);
}

TEST(PiecewiseArrivalsTest, Validation) {
  EXPECT_TRUE(
      PiecewiseArrivals::Create({}, 100.0).status().IsInvalidArgument());
  EXPECT_TRUE(PiecewiseArrivals::Create({1.0, -0.5}, 100.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(PiecewiseArrivals::Create({0.0, 0.0}, 100.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(PiecewiseArrivals::Create({1.0}, 0.0)
                  .status()
                  .IsInvalidArgument());
}

TEST(FlashArrivalsTest, ValidationRefusesNonFiniteInputs) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(FlashArrivals::Create(0.5, 4.0, 0.0, 10.0).ok());
  // An endless flash is a permanent popularity step.
  EXPECT_TRUE(FlashArrivals::Create(0.5, 4.0, 0.0, kInf).ok());
  // Each refusal names its field. Only Create is exercised: a process with
  // an infinite base rate would return the same arrival instant forever.
  const struct {
    double rate, start;
    const char* field;
  } cases[] = {{kInf, 0.0, "base rate"},
               {kNan, 0.0, "base rate"},
               {0.5, kNan, "flash start"},
               {0.5, kInf, "flash start"}};
  for (const auto& c : cases) {
    const Status status = FlashArrivals::Create(c.rate, 4.0, c.start, 10.0)
                              .status();
    EXPECT_TRUE(status.IsInvalidArgument()) << c.rate << " " << c.start;
    EXPECT_NE(status.message().find(c.field), std::string::npos) << status;
  }
}

TEST(PiecewiseArrivalsTest, BucketRatesRealized) {
  // Quiet night, busy evening.
  const auto process =
      PiecewiseArrivals::Create({0.1, 0.5, 2.0, 0.4}, 1000.0);
  ASSERT_TRUE(process.ok());
  EXPECT_DOUBLE_EQ(process->MeanRatePerMinute(), 0.75);
  EXPECT_DOUBLE_EQ(process->RateAt(100.0), 0.1);
  EXPECT_DOUBLE_EQ(process->RateAt(600.0), 2.0);
  EXPECT_DOUBLE_EQ(process->RateAt(1100.0), 0.1);  // wraps into bucket 0

  Rng rng(4);
  const auto counts = CountByPhase(*process, 200000.0, 1000.0, 4, &rng);
  const double per_bucket_minutes = 200000.0 / 4.0;
  EXPECT_NEAR(counts[0] / per_bucket_minutes, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / per_bucket_minutes, 0.5, 0.03);
  EXPECT_NEAR(counts[2] / per_bucket_minutes, 2.0, 0.06);
  EXPECT_NEAR(counts[3] / per_bucket_minutes, 0.4, 0.03);
}

TEST(ArrivalProcessSimTest, MaxWaitGuaranteeHoldsUnderDiurnalLoad) {
  // The paper's structural property: w = (l − B)/n is a *schedule*
  // guarantee — bursty arrivals cannot break it.
  const auto layout = PartitionLayout::FromBuffer(120.0, 40, 80.0);
  ASSERT_TRUE(layout.ok());
  const auto arrivals = SinusoidalArrivals::Create(0.5, 0.9, 1440.0);
  ASSERT_TRUE(arrivals.ok());

  SimulationOptions options;
  options.arrivals = std::make_shared<SinusoidalArrivals>(*arrivals);
  options.behavior = paper::Fig7MixedBehavior();
  options.warmup_minutes = 1000.0;
  options.measurement_minutes = 20000.0;
  const auto report = RunSimulation(*layout, paper::Rates(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->max_wait_minutes, layout->max_wait() + 1e-9);
  EXPECT_GT(report->max_wait_minutes, 0.9 * layout->max_wait());
  // The hit probability is also load-independent (geometry only).
  EXPECT_NEAR(report->hit_probability_in_partition, 0.6584, 0.03);
}

TEST(ArrivalProcessSimTest, ConcurrentViewersTrackTheMeanRate) {
  const auto layout = PartitionLayout::FromBuffer(120.0, 40, 80.0);
  ASSERT_TRUE(layout.ok());
  SimulationOptions options;
  options.arrivals = std::make_shared<PoissonArrivals>(0.25);
  options.behavior.interactivity = nullptr;  // passive: Little's law exact
  options.warmup_minutes = 1000.0;
  options.measurement_minutes = 20000.0;
  const auto report = RunSimulation(*layout, paper::Rates(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->mean_concurrent_viewers, 0.25 * 120.0, 2.0);
}

}  // namespace
}  // namespace vod
