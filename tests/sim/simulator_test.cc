#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dist/deterministic.h"
#include "dist/exponential.h"
#include "dist/gamma.h"
#include "obs/metrics_registry.h"
#include "workload/paper_presets.h"

namespace vod {
namespace {

PartitionLayout MakeLayout(double l, int n, double b) {
  auto layout = PartitionLayout::FromBuffer(l, n, b);
  EXPECT_TRUE(layout.ok());
  return *layout;
}

SimulationOptions ShortRun(VcrOp op) {
  SimulationOptions options;
  options.behavior = paper::Fig7SingleOpBehavior(op);
  options.warmup_minutes = 500.0;
  options.measurement_minutes = 8000.0;
  options.seed = 11;
  return options;
}

TEST(SimulatorTest, ValidatesOptions) {
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  SimulationOptions bad = ShortRun(VcrOp::kFastForward);
  bad.mean_interarrival_minutes = 0.0;
  EXPECT_TRUE(RunSimulation(layout, paper::Rates(), bad)
                  .status()
                  .IsInvalidArgument());
  bad = ShortRun(VcrOp::kFastForward);
  bad.measurement_minutes = 0.0;
  EXPECT_TRUE(RunSimulation(layout, paper::Rates(), bad)
                  .status()
                  .IsInvalidArgument());
  PlaybackRates bad_rates = paper::Rates();
  bad_rates.fast_forward = 0.5;
  EXPECT_TRUE(RunSimulation(layout, bad_rates, ShortRun(VcrOp::kFastForward))
                  .status()
                  .IsInvalidArgument());
  // A duration that can be negative is refused before any event is
  // scheduled: a negative draw would schedule an event in the past.
  bad = ShortRun(VcrOp::kPause);
  bad.behavior.durations.pause =
      std::make_shared<DeterministicDistribution>(-3.0);
  const Status negative = RunSimulation(layout, paper::Rates(), bad).status();
  EXPECT_TRUE(negative.IsInvalidArgument());
  EXPECT_NE(negative.message().find("non-negative"), std::string::npos)
      << negative;
  // A metric cadence that asks for more than kMaxMetricSamples samples is
  // refused before anything is built: at 1e-300 minutes the sampling clock
  // would never advance.
  MetricsRegistry registry;
  bad = ShortRun(VcrOp::kFastForward);
  bad.obs.metrics = &registry;
  bad.obs.metrics_sample_minutes = 1e-300;
  const Status cadence = RunSimulation(layout, paper::Rates(), bad).status();
  EXPECT_TRUE(cadence.IsInvalidArgument());
  EXPECT_NE(cadence.message().find("metrics_sample_minutes"),
            std::string::npos)
      << cadence;
  EXPECT_EQ(registry.num_metrics(), 0u);
}

TEST(SimulatorTest, DeterministicForSameSeed) {
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  const auto a =
      RunSimulation(layout, paper::Rates(), ShortRun(VcrOp::kFastForward));
  const auto b =
      RunSimulation(layout, paper::Rates(), ShortRun(VcrOp::kFastForward));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->total_resumes, b->total_resumes);
  EXPECT_DOUBLE_EQ(a->hit_probability, b->hit_probability);
  EXPECT_EQ(a->admissions, b->admissions);
}

TEST(SimulatorTest, DifferentSeedsDiffer) {
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  SimulationOptions other = ShortRun(VcrOp::kFastForward);
  other.seed = 12;
  const auto a =
      RunSimulation(layout, paper::Rates(), ShortRun(VcrOp::kFastForward));
  const auto b = RunSimulation(layout, paper::Rates(), other);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->total_resumes, b->total_resumes);
}

TEST(SimulatorTest, MaxWaitNeverExceedsEquationTwo) {
  // The defining property of static partitioning: no viewer waits more than
  // w = (l − B)/n.
  for (int n : {20, 40}) {
    for (double b : {40.0, 80.0}) {
      const PartitionLayout layout = MakeLayout(120.0, n, b);
      const auto report = RunSimulation(layout, paper::Rates(),
                                        ShortRun(VcrOp::kFastForward));
      ASSERT_TRUE(report.ok());
      EXPECT_LE(report->max_wait_minutes, layout.max_wait() + 1e-9)
          << layout.ToString();
      // With Poisson arrivals the bound is essentially attained.
      EXPECT_GT(report->max_wait_minutes, 0.9 * layout.max_wait());
      EXPECT_LE(report->mean_wait_minutes, report->max_wait_minutes);
    }
  }
}

TEST(SimulatorTest, WaitQuantilesMatchTheMixtureShape) {
  // Arrivals land uniformly over the restart period: a fraction B/l waits
  // zero (type 2), the rest uniformly up to w. With B/l = 2/3 the median
  // wait is 0 and the p99 sits near w.
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  const auto report = RunSimulation(layout, paper::Rates(),
                                    ShortRun(VcrOp::kPause));
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->p50_wait_minutes, 0.0, 0.02);
  EXPECT_GT(report->p99_wait_minutes, 0.85 * layout.max_wait());
  EXPECT_LE(report->p99_wait_minutes, layout.max_wait() + 1e-9);
}

TEST(SimulatorTest, Type2FractionMatchesWindowCoverage) {
  // Arrivals are uniform over the restart period; the enrollment window is
  // open for W out of T minutes, so the type-2 fraction ≈ W/T = B/l.
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  const auto report = RunSimulation(layout, paper::Rates(),
                                    ShortRun(VcrOp::kFastForward));
  ASSERT_TRUE(report.ok());
  const double fraction = static_cast<double>(report->type2_admissions) /
                          static_cast<double>(report->admissions);
  EXPECT_NEAR(fraction, layout.coverage(), 0.03);
}

TEST(SimulatorTest, PassiveViewersNeverResume) {
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  SimulationOptions options;
  options.behavior.interactivity = nullptr;  // no VCR ops at all
  options.warmup_minutes = 100.0;
  options.measurement_minutes = 3000.0;
  const auto report = RunSimulation(layout, paper::Rates(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->total_resumes, 0);
  EXPECT_DOUBLE_EQ(report->mean_dedicated_streams, 0.0);
  EXPECT_GT(report->completions, 0);
}

TEST(SimulatorTest, ConservationOfResumeOutcomes) {
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  const auto report = RunSimulation(layout, paper::Rates(),
                                    ShortRun(VcrOp::kFastForward));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->hits_within + report->hits_jump + report->end_releases +
                report->misses,
            report->total_resumes);
  EXPECT_GT(report->total_resumes, 1000);
}

TEST(SimulatorTest, PureBatchingHasOnlyEndReleasesForFF) {
  const PartitionLayout layout = MakeLayout(120.0, 40, 0.0);
  const auto report = RunSimulation(layout, paper::Rates(),
                                    ShortRun(VcrOp::kFastForward));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->hits_within, 0);
  EXPECT_EQ(report->hits_jump, 0);
  EXPECT_GT(report->end_releases, 0);
  EXPECT_GT(report->misses, 0);
}

TEST(SimulatorTest, FullBufferPauseAlwaysHits) {
  const PartitionLayout layout = MakeLayout(120.0, 40, 120.0);
  const auto report =
      RunSimulation(layout, paper::Rates(), ShortRun(VcrOp::kPause));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->misses, 0);
  EXPECT_DOUBLE_EQ(report->hit_probability, 1.0);
}

TEST(SimulatorTest, ThroughputMatchesArrivalRate) {
  // Little's-law style sanity: admissions ≈ measurement_minutes / (1/λ).
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  SimulationOptions options = ShortRun(VcrOp::kPause);
  options.mean_interarrival_minutes = 2.0;
  const auto report = RunSimulation(layout, paper::Rates(), options);
  ASSERT_TRUE(report.ok());
  const double expected = options.measurement_minutes / 2.0;
  EXPECT_NEAR(report->admissions, expected, 0.05 * expected);
}

TEST(SimulatorTest, ConcurrentViewersNearLittlesLaw) {
  // Without VCR (passive), each admitted viewer stays l minutes:
  // E[viewers] = λ · l = 0.5 · 120 = 60.
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  SimulationOptions options;
  options.behavior.interactivity = nullptr;
  options.warmup_minutes = 1000.0;
  options.measurement_minutes = 20000.0;
  const auto report = RunSimulation(layout, paper::Rates(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->mean_concurrent_viewers, 60.0, 3.0);
}

TEST(SimulatorTest, MissesHoldDedicatedStreams) {
  // A small buffer makes misses common; the dedicated-stream average must be
  // visibly positive.
  const PartitionLayout layout = MakeLayout(120.0, 40, 10.0);
  const auto report = RunSimulation(layout, paper::Rates(),
                                    ShortRun(VcrOp::kFastForward));
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->misses, 0);
  EXPECT_GT(report->mean_dedicated_streams, 0.5);
  EXPECT_GE(report->peak_dedicated_streams, report->mean_dedicated_streams);
}

TEST(SimulatorTest, LargerBufferYieldsHigherHitProbability) {
  const auto small = RunSimulation(MakeLayout(120.0, 40, 20.0),
                                   paper::Rates(),
                                   ShortRun(VcrOp::kFastForward));
  const auto large = RunSimulation(MakeLayout(120.0, 40, 100.0),
                                   paper::Rates(),
                                   ShortRun(VcrOp::kFastForward));
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_GT(large->hit_probability, small->hit_probability + 0.2);
}

TEST(SimulatorTest, DeterministicPauseDurationHitsPeriodically) {
  // Pause of exactly one restart period T: the window pattern returns to the
  // same place, so the outcome equals "was I in a window when I paused" —
  // hit probability ≈ W/T for in-partition viewers... but every in-partition
  // viewer is in a window by definition, so all their pauses hit.
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);  // T = 3
  SimulationOptions options;
  options.behavior.mix = VcrMix::Only(VcrOp::kPause);
  options.behavior.durations =
      VcrDurations::AllSame(std::make_shared<DeterministicDistribution>(3.0));
  options.behavior.interactivity =
      std::make_shared<ExponentialDistribution>(30.0);
  options.warmup_minutes = 300.0;
  options.measurement_minutes = 6000.0;
  const auto report = RunSimulation(layout, paper::Rates(), options);
  ASSERT_TRUE(report.ok());
  // In-partition pauses of exactly T always resume inside the next window.
  EXPECT_GT(report->hit_probability_in_partition, 0.999);
}

TEST(SimulatorTest, ReportToStringMentionsKeyFields) {
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  const auto report = RunSimulation(layout, paper::Rates(),
                                    ShortRun(VcrOp::kFastForward));
  ASSERT_TRUE(report.ok());
  const std::string s = report->ToString();
  EXPECT_NE(s.find("P(hit)"), std::string::npos);
  EXPECT_NE(s.find("resumes"), std::string::npos);
}

TEST(SimulatorTest, BatchMeansHalfWidthIsReportedAndSane) {
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  const auto report = RunSimulation(layout, paper::Rates(),
                                    ShortRun(VcrOp::kFastForward));
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report->in_partition_resumes, 2000);  // enough for >= 2 batches
  EXPECT_GT(report->hit_probability_in_partition_bm_halfwidth, 0.0);
  EXPECT_LT(report->hit_probability_in_partition_bm_halfwidth, 0.1);
  // Autocorrelation can only widen the interval relative to Wilson.
  const double wilson_half = 0.5 * (report->hit_probability_in_partition_high -
                                    report->hit_probability_in_partition_low);
  EXPECT_GT(report->hit_probability_in_partition_bm_halfwidth,
            0.5 * wilson_half);
}

/// FNV-1a over the printed report plus the fields ToString leaves out, each
/// in hex-float form: equal digests mean equal bytes, to the last bit.
uint64_t ReportDigest(const SimulationReport& r) {
  char extra[512];
  std::snprintf(
      extra, sizeof(extra), "|%a|%a|%a|%a|%a|%a|%a|%lld|%lld|%lld|%llu",
      r.hit_probability_in_partition,
      r.hit_probability_in_partition_bm_halfwidth, r.p50_wait_minutes, r.p99_wait_minutes, r.mean_dedicated_streams,
      r.peak_dedicated_streams, r.mean_concurrent_viewers,
      static_cast<long long>(r.completions),
      static_cast<long long>(r.abandonments),
      static_cast<long long>(r.in_partition_resumes),
      static_cast<unsigned long long>(r.executed_events));
  const std::string text = r.ToString() + extra;
  uint64_t h = 0xCBF29CE484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

TEST(SimulatorTest, ReportBytesArePinned) {
  // One run per engine feature the single-movie driver passes through.
  // A change to how the run is driven must leave every digest unchanged.
  const PartitionLayout layout = MakeLayout(120.0, 40, 40.0);
  struct Case {
    const char* name;
    SimulationOptions options;
    uint64_t digest;
  };
  std::vector<Case> cases;

  SimulationOptions audited = ShortRun(VcrOp::kFastForward);
  audited.audit.enabled = true;
  audited.audit.every_events = 16;
  cases.push_back({"audit", audited, 0x783ff7421e6ca6ccull});

  SimulationOptions piggyback = ShortRun(VcrOp::kFastForward);
  piggyback.piggyback.enabled = true;
  piggyback.piggyback.speed_delta = 0.05;
  cases.push_back({"piggyback", piggyback, 0xf20bff58e98d23e8ull});

  SimulationOptions patience = ShortRun(VcrOp::kRewind);
  patience.behavior = paper::Fig7MixedBehavior();
  patience.patience = std::make_shared<ExponentialDistribution>(40.0);
  cases.push_back({"patience", patience, 0x771bb6e0c3b3f841ull});

  SimulationOptions flash = ShortRun(VcrOp::kPause);
  const auto crowd = FlashArrivals::Create(0.5, 4.0, 2000.0, 1500.0);
  ASSERT_TRUE(crowd.ok());
  flash.arrivals = std::make_shared<FlashArrivals>(*crowd);
  cases.push_back({"flash", flash, 0x6c1cabfc8dd6e028ull});

  for (const Case& c : cases) {
    const auto report = RunSimulation(layout, paper::Rates(), c.options);
    ASSERT_TRUE(report.ok()) << c.name << ": " << report.status().ToString();
    EXPECT_EQ(ReportDigest(*report), c.digest)
        << c.name << " digest 0x" << std::hex << ReportDigest(*report);
  }
}

TEST(SimulatorTest, WilsonIntervalBracketsEstimate) {
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  const auto report = RunSimulation(layout, paper::Rates(),
                                    ShortRun(VcrOp::kRewind));
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->hit_probability_low, report->hit_probability);
  EXPECT_GE(report->hit_probability_high, report->hit_probability);
  EXPECT_LT(report->hit_probability_high - report->hit_probability_low,
            0.05);
}

}  // namespace
}  // namespace vod
