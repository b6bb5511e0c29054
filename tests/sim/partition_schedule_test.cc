#include "sim/partition_schedule.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "common/rng.h"

namespace vod {
namespace {

PartitionLayout MakeLayout(double l, int n, double b) {
  auto layout = PartitionLayout::FromBuffer(l, n, b);
  EXPECT_TRUE(layout.ok());
  return *layout;
}

// Oracle: scan a wide stream-index range and apply the coverage definition
// directly.
std::optional<int64_t> BruteForceCovering(const PartitionLayout& layout,
                                          double t, double p) {
  if (p < 0.0 || p > layout.movie_length() || layout.window() <= 0.0) {
    return std::nullopt;
  }
  const double period = layout.restart_period();
  std::optional<int64_t> best;
  for (int64_t k = -500; k <= 500; ++k) {
    const double lead = t - k * period;
    const double buffered_lo = std::max(0.0, lead - layout.window());
    const double buffered_hi = std::min(lead, layout.movie_length());
    if (lead <= 0.0) continue;
    if (p >= buffered_lo && p <= buffered_hi) {
      if (!best.has_value() || k > *best) best = k;  // youngest
    }
  }
  return best;
}

TEST(PartitionScheduleTest, NextRestartOnGrid) {
  PartitionSchedule schedule(MakeLayout(120.0, 40, 80.0));  // T = 3
  EXPECT_DOUBLE_EQ(schedule.NextRestart(0.0), 0.0);
  EXPECT_DOUBLE_EQ(schedule.NextRestart(0.1), 3.0);
  EXPECT_DOUBLE_EQ(schedule.NextRestart(2.999), 3.0);
  EXPECT_DOUBLE_EQ(schedule.NextRestart(3.0), 3.0);
  EXPECT_DOUBLE_EQ(schedule.NextRestart(100.5), 102.0);
}

TEST(PartitionScheduleTest, StreamLeadIsElapsedTime) {
  PartitionSchedule schedule(MakeLayout(120.0, 40, 80.0));
  EXPECT_DOUBLE_EQ(schedule.StreamLead(0, 7.5), 7.5);
  EXPECT_DOUBLE_EQ(schedule.StreamLead(2, 7.5), 1.5);
  EXPECT_DOUBLE_EQ(schedule.StreamLead(-1, 7.5), 10.5);
}

TEST(PartitionScheduleTest, CoveringStreamBasicGeometry) {
  // T = 3, W = 2. At t = 100 (a restart boundary + 1 period...), position
  // p is covered iff some lead ∈ [p, p + 2].
  PartitionSchedule schedule(MakeLayout(120.0, 40, 80.0));
  const double t = 100.0;
  // p = 99.5: leads are 100 - 3k; k=1 gives lead 97 < 99.5; k=0 gives 100
  // ∈ [99.5, 101.5] -> covered by stream 0.
  const auto hit = schedule.FindCoveringStream(t, 99.5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 0);
  // p = 97.5: lead must be in [97.5, 99.5]; leads near: 100 (k=0), 97 (k=1):
  // neither -> gap.
  EXPECT_FALSE(schedule.FindCoveringStream(t, 97.5).has_value());
}

TEST(PartitionScheduleTest, PositionOutsideMovieNeverCovered) {
  PartitionSchedule schedule(MakeLayout(120.0, 40, 80.0));
  EXPECT_FALSE(schedule.FindCoveringStream(50.0, -0.5).has_value());
  EXPECT_FALSE(schedule.FindCoveringStream(50.0, 121.0).has_value());
}

TEST(PartitionScheduleTest, PureBatchingNeverCovers) {
  PartitionSchedule schedule(MakeLayout(120.0, 40, 0.0));
  for (double p : {0.0, 10.0, 60.0}) {
    EXPECT_FALSE(schedule.FindCoveringStream(33.3, p).has_value());
  }
  EXPECT_FALSE(schedule.EnrollmentOpen(33.3));
}

TEST(PartitionScheduleTest, FullBufferAlwaysCovers) {
  PartitionSchedule schedule(MakeLayout(120.0, 40, 120.0));
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const double t = rng.Uniform(0.0, 500.0);
    const double p = rng.Uniform(0.0, 120.0);
    EXPECT_TRUE(schedule.FindCoveringStream(t, p).has_value())
        << "t=" << t << " p=" << p;
  }
}

TEST(PartitionScheduleTest, EnrollmentOpenFractionIsWindowOverPeriod) {
  // Position 0 is covered exactly while the newest stream's lead <= W:
  // a fraction W/T of the time.
  PartitionSchedule schedule(MakeLayout(120.0, 40, 80.0));  // W/T = 2/3
  int open = 0;
  const int samples = 30000;
  Rng rng(5);
  for (int i = 0; i < samples; ++i) {
    if (schedule.EnrollmentOpen(rng.Uniform(0.0, 3000.0))) ++open;
  }
  EXPECT_NEAR(static_cast<double>(open) / samples, 2.0 / 3.0, 0.01);
}

TEST(PartitionScheduleTest, MatchesBruteForceOracle) {
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  PartitionSchedule schedule(layout);
  Rng rng(6);
  for (int i = 0; i < 3000; ++i) {
    const double t = rng.Uniform(0.0, 400.0);
    const double p = rng.Uniform(-5.0, 125.0);
    const auto expected = BruteForceCovering(layout, t, p);
    const auto got = schedule.FindCoveringStream(t, p);
    ASSERT_EQ(got.has_value(), expected.has_value())
        << "t=" << t << " p=" << p;
    if (expected.has_value()) {
      ASSERT_EQ(*got, *expected) << "t=" << t << " p=" << p;
    }
  }
}

TEST(PartitionScheduleTest, ActiveStreamsCountIsAboutN) {
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  PartitionSchedule schedule(layout);
  // Streams hold buffers for l + W minutes, spaced T apart:
  // (l + W)/T = 122/3 ≈ 40.7 -> 40 or 41 active.
  for (double t : {10.0, 55.5, 100.0, 333.3}) {
    const auto active = schedule.ActiveStreams(t);
    EXPECT_GE(active.size(), 40u) << "t=" << t;
    EXPECT_LE(active.size(), 41u) << "t=" << t;
    // Oldest first.
    for (size_t i = 1; i < active.size(); ++i) {
      EXPECT_LT(active[i - 1], active[i]);
    }
  }
}

TEST(PartitionScheduleTest, CoveringStreamLeadBracketsPosition) {
  const PartitionLayout layout = MakeLayout(90.0, 30, 45.0);
  PartitionSchedule schedule(layout);
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const double t = rng.Uniform(0.0, 300.0);
    const double p = rng.Uniform(0.0, 90.0);
    const auto k = schedule.FindCoveringStream(t, p);
    if (!k.has_value()) continue;
    const double lead = schedule.StreamLead(*k, t);
    EXPECT_GE(lead, p - 1e-9);
    EXPECT_LE(lead, p + layout.window() + 1e-9);
  }
}

}  // namespace
}  // namespace vod
