#include "numerics/root_finding.h"

#include <gtest/gtest.h>

#include <limits>

namespace vod {
namespace {

TEST(MonotoneThresholdTest, FindsBoundary) {
  const auto pred = [](double x) { return x >= 2.5; };
  const Result<double> threshold = MonotoneThreshold(pred, 0.0, 10.0, 1e-9);
  ASSERT_TRUE(threshold.ok());
  EXPECT_NEAR(threshold.value(), 2.5, 1e-8);
  EXPECT_TRUE(pred(threshold.value()));
}

TEST(MonotoneThresholdTest, AlreadyTrueAtLowerBound) {
  const auto pred = [](double) { return true; };
  const Result<double> threshold = MonotoneThreshold(pred, 3.0, 10.0);
  ASSERT_TRUE(threshold.ok());
  EXPECT_DOUBLE_EQ(threshold.value(), 3.0);
}

TEST(MonotoneThresholdTest, InfeasibleWhenNeverTrue) {
  const auto pred = [](double) { return false; };
  EXPECT_TRUE(MonotoneThreshold(pred, 0.0, 1.0).status().IsInfeasible());
}

TEST(MonotoneThresholdTest, StopsAtAdjacentDoublesCoarserThanTolerance) {
  // Doubles near 1e12 are ~1.2e-4 apart, far coarser than the tolerance:
  // bisection must stop once lo and hi are neighbours instead of spinning
  // on a midpoint that rounds onto an endpoint.
  const auto pred = [](double x) { return x >= 1e12; };
  const Result<double> threshold = MonotoneThreshold(pred, 0.0, 4e12, 1e-10);
  ASSERT_TRUE(threshold.ok());
  EXPECT_EQ(threshold.value(), 1e12);
  // lo + hi overflows to infinity, so the first midpoint is not inside.
  const double big = std::numeric_limits<double>::max();
  const Result<double> top =
      MonotoneThreshold([&](double x) { return x >= big; }, big / 2.0, big);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top.value(), big);
}

}  // namespace
}  // namespace vod
