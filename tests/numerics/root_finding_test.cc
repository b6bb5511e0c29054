#include "numerics/root_finding.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace vod {
namespace {

TEST(BrentRootTest, FindsPolynomialRoot) {
  const auto f = [](double x) { return x * x * x - 2.0; };
  const Result<double> root = BrentRoot(f, 0.0, 2.0);
  ASSERT_TRUE(root.ok());
  EXPECT_NEAR(root.value(), std::cbrt(2.0), 1e-9);
}

TEST(BrentRootTest, FindsTranscendentalRoot) {
  const auto f = [](double x) { return std::cos(x) - x; };
  const Result<double> root = BrentRoot(f, 0.0, 1.0);
  ASSERT_TRUE(root.ok());
  EXPECT_NEAR(root.value(), 0.7390851332151607, 1e-9);
}

TEST(BrentRootTest, ExactEndpointRoots) {
  const auto f = [](double x) { return x - 1.0; };
  EXPECT_DOUBLE_EQ(BrentRoot(f, 1.0, 3.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(BrentRoot(f, -1.0, 1.0).value(), 1.0);
}

TEST(BrentRootTest, RejectsNonBracketingInterval) {
  const auto f = [](double x) { return x * x + 1.0; };
  EXPECT_TRUE(BrentRoot(f, -1.0, 1.0).status().IsInvalidArgument());
}

TEST(BrentRootTest, SteepFunction) {
  const auto f = [](double x) { return std::exp(30.0 * x) - 1.0; };
  const Result<double> root = BrentRoot(f, -2.0, 1.0);
  ASSERT_TRUE(root.ok());
  EXPECT_NEAR(root.value(), 0.0, 1e-8);
}

TEST(BisectRootTest, FindsRoot) {
  const auto f = [](double x) { return x * x - 9.0; };
  const Result<double> root = BisectRoot(f, 0.0, 10.0);
  ASSERT_TRUE(root.ok());
  EXPECT_NEAR(root.value(), 3.0, 1e-8);
}

TEST(BisectRootTest, RejectsNonBracketingInterval) {
  const auto f = [](double) { return 1.0; };
  EXPECT_TRUE(BisectRoot(f, 0.0, 1.0).status().IsInvalidArgument());
}

TEST(BisectRootTest, DiscontinuousSignChange) {
  // Step function: no exact root, bisection converges to the jump.
  const auto f = [](double x) { return x < 0.7 ? -1.0 : 1.0; };
  const Result<double> root = BisectRoot(f, 0.0, 1.0);
  ASSERT_TRUE(root.ok());
  EXPECT_NEAR(root.value(), 0.7, 1e-8);
}

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

TEST(RootFindingOptionsTest, FToleranceTerminatesEarly) {
  RootFindingOptions options;
  options.f_tolerance = 0.5;
  options.x_tolerance = 0.0;
  const auto f = [](double x) { return x; };
  const Result<double> root = BrentRoot(f, -1.0, 2.0, options);
  ASSERT_TRUE(root.ok());
  EXPECT_LE(std::fabs(root.value()), 0.5);
}

}  // namespace
}  // namespace vod
