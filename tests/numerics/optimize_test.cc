#include "numerics/optimize.h"

#include <gtest/gtest.h>

#include <cmath>

namespace vod {
namespace {

TEST(GridMinimizeTest, FindsGlobalMinimumOfMultimodal) {
  // Two wells; the deeper one is at x ≈ 4.71 (3π/2 of sin).
  const auto f = [](double x) { return std::sin(x) + 0.01 * x; };
  const Minimum m = GridMinimize(f, 0.0, 7.0, 2001);
  EXPECT_NEAR(m.x, 3.0 * M_PI / 2.0, 0.05);
}

TEST(GridMinimizeTest, IncludesEndpoints) {
  const auto f = [](double x) { return -x; };
  const Minimum m = GridMinimize(f, 0.0, 5.0, 11);
  EXPECT_DOUBLE_EQ(m.x, 5.0);
  EXPECT_DOUBLE_EQ(m.value, -5.0);
}

}  // namespace
}  // namespace vod
