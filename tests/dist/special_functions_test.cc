#include "dist/special_functions.h"

#include <gtest/gtest.h>

#include <cmath>

namespace vod {
namespace {

TEST(LogGammaTest, IntegerFactorials) {
  // Γ(n) = (n-1)!
  EXPECT_NEAR(LogGamma(1.0), 0.0, 1e-13);
  EXPECT_NEAR(LogGamma(2.0), 0.0, 1e-13);
  EXPECT_NEAR(LogGamma(5.0), std::log(24.0), 1e-12);
  EXPECT_NEAR(LogGamma(11.0), std::log(3628800.0), 1e-11);
}

TEST(LogGammaTest, HalfIntegerValues) {
  // Γ(1/2) = √π, Γ(3/2) = √π / 2.
  EXPECT_NEAR(LogGamma(0.5), 0.5 * std::log(M_PI), 1e-12);
  EXPECT_NEAR(LogGamma(1.5), std::log(std::sqrt(M_PI) / 2.0), 1e-12);
}

TEST(LogGammaTest, RecurrenceHolds) {
  // Γ(x+1) = x Γ(x) ⇒ lnΓ(x+1) = ln x + lnΓ(x).
  for (double x : {0.3, 0.9, 1.7, 4.2, 13.5}) {
    EXPECT_NEAR(LogGamma(x + 1.0), std::log(x) + LogGamma(x), 1e-11)
        << "x=" << x;
  }
}

TEST(LogGammaTest, MatchesStdLgamma) {
  for (double x : {0.1, 0.5, 1.0, 2.5, 10.0, 100.0, 1000.0}) {
    EXPECT_NEAR(LogGamma(x), std::lgamma(x), 1e-10 * (1.0 + std::lgamma(x)))
        << "x=" << x;
  }
}

TEST(RegularizedGammaTest, BoundaryValues) {
  EXPECT_DOUBLE_EQ(RegularizedGammaP(2.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedGammaQ(2.0, 0.0), 1.0);
  EXPECT_NEAR(RegularizedGammaP(1.0, 50.0), 1.0, 1e-12);
}

TEST(RegularizedGammaTest, ShapeOneIsExponential) {
  // P(1, x) = 1 - e^{-x}.
  for (double x : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    EXPECT_NEAR(RegularizedGammaP(1.0, x), 1.0 - std::exp(-x), 1e-13)
        << "x=" << x;
  }
}

TEST(RegularizedGammaTest, ShapeTwoClosedForm) {
  // P(2, x) = 1 - (1 + x) e^{-x}.
  for (double x : {0.2, 1.0, 2.0, 4.0, 8.0, 16.0}) {
    EXPECT_NEAR(RegularizedGammaP(2.0, x), 1.0 - (1.0 + x) * std::exp(-x),
                1e-12)
        << "x=" << x;
  }
}

TEST(RegularizedGammaTest, PPlusQIsOne) {
  for (double a : {0.3, 1.0, 2.0, 7.5, 50.0}) {
    for (double x : {0.01, 0.5, 1.0, 5.0, 49.0, 120.0}) {
      EXPECT_NEAR(RegularizedGammaP(a, x) + RegularizedGammaQ(a, x), 1.0,
                  1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(RegularizedGammaTest, SuppliedLogGammaIsBitIdentical) {
  // Both regimes: the series (x < a + 1) and the continued fraction.
  for (double a : {0.3, 1.0, 2.0, 7.5, 50.0}) {
    for (double x : {0.0, 0.01, 0.5, 1.0, 5.0, 49.0, 120.0}) {
      EXPECT_EQ(RegularizedGammaP(a, x, LogGamma(a)),
                RegularizedGammaP(a, x))
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(RegularizedGammaTest, MonotoneInX) {
  double previous = -1.0;
  for (double x = 0.0; x <= 30.0; x += 0.25) {
    const double p = RegularizedGammaP(3.5, x);
    ASSERT_GE(p, previous - 1e-14);
    previous = p;
  }
}

TEST(RegularizedGammaTest, MedianOfShape3) {
  // Median of Gamma(3, 1) ≈ 2.674060... (known reference value).
  const double median = 2.67406031372;
  EXPECT_NEAR(RegularizedGammaP(3.0, median), 0.5, 1e-9);
}

TEST(StandardNormalCdfTest, ReferenceValues) {
  EXPECT_NEAR(StandardNormalCdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(StandardNormalCdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(StandardNormalCdf(-1.959963984540054), 0.025, 1e-12);
  EXPECT_NEAR(StandardNormalCdf(3.0), 0.9986501019683699, 1e-12);
}

TEST(StandardNormalQuantileTest, RoundTripsThroughCdf) {
  for (double p : {0.001, 0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99, 0.999}) {
    EXPECT_NEAR(StandardNormalCdf(StandardNormalQuantile(p)), p, 1e-10)
        << "p=" << p;
  }
}

TEST(StandardNormalQuantileTest, KnownQuantiles) {
  EXPECT_NEAR(StandardNormalQuantile(0.5), 0.0, 1e-10);
  EXPECT_NEAR(StandardNormalQuantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(StandardNormalQuantile(0.95), 1.6448536269514722, 1e-9);
}

}  // namespace
}  // namespace vod
