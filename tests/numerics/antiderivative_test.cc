#include "numerics/antiderivative.h"

#include <gtest/gtest.h>

#include <cmath>

namespace vod {
namespace {

TEST(AntiderivativeTest, LinearFunctionExactAtKnotsAndBetween) {
  TabulatedAntiderivative table([](double x) { return 2.0 * x; }, 0.0, 10.0,
                                100);
  for (double x : {0.0, 0.05, 1.0, 3.33, 7.5, 10.0}) {
    EXPECT_NEAR(table(x), x * x, 1e-9) << "x=" << x;
  }
  EXPECT_NEAR(table.total(), 100.0, 1e-9);
}

TEST(AntiderivativeTest, ExponentialCdfIntegral) {
  // ∫_0^b (1 - e^{-t}) dt = b - 1 + e^{-b}.
  const auto f = [](double t) { return 1.0 - std::exp(-t); };
  TabulatedAntiderivative table(f, 0.0, 20.0, 2048);
  for (double b : {0.1, 0.5, 1.0, 5.0, 12.3, 20.0}) {
    EXPECT_NEAR(table(b), b - 1.0 + std::exp(-b), 1e-7) << "b=" << b;
  }
}

TEST(AntiderivativeTest, ClampsOutsideRange) {
  TabulatedAntiderivative table([](double) { return 1.0; }, 2.0, 4.0, 16);
  EXPECT_DOUBLE_EQ(table(1.0), 0.0);
  EXPECT_DOUBLE_EQ(table(2.0), 0.0);
  EXPECT_NEAR(table(5.0), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(table(5.0), table.total());
}

TEST(AntiderivativeTest, BoundsAccessors) {
  TabulatedAntiderivative table([](double) { return 0.0; }, -1.0, 3.0, 8);
  EXPECT_DOUBLE_EQ(table.lower(), -1.0);
  EXPECT_DOUBLE_EQ(table.upper(), 3.0);
  EXPECT_DOUBLE_EQ(table.total(), 0.0);
}

TEST(AntiderivativeTest, MonotoneForSmoothNonNegativeIntegrand) {
  // The use case is integrated CDFs, which are smooth and non-negative; the
  // interpolant may regress only by its O(h³) cell mismatch there.
  TabulatedAntiderivative table(
      [](double x) { return 0.5 * (1.0 + std::sin(x)); }, 0.0, 10.0, 512);
  double previous = -1.0;
  for (double x = 0.0; x <= 10.0; x += 0.01) {
    const double value = table(x);
    ASSERT_GE(value, previous - 1e-6);
    previous = value;
  }
}

TEST(AntiderivativeTest, SingleCellStillIntegrates) {
  TabulatedAntiderivative table([](double x) { return x; }, 0.0, 2.0, 1);
  EXPECT_NEAR(table.total(), 2.0, 1e-12);
  EXPECT_NEAR(table(1.0), 0.5, 1e-12);  // the quadratic is exact here
}

TEST(AntiderivativeTest, QuadraticIntegrandExactBetweenKnots) {
  // Simpson's quadratic through each cell's samples reproduces a quadratic
  // f, so A is exact everywhere, not only at the knots.
  const auto f = [](double x) { return 3.0 * x * x - 2.0 * x + 1.0; };
  TabulatedAntiderivative table(f, 0.0, 3.0, 3);
  for (double x : {0.1, 0.5, 1.25, 2.0, 2.9}) {
    EXPECT_NEAR(table(x), x * x * x - x * x + x, 1e-12) << "x=" << x;
  }
}

TEST(AntiderivativeTest, SamplesConstructorMatchesFunctionConstructor) {
  const auto f = [](double x) { return std::exp(-x); };
  TabulatedAntiderivative from_function(f, 1.0, 5.0, 64);
  ASSERT_EQ(from_function.samples().size(), 129u);
  EXPECT_DOUBLE_EQ(from_function.SamplePoint(0), 1.0);
  EXPECT_DOUBLE_EQ(from_function.SamplePoint(1), 1.0 + 4.0 / 128.0);
  EXPECT_DOUBLE_EQ(from_function.SamplePoint(128), 5.0);
  EXPECT_EQ(from_function.samples()[7], f(from_function.SamplePoint(7)));
  // A table rebuilt from another's samples is the same table.
  TabulatedAntiderivative from_samples(from_function.samples(), 1.0, 5.0);
  for (double x : {0.5, 1.0, 1.3, 2.71, 4.99, 5.0, 6.0}) {
    EXPECT_EQ(from_function(x), from_samples(x)) << "x=" << x;
  }
}

TEST(AntiderivativeTest, IntegralMatchesDifferenceOfValues) {
  const auto f = [](double t) { return 1.0 - std::exp(-t); };
  TabulatedAntiderivative table(f, 0.0, 20.0, 256);
  // Within one cell, across a knot, and across many cells.
  for (double x : {0.01, 3.0, 7.77}) {
    for (double width : {0.001, 0.1, 5.0}) {
      EXPECT_NEAR(table.Integral(x, width), table(x + width) - table(x),
                  1e-12)
          << "x=" << x << " width=" << width;
    }
  }
  // f counts as 0 outside the range.
  EXPECT_NEAR(table.Integral(-1.0, 1.5), table(0.5), 1e-12);
  EXPECT_NEAR(table.Integral(19.0, 5.0), table.total() - table(19.0),
              1e-12);
  EXPECT_EQ(table.Integral(25.0, 1.0), 0.0);
  EXPECT_EQ(table.Integral(3.0, 0.0), 0.0);
}

TEST(AntiderivativeTest, NarrowIntegralKeepsRelativePrecision) {
  // A(x) ~ 5000 here, so A(x + w) − A(x) would lose every digit of a
  // 1e-12-wide integral; Integral stays cell-local.
  TabulatedAntiderivative table([](double x) { return 1.0 + x; }, 0.0,
                                100.0, 16);
  const double width = 1e-12;
  for (double x : {37.3, 50.0, 99.9}) {
    EXPECT_NEAR(table.Integral(x, width) / width, 1.0 + x, 1e-9)
        << "x=" << x;
  }
}

}  // namespace
}  // namespace vod
