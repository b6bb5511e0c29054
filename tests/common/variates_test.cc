// Sampler-level half of the stream-equivalence contract (DESIGN §15.8): the
// exponential and integer-shape gamma draws every simulation leans on,
// tested at N = 10^7 against their exact CDFs and against the reference
// samplers below.
//
// sampler_ks_test.cc runs 20 000 draws a cell, which cannot see a sampler
// that is wrong on a sliver of its support. Here each check has the power
// to: a binned chi-square over 2 000 equiprobable bins (5 000 draws a bin),
// mean and variance to 4 sigma, and the tail mass. Seeds are fixed, so the
// suite is deterministic; each chi-square is held at p > 1e-6.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "stats/summary.h"

namespace vod {
namespace {

constexpr int64_t kDraws = 10'000'000;
constexpr int kBins = 2000;
constexpr double kMinP = 1e-6;

// The reference samplers: the inverse-CDF exponential and Marsaglia–Tsang
// over the polar normal, as Rng drew them before the ziggurat.
double ReferenceExponential(Rng* rng) {
  return -std::log(1.0 - rng->Uniform01());
}

double ReferenceGamma(Rng* rng, double shape) {
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = rng->Normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = 1.0 - rng->Uniform01();
    if (u < 1.0 - 0.0331 * (x * x) * (x * x)) return d * v;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

// Erlang(k, 1) CDF: 1 - e^{-x} sum_{j<k} x^j / j!.
double ErlangCdf(int k, double x) {
  double term = 1.0;
  double sum = 1.0;
  for (int j = 1; j < k; ++j) {
    term *= x / j;
    sum += term;
  }
  return k == 1 ? -std::expm1(-x) : 1.0 - std::exp(-x) * sum;
}

// Upper tail of chi-square with df degrees of freedom (Wilson–Hilferty;
// accurate far into the tail at df ~ 2 000).
double ChiSquareUpperTail(double chi2, int df) {
  const double s = 2.0 / (9.0 * df);
  const double z = (std::cbrt(chi2 / df) - (1.0 - s)) / std::sqrt(s);
  return 0.5 * std::erfc(z / std::sqrt(2.0));
}

// kDraws draws of one sampler, binned by the Erlang(k) CDF.
struct Binned {
  std::vector<int64_t> counts = std::vector<int64_t>(kBins, 0);
  RunningStats stats;
  int64_t above = 0;  // draws above `tail`
  RunningStats excess;  // x - tail over those draws
};

template <typename Draw>
Binned Collect(int k, double tail, Draw draw) {
  Binned b;
  for (int64_t i = 0; i < kDraws; ++i) {
    const double x = draw();
    const int bin = std::min(kBins - 1,
                             static_cast<int>(ErlangCdf(k, x) * kBins));
    ++b.counts[bin];
    b.stats.Add(x);
    if (x > tail) {
      ++b.above;
      b.excess.Add(x - tail);
    }
  }
  return b;
}

// Goodness of fit against the equiprobable bins.
double FitP(const Binned& b) {
  const double expected = static_cast<double>(kDraws) / kBins;
  double chi2 = 0.0;
  for (int64_t c : b.counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  return ChiSquareUpperTail(chi2, kBins - 1);
}

// Two-sample homogeneity of two equal-size binnings.
double SameP(const Binned& a, const Binned& b) {
  double chi2 = 0.0;
  int df = -1;
  for (int i = 0; i < kBins; ++i) {
    const double n = static_cast<double>(a.counts[i] + b.counts[i]);
    if (n == 0) continue;
    const double d = static_cast<double>(a.counts[i] - b.counts[i]);
    chi2 += d * d / n;
    ++df;
  }
  return ChiSquareUpperTail(chi2, df);
}

// Mean k and variance k of Erlang(k, 1), each to 4 sigma; the variance of
// the sample variance is (mu_4 - k^2) / N with mu_4 = 3k(k + 2).
void ExpectErlangMoments(int k, const Binned& b) {
  const double n = static_cast<double>(kDraws);
  EXPECT_NEAR(b.stats.mean(), k, 4.0 * std::sqrt(k / n)) << "k=" << k;
  EXPECT_NEAR(b.stats.variance(), k, 4.0 * std::sqrt((2.0 * k * k + 6.0 * k) /
                                                     n))
      << "k=" << k;
}

// P(X > tail) to 4 sigma of its binomial count.
void ExpectTailMass(int k, double tail, const Binned& b) {
  const double p = 1.0 - ErlangCdf(k, tail);
  const double n = static_cast<double>(kDraws);
  EXPECT_NEAR(static_cast<double>(b.above), n * p,
              4.0 * std::sqrt(n * p * (1.0 - p)))
      << "k=" << k << " P(X > " << tail << ")";
}

// Beyond r, where the ziggurat's base strip hands over to its tail, the
// exponential's excess over r is Exp(1) again.
constexpr double kZigguratR = rng_internal::kExpZigR;

// The literal tables against the recurrence that defines them, redone in
// double here: the abscissae, the closure at 0 (the tables carry an exact
// 0 where the recurrence ends at -8.6e-14, since r and v are rounded), the
// ordinates, and every layer's area v.
TEST(VariatesTest, ZigguratTablesFollowTheirRecurrence) {
  using rng_internal::kExpZigF;
  using rng_internal::kExpZigR;
  using rng_internal::kExpZigV;
  using rng_internal::kExpZigX;
  EXPECT_EQ(kExpZigX[1], kExpZigR);
  EXPECT_NEAR(kExpZigX[0], kExpZigV / std::exp(-kExpZigR), 1e-13);
  double x = kExpZigR;
  for (int i = 1; i < 256; ++i) {
    x = -std::log(kExpZigV / x + std::exp(-x));
    EXPECT_NEAR(x, kExpZigX[i + 1], 1e-12 * kExpZigX[i + 1] + 1e-13)
        << "layer " << i + 1;
  }
  EXPECT_NEAR(x, 0.0, 1e-12) << "the recurrence does not close";
  EXPECT_EQ(kExpZigX[256], 0.0);
  EXPECT_EQ(kExpZigF[256], 1.0);
  for (int i = 0; i < 256; ++i) {
    EXPECT_NEAR(kExpZigF[i], std::exp(-kExpZigX[i]), 1e-15) << "layer " << i;
    EXPECT_GT(kExpZigX[i], kExpZigX[i + 1]) << "layer " << i;
  }
  // The base strip (its rectangle plus the tail), then layers 1..255.
  EXPECT_NEAR(kExpZigX[0] * kExpZigF[1], kExpZigV, 1e-15);
  for (int i = 1; i < 256; ++i) {
    EXPECT_NEAR(kExpZigX[i] * (kExpZigF[i + 1] - kExpZigF[i]), kExpZigV,
                1e-13)
        << "layer " << i;
  }
}

TEST(VariatesTest, ExponentialMatchesItsCdfAtTenMillionDraws) {
  Rng rng(20261020);
  const Binned b =
      Collect(1, kZigguratR, [&] { return rng.Exponential(1.0); });
  EXPECT_GT(FitP(b), kMinP);
  ExpectErlangMoments(1, b);
  ExpectTailMass(1, kZigguratR, b);
  EXPECT_NEAR(b.excess.mean(), 1.0, 4.0 / std::sqrt(b.excess.count()));
  EXPECT_GE(b.stats.min(), 0.0);
}

TEST(VariatesTest, ExponentialMatchesTheInverseCdfSampler) {
  Rng rng(20261021);
  Rng reference(20261022);
  const Binned a =
      Collect(1, kZigguratR, [&] { return rng.Exponential(1.0); });
  const Binned b = Collect(1, kZigguratR,
                           [&] { return ReferenceExponential(&reference); });
  EXPECT_GT(SameP(a, b), kMinP);
}

class ErlangTest : public ::testing::TestWithParam<int> {};

// Gamma(k, 4) / 4 is Erlang(k, 1): the division by a power of two is exact.
TEST_P(ErlangTest, MatchesItsCdfAtTenMillionDraws) {
  const int k = GetParam();
  Rng rng(20261100 + k);
  const Binned b = Collect(k, 3.0 * k, [&] { return rng.Gamma(k, 4.0) / 4.0; });
  EXPECT_GT(FitP(b), kMinP) << "k=" << k;
  ExpectErlangMoments(k, b);
  ExpectTailMass(k, 3.0 * k, b);
}

TEST_P(ErlangTest, MatchesMarsagliaTsang) {
  const int k = GetParam();
  Rng rng(20261200 + k);
  Rng reference(20261300 + k);
  const Binned a = Collect(k, 3.0 * k, [&] { return rng.Gamma(k, 4.0) / 4.0; });
  const Binned b =
      Collect(k, 3.0 * k, [&] { return ReferenceGamma(&reference, k); });
  EXPECT_GT(SameP(a, b), kMinP) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Shapes, ErlangTest, ::testing::Values(1, 2, 3, 9, 10),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "k" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace vod
