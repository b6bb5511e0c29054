#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dist/deterministic.h"
#include "dist/distribution.h"
#include "dist/empirical.h"
#include "dist/exponential.h"
#include "dist/gamma.h"
#include "dist/lognormal.h"
#include "dist/mixture.h"
#include "dist/pareto.h"
#include "dist/uniform.h"
#include "dist/weibull.h"
#include "numerics/quadrature.h"
#include "stats/ks_test.h"

namespace vod {
namespace {

struct DistCase {
  std::string label;
  DistributionPtr dist;
  bool continuous = true;  // false for point masses (no density / KS test)
  // Heavy-tailed (infinite higher moments): numeric-integral and
  // sample-moment checks are unreliable; closed forms are covered by the
  // distribution's dedicated tests.
  bool heavy_tailed = false;
};

std::vector<DistCase> AllCases() {
  std::vector<DistCase> cases;
  cases.push_back({"exp(5)", std::make_shared<ExponentialDistribution>(5.0)});
  cases.push_back({"exp(0.25)",
                   std::make_shared<ExponentialDistribution>(0.25)});
  cases.push_back({"gamma(2,4)",
                   std::make_shared<GammaDistribution>(2.0, 4.0)});
  cases.push_back({"gamma(0.5,1)",
                   std::make_shared<GammaDistribution>(0.5, 1.0)});
  cases.push_back({"gamma(9,0.5)",
                   std::make_shared<GammaDistribution>(9.0, 0.5)});
  cases.push_back({"uniform(2,7)",
                   std::make_shared<UniformDistribution>(2.0, 7.0)});
  cases.push_back({"weibull(1.5,3)",
                   std::make_shared<WeibullDistribution>(1.5, 3.0)});
  cases.push_back({"weibull(0.8,2)",
                   std::make_shared<WeibullDistribution>(0.8, 2.0)});
  cases.push_back({"lognormal(0,0.5)",
                   std::make_shared<LognormalDistribution>(0.0, 0.5)});
  cases.push_back({"lognormal(1,1)",
                   std::make_shared<LognormalDistribution>(1.0, 1.0)});
  cases.push_back({"lomax(2.5,6)",
                   std::make_shared<LomaxDistribution>(2.5, 6.0),
                   /*continuous=*/true, /*heavy_tailed=*/true});
  cases.push_back({"det(3)",
                   std::make_shared<DeterministicDistribution>(3.0),
                   /*continuous=*/false});
  cases.push_back(
      {"mixture(exp+uniform)",
       std::make_shared<MixtureDistribution>(std::vector<MixtureComponent>{
           {std::make_shared<ExponentialDistribution>(2.0), 0.3},
           {std::make_shared<UniformDistribution>(1.0, 4.0), 0.7}})});
  return cases;
}

class DistributionPropertyTest : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributionPropertyTest, CdfIsMonotoneWithCorrectLimits) {
  const auto& dist = *GetParam().dist;
  const double lo = dist.SupportLower();
  EXPECT_LE(dist.Cdf(lo - 1.0), 1e-12);
  double probe_hi = std::isfinite(dist.SupportUpper())
                        ? dist.SupportUpper()
                        : dist.Quantile(1.0 - 1e-9);
  EXPECT_NEAR(dist.Cdf(probe_hi), 1.0, 1e-6);
  double previous = -1.0;
  for (int i = 0; i <= 200; ++i) {
    const double x = lo - 1.0 + (probe_hi - lo + 2.0) * i / 200.0;
    const double f = dist.Cdf(x);
    ASSERT_GE(f, previous - 1e-12) << GetParam().label << " x=" << x;
    ASSERT_GE(f, -1e-15);
    ASSERT_LE(f, 1.0 + 1e-12);
    previous = f;
  }
}

TEST_P(DistributionPropertyTest, PdfIsDerivativeOfCdf) {
  if (!GetParam().continuous) GTEST_SKIP() << "no density";
  const auto& dist = *GetParam().dist;
  const double sigma = std::sqrt(dist.Variance());
  const double h = 1e-5 * (1.0 + sigma);
  for (int i = 1; i <= 9; ++i) {
    const double p = i / 10.0;
    const double x = dist.Quantile(p);
    const double numeric = (dist.Cdf(x + h) - dist.Cdf(x - h)) / (2.0 * h);
    const double pdf = dist.Pdf(x);
    EXPECT_NEAR(numeric, pdf, 1e-3 * (1.0 + pdf))
        << GetParam().label << " at quantile " << p;
  }
}

TEST_P(DistributionPropertyTest, PdfIntegratesToCdfMass) {
  if (!GetParam().continuous) GTEST_SKIP() << "no density";
  // Integrate the density over the central 90% of the distribution (some
  // densities are singular at the support boundary, e.g. gamma with
  // shape < 1) and compare with the CDF mass of the same window.
  const auto& dist = *GetParam().dist;
  const double lo = dist.Quantile(0.05);
  const double hi = dist.Quantile(0.95);
  const double mass =
      CompositeGaussLegendre([&](double x) { return dist.Pdf(x); }, lo, hi,
                             512, 8);
  EXPECT_NEAR(mass, dist.Cdf(hi) - dist.Cdf(lo), 1e-3) << GetParam().label;
}

TEST_P(DistributionPropertyTest, MeanMatchesNumericIntegral) {
  const auto& dist = *GetParam().dist;
  if (!GetParam().continuous) {
    EXPECT_DOUBLE_EQ(dist.Mean(), 3.0);
    return;
  }
  if (GetParam().heavy_tailed) {
    GTEST_SKIP() << "heavy tail defeats fixed-grid quadrature";
  }
  // E[X] for X >= lo: lo + ∫_lo^∞ (1 - F) dx.
  const double lo = dist.SupportLower();
  const double hi = std::isfinite(dist.SupportUpper())
                        ? dist.SupportUpper()
                        : dist.Quantile(1.0 - 1e-12);
  const double tail =
      CompositeGaussLegendre([&](double x) { return 1.0 - dist.Cdf(x); }, lo,
                             hi, 1024, 8);
  EXPECT_NEAR(dist.Mean(), lo + tail, 2e-3 * (1.0 + std::fabs(dist.Mean())))
      << GetParam().label;
}

TEST_P(DistributionPropertyTest, QuantileRoundTrips) {
  const auto& dist = *GetParam().dist;
  for (double p : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double x = dist.Quantile(p);
    if (GetParam().continuous) {
      EXPECT_NEAR(dist.Cdf(x), p, 1e-6) << GetParam().label << " p=" << p;
    } else {
      EXPECT_GE(dist.Cdf(x), p);  // generalized inverse for atoms
    }
  }
}

TEST_P(DistributionPropertyTest, SamplesStayInSupport) {
  const auto& dist = *GetParam().dist;
  Rng rng(2024);
  for (int i = 0; i < 20000; ++i) {
    const double x = dist.Sample(&rng);
    ASSERT_GE(x, dist.SupportLower() - 1e-9) << GetParam().label;
    ASSERT_LE(x, dist.SupportUpper() + 1e-9) << GetParam().label;
  }
}

TEST_P(DistributionPropertyTest, SampleMomentsMatch) {
  const auto& dist = *GetParam().dist;
  Rng rng(99);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = dist.Sample(&rng);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  if (GetParam().heavy_tailed) {
    // The variance estimator does not converge at this n when the fourth
    // moment is infinite; only sanity-check the mean.
    EXPECT_NEAR(mean, dist.Mean(), 0.1 * dist.Mean()) << GetParam().label;
    return;
  }
  const double mean_tol =
      5.0 * std::sqrt(dist.Variance() / n) + 1e-9;  // ~5σ of the estimator
  EXPECT_NEAR(mean, dist.Mean(), mean_tol) << GetParam().label;
  EXPECT_NEAR(var, dist.Variance(),
              0.1 * dist.Variance() + 1e-9)
      << GetParam().label;
}

TEST_P(DistributionPropertyTest, SamplerPassesKsTest) {
  if (!GetParam().continuous) GTEST_SKIP() << "degenerate";
  const auto& dist = *GetParam().dist;
  Rng rng(31337);
  std::vector<double> samples;
  samples.reserve(5000);
  for (int i = 0; i < 5000; ++i) samples.push_back(dist.Sample(&rng));
  const KsTestResult ks = KolmogorovSmirnovTest(
      std::move(samples), [&](double x) { return dist.Cdf(x); });
  // A correct sampler fails at the 0.001 level with probability 0.001; the
  // seed is fixed so this is deterministic in practice.
  EXPECT_GT(ks.p_value, 0.001) << GetParam().label << " D=" << ks.statistic;
}

TEST_P(DistributionPropertyTest, CloneBehavesIdentically) {
  const auto& dist = *GetParam().dist;
  const auto clone = dist.Clone();
  EXPECT_EQ(clone->ToString(), dist.ToString());
  for (double x : {0.1, 1.0, 2.5, 10.0}) {
    EXPECT_DOUBLE_EQ(clone->Cdf(x), dist.Cdf(x));
    EXPECT_DOUBLE_EQ(clone->Pdf(x), dist.Pdf(x));
  }
  EXPECT_DOUBLE_EQ(clone->Mean(), dist.Mean());
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, DistributionPropertyTest,
    ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<DistCase>& info) {
      std::string name = info.param.label;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

// ---- closed-form spot checks -------------------------------------------

TEST(ExponentialTest, ClosedForms) {
  ExponentialDistribution d(5.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(d.Variance(), 25.0);
  EXPECT_NEAR(d.Cdf(5.0), 1.0 - std::exp(-1.0), 1e-15);
  EXPECT_NEAR(d.Quantile(0.5), 5.0 * std::log(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(d.Cdf(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(d.Pdf(-1.0), 0.0);
}

TEST(GammaTest, PaperParameters) {
  // Fig. 7's "skewed gamma with mean 8 (α=2, γ=4)".
  GammaDistribution d(2.0, 4.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 8.0);
  EXPECT_DOUBLE_EQ(d.Variance(), 32.0);
  // P(2, x/4) = 1 - (1 + x/4) e^{-x/4}.
  EXPECT_NEAR(d.Cdf(8.0), 1.0 - 3.0 * std::exp(-2.0), 1e-12);
}

TEST(GammaTest, PdfAtZeroByShape) {
  EXPECT_DOUBLE_EQ(GammaDistribution(2.0, 1.0).Pdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(GammaDistribution(1.0, 2.0).Pdf(0.0), 0.5);
  EXPECT_TRUE(std::isinf(GammaDistribution(0.5, 1.0).Pdf(0.0)));
}

TEST(UniformTest, ClosedForms) {
  UniformDistribution d(2.0, 6.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 4.0);
  EXPECT_NEAR(d.Variance(), 16.0 / 12.0, 1e-15);
  EXPECT_DOUBLE_EQ(d.Cdf(3.0), 0.25);
  EXPECT_DOUBLE_EQ(d.Quantile(0.25), 3.0);
  EXPECT_DOUBLE_EQ(d.Pdf(1.0), 0.0);
  EXPECT_DOUBLE_EQ(d.Pdf(3.0), 0.25);
}

TEST(DeterministicTest, StepCdf) {
  DeterministicDistribution d(3.0);
  EXPECT_DOUBLE_EQ(d.Cdf(2.999), 0.0);
  EXPECT_DOUBLE_EQ(d.Cdf(3.0), 1.0);
  EXPECT_DOUBLE_EQ(d.Variance(), 0.0);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(d.Sample(&rng), 3.0);
}

TEST(WeibullTest, ShapeOneIsExponential) {
  WeibullDistribution w(1.0, 4.0);
  ExponentialDistribution e(4.0);
  for (double x : {0.5, 1.0, 4.0, 9.0}) {
    EXPECT_NEAR(w.Cdf(x), e.Cdf(x), 1e-14);
    EXPECT_NEAR(w.Pdf(x), e.Pdf(x), 1e-14);
  }
  EXPECT_NEAR(w.Mean(), 4.0, 1e-12);
}

TEST(LognormalTest, MedianIsExpMu) {
  LognormalDistribution d(1.0, 0.7);
  EXPECT_NEAR(d.Quantile(0.5), std::exp(1.0), 1e-9);
  EXPECT_NEAR(d.Cdf(std::exp(1.0)), 0.5, 1e-12);
}

TEST(LomaxTest, ClosedForms) {
  LomaxDistribution d(2.5, 6.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 4.0);               // s/(a-1)
  EXPECT_NEAR(d.Variance(), 36.0 * 2.5 / (1.5 * 1.5 * 0.5), 1e-12);
  EXPECT_NEAR(d.Cdf(6.0), 1.0 - std::pow(2.0, -2.5), 1e-15);
  EXPECT_NEAR(d.Quantile(d.Cdf(3.0)), 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(d.Cdf(-1.0), 0.0);
}

TEST(LomaxTest, HeavyTailDominatesExponentialOfSameMean) {
  // Same mean 4: the Lomax tail must exceed the exponential tail far out.
  LomaxDistribution heavy = LomaxDistribution::FromMean(4.0, 2.5);
  ExponentialDistribution light(4.0);
  EXPECT_DOUBLE_EQ(heavy.Mean(), 4.0);
  EXPECT_GT(1.0 - heavy.Cdf(40.0), 1.0 - light.Cdf(40.0));
  EXPECT_GT((1.0 - heavy.Cdf(80.0)) / (1.0 - light.Cdf(80.0)), 100.0);
}

TEST(LomaxTest, InfiniteMomentsReported) {
  EXPECT_TRUE(std::isinf(LomaxDistribution(0.8, 1.0).Mean()));
  EXPECT_TRUE(std::isinf(LomaxDistribution(1.5, 1.0).Variance()));
}

TEST(MixtureTest, MomentsCombine) {
  const auto a = std::make_shared<DeterministicDistribution>(2.0);
  const auto b = std::make_shared<DeterministicDistribution>(10.0);
  MixtureDistribution mix({{a, 1.0}, {b, 3.0}});  // weights normalize to .25/.75
  EXPECT_DOUBLE_EQ(mix.Mean(), 0.25 * 2.0 + 0.75 * 10.0);
  // Var = E[X²] − mean²  = .25·4 + .75·100 − 8²
  EXPECT_DOUBLE_EQ(mix.Variance(), 0.25 * 4.0 + 0.75 * 100.0 - 64.0);
  EXPECT_DOUBLE_EQ(mix.Cdf(5.0), 0.25);
}

TEST(EmpiricalTest, MatchesSourceSamples) {
  std::vector<double> samples = {1.0, 2.0, 3.0, 4.0, 5.0};
  EmpiricalDistribution d(samples);
  EXPECT_DOUBLE_EQ(d.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(d.SupportLower(), 1.0);
  EXPECT_DOUBLE_EQ(d.SupportUpper(), 5.0);
  EXPECT_DOUBLE_EQ(d.Cdf(3.0), 0.5);
  EXPECT_DOUBLE_EQ(d.Cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.Cdf(5.0), 1.0);
}

TEST(EmpiricalTest, ApproximatesSourceDistribution) {
  ExponentialDistribution source(3.0);
  Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(source.Sample(&rng));
  EmpiricalDistribution d(std::move(samples));
  EXPECT_NEAR(d.Mean(), 3.0, 0.15);
  for (double x : {1.0, 3.0, 6.0}) {
    EXPECT_NEAR(d.Cdf(x), source.Cdf(x), 0.02) << "x=" << x;
  }
}

// ---- spec parser ----------------------------------------------------------

TEST(ParseDistributionSpecTest, ParsesAllFamilies) {
  for (const char* spec :
       {"exp(5)", "exponential(2.5)", "gamma(2, 4)", "uniform(0, 10)",
        "det(7)", "deterministic(7)", "weibull(1.5, 3)",
        "lognormal(0, 1)", "lomax(2.5, 6)", "pareto2(3, 1)",
        "  GAMMA( 2 , 4 ) "}) {
    const auto parsed = ParseDistributionSpec(spec);
    EXPECT_TRUE(parsed.ok()) << spec << ": " << parsed.status();
  }
}

TEST(ParseDistributionSpecTest, ParsedGammaMatchesDirect) {
  GammaDistribution direct(2.0, 4.0);
  for (const char* spec : {"gamma(2,4)", "  GAMMA( 2 , 4 ) "}) {
    const auto parsed = ParseDistributionSpec(spec);
    ASSERT_TRUE(parsed.ok()) << spec;
    EXPECT_EQ((*parsed)->Mean(), direct.Mean()) << spec;
    EXPECT_EQ((*parsed)->Cdf(5.0), direct.Cdf(5.0)) << spec;
  }
}

TEST(ParseDistributionSpecTest, RejectsMalformedSpecs) {
  for (const char* spec :
       {"", "gamma", "gamma(", "gamma(2", "gamma(2,4", "gamma(2,4,6)",
        "exp()", "exp(abc)", "unknown(1)", "exp(-1)", "gamma(0,1)",
        "uniform(5,2)", "lognormal(0,0)", "lomax(0,1)",
        // Numbers the shared parser refuses (NaN or inf would abort).
        "gamma(nan,4)", "weibull(inf,1)", "lomax(2,0x10)", "exp(1e999)"}) {
    EXPECT_TRUE(ParseDistributionSpec(spec).status().IsInvalidArgument())
        << spec;
  }
}

}  // namespace
}  // namespace vod
