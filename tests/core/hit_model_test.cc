#include "core/hit_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/hit_intervals.h"
#include "core/reference_model.h"
#include "core/sizing.h"
#include "dist/deterministic.h"
#include "dist/exponential.h"
#include "dist/gamma.h"
#include "dist/lognormal.h"
#include "dist/pareto.h"
#include "dist/transformed.h"
#include "dist/uniform.h"
#include "numerics/quadrature.h"
#include "workload/paper_presets.h"

namespace vod {
namespace {

PlaybackRates PaperRates() {
  PlaybackRates rates;
  rates.fast_forward = 3.0;
  rates.rewind = 3.0;
  return rates;
}

PartitionLayout MakeLayout(double l, int n, double b) {
  auto layout = PartitionLayout::FromBuffer(l, n, b);
  EXPECT_TRUE(layout.ok());
  return *layout;
}

AnalyticHitModel MakeModel(const PartitionLayout& layout) {
  auto model = AnalyticHitModel::Create(layout, PaperRates());
  EXPECT_TRUE(model.ok());
  return *model;
}

// ---- CompiledDuration ----------------------------------------------------

TEST(CompiledDurationTest, ValidatesInputs) {
  const auto gamma = std::make_shared<GammaDistribution>(2.0, 4.0);
  EXPECT_TRUE(CompiledDuration::Create(nullptr, 120.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(CompiledDuration::Create(gamma, -1.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(CompiledDuration::Create(gamma, 120.0).ok());
}

TEST(CompiledDurationTest, ClipAveragesMatchClosedForm) {
  // Uniform positions: E[F(min(b, c))] = [Fint(b) + (l − b)F(b)]/l with
  // Fint(b) = ∫_0^b (1 − e^{-t/m}) dt = b − m(1 − e^{-b/m}) for Exp(m).
  const double m = 5.0;
  const double l = 60.0;
  const auto exp_dist = std::make_shared<ExponentialDistribution>(m);
  const auto compiled = CompiledDuration::Create(exp_dist, l);
  ASSERT_TRUE(compiled.ok());
  for (double b : {0.5, 2.0, 10.0, 30.0, 60.0}) {
    const double fint = b - m * (1.0 - std::exp(-b / m));
    const double expected =
        (fint + (l - b) * exp_dist->Cdf(b)) / l;
    // Under uniform positions the FF and RW clips coincide by symmetry.
    EXPECT_NEAR(compiled->FastForwardClipAverage(b), expected, 1e-7)
        << "b=" << b;
    EXPECT_NEAR(compiled->RewindClipAverage(b), expected, 1e-7) << "b=" << b;
  }
  // End release: E[1 − F(l − V_c)] = 1 − Fint(l)/l.
  const double fint_l = l - m * (1.0 - std::exp(-l / m));
  EXPECT_NEAR(compiled->EndReleaseProbability(), 1.0 - fint_l / l, 1e-7);
  // Beyond l the averages saturate (extra duration mass lands at the end).
  EXPECT_NEAR(compiled->FastForwardClipAverage(200.0),
              1.0 - compiled->EndReleaseProbability(), 1e-9);
}

TEST(CompiledDurationTest, BoundedSupportTailQuantile) {
  const auto uni = std::make_shared<UniformDistribution>(0.0, 10.0);
  const auto compiled = CompiledDuration::Create(uni, 120.0);
  ASSERT_TRUE(compiled.ok());
  EXPECT_DOUBLE_EQ(compiled->tail_quantile(), 10.0);
}

TEST(CompiledDurationTest, RejectsNegativeSupport) {
  const auto uni = std::make_shared<UniformDistribution>(-5.0, 5.0);
  EXPECT_TRUE(
      CompiledDuration::Create(uni, 120.0).status().IsInvalidArgument());
}

// ---- closed form vs the per-lead-distance average -------------------------

// The d-average the closed form replaces, evaluated the long way: a 64-node
// Gauss–Legendre rule over d ∈ [0, W], rebuilding the hit intervals at each
// node and measuring them through the op's clip average (F for PAU).
double PerLeadDistanceOracle(VcrOp op, const PartitionLayout& layout,
                             const PlaybackRates& rates,
                             const CompiledDuration& duration) {
  const double end =
      op == VcrOp::kFastForward ? duration.EndReleaseProbability() : 0.0;
  const double window = layout.window();
  if (window <= 0.0) return end;
  const double x_max = op == VcrOp::kPause
                           ? duration.tail_quantile()
                           : std::min(duration.tail_quantile(),
                                      layout.movie_length());
  const auto measure = [&](double x) {
    switch (op) {
      case VcrOp::kFastForward:
        return duration.FastForwardClipAverage(x);
      case VcrOp::kRewind:
        return duration.RewindClipAverage(x);
      case VcrOp::kPause:
        break;
    }
    return duration.Cdf(x);
  };
  const GaussLegendreRule& rule = GetGaussLegendreRule(64);
  double hit = 0.0;
  for (size_t i = 0; i < rule.nodes.size(); ++i) {
    const double d = 0.5 * window * (1.0 + rule.nodes[i]);
    const IntervalSet set = BuildHitIntervals(op, layout, rates, d, x_max);
    double at = 0.0;
    for (const Interval& iv : set.intervals()) {
      at += measure(iv.hi) - measure(iv.lo);
    }
    hit += 0.5 * rule.weights[i] * at;
  }
  return hit + end;
}

TEST(ClosedFormTest, MatchesPerLeadDistanceAverageOnFig7Grid) {
  const DistributionPtr durations[] = {
      std::make_shared<GammaDistribution>(2.0, 4.0),
      std::make_shared<ExponentialDistribution>(8.0),
      std::make_shared<LognormalDistribution>(1.7, 0.8)};
  for (const DistributionPtr& dist : durations) {
    const auto compiled = CompiledDuration::Create(dist, 120.0);
    ASSERT_TRUE(compiled.ok());
    for (double w : {0.5, 1.0, 2.0}) {
      for (int n = 10; n * w < 120.0; n += 20) {
        const auto layout = PartitionLayout::FromMaxWait(120.0, n, w);
        ASSERT_TRUE(layout.ok());
        const AnalyticHitModel model = MakeModel(*layout);
        for (VcrOp op : kAllVcrOps) {
          const auto p = model.HitProbability(op, *compiled);
          ASSERT_TRUE(p.ok()) << p.status();
          EXPECT_NEAR(*p,
                      PerLeadDistanceOracle(op, *layout, PaperRates(),
                                            *compiled),
                      1e-6)
              << dist->ToString() << " w=" << w << " n=" << n << " "
              << VcrOpName(op);
        }
      }
    }
  }
}

TEST(ClosedFormTest, MatchesPerLeadDistanceAverageOnExample1) {
  for (const MovieSizingSpec& spec :
       paper::Example1Movies(VcrMix::PaperMixed())) {
    const auto choice = MinimumBufferChoice(spec);
    ASSERT_TRUE(choice.ok()) << choice.status();
    const int n_star = choice->streams;
    const int n_max = static_cast<int>(
        std::floor(spec.length_minutes / spec.max_wait_minutes + 1e-9));
    const auto compiled = CompiledDuration::Create(spec.durations.pause,
                                                   spec.length_minutes);
    ASSERT_TRUE(compiled.ok());
    for (int n : {1, n_star / 2, n_star, n_max - 1}) {
      const auto layout = PartitionLayout::FromMaxWait(
          spec.length_minutes, n, spec.max_wait_minutes);
      ASSERT_TRUE(layout.ok());
      const auto model = AnalyticHitModel::Create(*layout, spec.rates);
      ASSERT_TRUE(model.ok());
      for (VcrOp op : kAllVcrOps) {
        const auto p = model->HitProbability(op, *compiled);
        ASSERT_TRUE(p.ok()) << p.status();
        EXPECT_NEAR(*p,
                    PerLeadDistanceOracle(op, *layout, spec.rates,
                                          *compiled),
                    1e-6)
            << spec.name << " n=" << n << " " << VcrOpName(op);
      }
    }
  }
}

// P(hit | op) for a deterministic duration x0, by hand: the hit set in d is
// a union of intervals, and the clip is a single threshold on V_c.
double ExactDeterministic(VcrOp op, const PartitionLayout& layout,
                          const PlaybackRates& rates, double x0) {
  const double l = layout.movie_length();
  const double window = layout.window();
  const double period = layout.restart_period();
  const double scale = op == VcrOp::kFastForward ? rates.Alpha()
                       : op == VcrOp::kRewind    ? rates.Gamma()
                                                 : 1.0;
  const double y = x0 / scale;
  // FF window k holds y iff d ∈ [y − kT, y − kT + W]; RW/PAU window k iff
  // d ∈ [kT − y, kT − y + W]. Average the overlap with [0, W].
  double covered = 0.0;
  for (int k = 0; k * period <= y + 2.0 * window + period; ++k) {
    const double lo = op == VcrOp::kFastForward ? y - k * period
                                                : k * period - y;
    covered += std::max(0.0, std::min(lo + window, window) -
                                 std::max(lo, 0.0));
  }
  const double frac = covered / window;
  switch (op) {
    case VcrOp::kFastForward:
      // Lands before the end iff V_c <= l − x0; otherwise it releases at
      // the end.
      return ((l - x0) * frac + x0) / l;
    case VcrOp::kRewind:
      return (l - x0) / l * frac;  // a rewind past minute 0 misses
    case VcrOp::kPause:
      break;
  }
  return frac;
}

TEST(ClosedFormTest, HandDerivedValues) {
  // Uniform(0, 16) pause, l = 120, n = 10, w = 2 (W = 10, T = 12): windows
  // 0–2 cover (10 − d) + min(4 + d, 10) + max(d − 8, 0) of the 16 minutes,
  // which averages to 13.4/16 over d.
  {
    const auto layout = PartitionLayout::FromMaxWait(120.0, 10, 2.0);
    ASSERT_TRUE(layout.ok());
    const auto p = MakeModel(*layout).HitProbability(
        VcrOp::kPause, std::make_shared<UniformDistribution>(0.0, 16.0));
    ASSERT_TRUE(p.ok());
    EXPECT_NEAR(*p, 0.8375, 1e-9);
  }
  // Deterministic(8) rewind, n = 40, w = 1: 8/γ hits for half of d ∈ [0, 2]
  // and the rewind stays in the movie with probability 112/120.
  {
    const auto layout = PartitionLayout::FromMaxWait(120.0, 40, 1.0);
    ASSERT_TRUE(layout.ok());
    const auto p = MakeModel(*layout).HitProbability(
        VcrOp::kRewind, std::make_shared<DeterministicDistribution>(8.0));
    ASSERT_TRUE(p.ok());
    EXPECT_NEAR(ExactDeterministic(VcrOp::kRewind, *layout, PaperRates(),
                                   8.0),
                112.0 / 120.0 * 0.5, 1e-12);
    EXPECT_NEAR(*p, 112.0 / 120.0 * 0.5, 1e-4);
  }
}

TEST(ClosedFormTest, StepCdfErrorStaysTableLimited) {
  // A jump in F inside a table cell is only resolved to the cell width, so
  // single cells may err by ~1e-2; bound the worst cell of the grid.
  const auto det = std::make_shared<DeterministicDistribution>(8.0);
  const auto compiled = CompiledDuration::Create(det, 120.0);
  ASSERT_TRUE(compiled.ok());
  double worst = 0.0;
  for (int n = 10; n <= 100; n += 10) {
    const auto layout = PartitionLayout::FromMaxWait(120.0, n, 1.0);
    ASSERT_TRUE(layout.ok());
    const AnalyticHitModel model = MakeModel(*layout);
    for (VcrOp op : kAllVcrOps) {
      const auto p = model.HitProbability(op, *compiled);
      ASSERT_TRUE(p.ok());
      worst = std::max(worst, std::fabs(*p - ExactDeterministic(
                                                 op, *layout, PaperRates(),
                                                 8.0)));
    }
  }
  EXPECT_LT(worst, 2e-2);
}

TEST(ClosedFormTest, HeavyTailedPauseIsComputedOrRefused) {
  const auto layout = PartitionLayout::FromMaxWait(120.0, 100, 1.0);
  ASSERT_TRUE(layout.ok());
  const AnalyticHitModel model = MakeModel(*layout);
  // Shape 1.5: tail quantile ~1.9e7, ~1.6e7 windows, under the cap.
  const auto moderate = std::make_shared<LomaxDistribution>(
      LomaxDistribution::FromMean(8.0, 1.5));
  const auto p = model.HitProbability(VcrOp::kPause, moderate);
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_GE(*p, 0.0);
  EXPECT_LE(*p, 1.0);
  // Shape 1.1: tail quantile ~1e9, ~8e8 windows: refused up front.
  const auto start = std::chrono::steady_clock::now();
  const auto heavy = std::make_shared<LomaxDistribution>(
      LomaxDistribution::FromMean(8.0, 1.1));
  const auto refused = model.HitProbability(VcrOp::kPause, heavy);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_TRUE(refused.status().IsInvalidArgument()) << refused.status();
  EXPECT_NE(refused.status().message().find("hit windows"),
            std::string::npos);
  EXPECT_LT(seconds, 1.0);
}

// ---- model vs brute-force reference, parameterized -----------------------

struct ModelCase {
  std::string label;
  double l;
  int n;
  double b;
  DistributionPtr duration;
};

std::vector<ModelCase> ModelCases() {
  const auto gamma = std::make_shared<GammaDistribution>(2.0, 4.0);
  const auto exp5 = std::make_shared<ExponentialDistribution>(5.0);
  const auto exp2 = std::make_shared<ExponentialDistribution>(2.0);
  const auto uni = std::make_shared<UniformDistribution>(0.0, 12.0);
  return {
      {"gamma_l120_n20_B100", 120.0, 20, 100.0, gamma},
      {"gamma_l120_n40_B80", 120.0, 40, 80.0, gamma},
      {"gamma_l120_n100_B20", 120.0, 100, 20.0, gamma},
      {"exp5_l60_n30_B30", 60.0, 30, 30.0, exp5},
      {"exp2_l90_n60_B45", 90.0, 60, 45.0, exp2},
      {"uniform_l120_n40_B60", 120.0, 40, 60.0, uni},
      {"tinybuffer_l120_n10_B5", 120.0, 10, 5.0, gamma},
      {"fullbuffer_l60_n12_B60", 60.0, 12, 60.0, exp5},
  };
}

class HitModelVsReferenceTest : public ::testing::TestWithParam<ModelCase> {};

TEST_P(HitModelVsReferenceTest, AgreesWithBruteForceQuadrature) {
  const ModelCase& c = GetParam();
  const PartitionLayout layout = MakeLayout(c.l, c.n, c.b);
  const AnalyticHitModel model = MakeModel(layout);
  for (VcrOp op : kAllVcrOps) {
    const auto fast = model.HitProbability(op, c.duration);
    ASSERT_TRUE(fast.ok()) << fast.status();
    const auto reference =
        ReferenceHitProbability(op, layout, PaperRates(), *c.duration);
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_NEAR(*fast, *reference, 2e-4)
        << c.label << " op=" << VcrOpName(op);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HitModelVsReferenceTest, ::testing::ValuesIn(ModelCases()),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      return info.param.label;
    });

// ---- golden regression pins ------------------------------------------------

TEST(HitModelTest, PinnedFig7ConfigValues) {
  // Deterministic quadrature values at the paper's Figure-7 configurations
  // (w = 1), pinned to guard against silent numeric regressions. These are
  // the numbers EXPERIMENTS.md reports.
  const auto gamma = std::make_shared<GammaDistribution>(2.0, 4.0);
  struct Pin {
    int n;
    VcrOp op;
    double expected;
  };
  const Pin pins[] = {
      {20, VcrOp::kFastForward, 0.8374}, {20, VcrOp::kRewind, 0.7755},
      {20, VcrOp::kPause, 0.8296},       {40, VcrOp::kFastForward, 0.6818},
      {40, VcrOp::kRewind, 0.6203},      {40, VcrOp::kPause, 0.6633},
      {100, VcrOp::kFastForward, 0.2203}, {100, VcrOp::kRewind, 0.1551},
      {100, VcrOp::kPause, 0.1658},
  };
  for (const Pin& pin : pins) {
    const auto layout = PartitionLayout::FromMaxWait(120.0, pin.n, 1.0);
    ASSERT_TRUE(layout.ok());
    const AnalyticHitModel model = MakeModel(*layout);
    const auto p = model.HitProbability(pin.op, gamma);
    ASSERT_TRUE(p.ok());
    EXPECT_NEAR(*p, pin.expected, 5e-4)
        << "n=" << pin.n << " op=" << VcrOpName(pin.op);
  }
}

TEST(HitModelTest, PinnedMixedValue) {
  // Figure 7(d) at n = 40, w = 1.
  const auto layout = PartitionLayout::FromMaxWait(120.0, 40, 1.0);
  ASSERT_TRUE(layout.ok());
  const AnalyticHitModel model = MakeModel(*layout);
  const auto gamma = std::make_shared<GammaDistribution>(2.0, 4.0);
  const auto p = model.HitProbability(VcrMix::PaperMixed(),
                                      VcrDurations::AllSame(gamma));
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 0.6584, 5e-4);
}

// ---- structural properties ------------------------------------------------

TEST(HitModelTest, ProbabilitiesAreInUnitInterval) {
  const auto gamma = std::make_shared<GammaDistribution>(2.0, 4.0);
  for (int n : {5, 20, 60, 119}) {
    const PartitionLayout layout = MakeLayout(120.0, n, 120.0 - n * 1.0);
    const AnalyticHitModel model = MakeModel(layout);
    for (VcrOp op : kAllVcrOps) {
      const auto p = model.HitProbability(op, gamma);
      ASSERT_TRUE(p.ok());
      EXPECT_GE(*p, 0.0) << "n=" << n << " " << VcrOpName(op);
      EXPECT_LE(*p, 1.0 + 1e-12) << "n=" << n << " " << VcrOpName(op);
    }
  }
}

TEST(HitModelTest, HitProbabilityDecreasesWithStreamsAtFixedWait) {
  // Fixed w: more streams ⇒ less buffer ⇒ lower P(hit). (Figure 7 shape.)
  const auto gamma = std::make_shared<GammaDistribution>(2.0, 4.0);
  for (VcrOp op : kAllVcrOps) {
    double previous = 2.0;
    for (int n : {10, 20, 40, 60, 80, 100}) {
      const auto layout = PartitionLayout::FromMaxWait(120.0, n, 1.0);
      ASSERT_TRUE(layout.ok());
      const AnalyticHitModel model = MakeModel(*layout);
      const auto p = model.HitProbability(op, gamma);
      ASSERT_TRUE(p.ok());
      EXPECT_LT(*p, previous) << "n=" << n << " " << VcrOpName(op);
      previous = *p;
    }
  }
}

TEST(HitModelTest, HitProbabilityIncreasesWithBufferAtFixedStreams) {
  const auto gamma = std::make_shared<GammaDistribution>(2.0, 4.0);
  for (VcrOp op : kAllVcrOps) {
    double previous = -1.0;
    for (double b : {10.0, 30.0, 60.0, 90.0, 120.0}) {
      const PartitionLayout layout = MakeLayout(120.0, 30, b);
      const AnalyticHitModel model = MakeModel(layout);
      const auto p = model.HitProbability(op, gamma);
      ASSERT_TRUE(p.ok());
      EXPECT_GT(*p, previous) << "B=" << b << " " << VcrOpName(op);
      previous = *p;
    }
  }
}

TEST(HitModelTest, PureBatchingLeavesOnlyEndRelease) {
  const auto gamma = std::make_shared<GammaDistribution>(2.0, 4.0);
  const PartitionLayout layout = MakeLayout(120.0, 40, 0.0);
  const AnalyticHitModel model = MakeModel(layout);
  const auto ff = model.Breakdown(VcrOp::kFastForward, gamma);
  ASSERT_TRUE(ff.ok());
  EXPECT_DOUBLE_EQ(ff->within, 0.0);
  EXPECT_DOUBLE_EQ(ff->jump, 0.0);
  EXPECT_GT(ff->end, 0.0);
  for (VcrOp op : {VcrOp::kRewind, VcrOp::kPause}) {
    const auto p = model.HitProbability(op, gamma);
    ASSERT_TRUE(p.ok());
    EXPECT_DOUBLE_EQ(*p, 0.0) << VcrOpName(op);
  }
}

TEST(HitModelTest, TinyBufferStaysNearPureBatching) {
  // The window W = B/n can sit far below one table cell: B = l − n·w
  // rounds to a few ulps above 0 for 119 − 170·0.7, and B = 1e-9 is a
  // plain tiny buffer. Each window's d-average divides by sW, so it must
  // not amplify rounding noise; P(hit) stays within O(B) of B = 0.
  const auto residue = PartitionLayout::FromMaxWait(119.0, 170, 0.7);
  ASSERT_TRUE(residue.ok());
  ASSERT_GT(residue->buffer_minutes(), 0.0);
  ASSERT_LT(residue->buffer_minutes(), 1e-12);
  const PartitionLayout layouts[] = {*residue,
                                     MakeLayout(120.0, 100, 1e-9)};
  const auto gamma = std::make_shared<GammaDistribution>(2.0, 4.0);
  for (const PartitionLayout& layout : layouts) {
    const PartitionLayout pure =
        MakeLayout(layout.movie_length(), layout.streams(), 0.0);
    for (VcrOp op : kAllVcrOps) {
      const auto p = MakeModel(layout).HitProbability(op, gamma);
      const auto p0 = MakeModel(pure).HitProbability(op, gamma);
      ASSERT_TRUE(p.ok() && p0.ok());
      EXPECT_NEAR(*p, *p0, 1e-9) << layout.ToString() << " " << VcrOpName(op);
    }
  }
}

TEST(HitModelTest, FullBufferPauseAlwaysHits) {
  const auto exp_dist = std::make_shared<ExponentialDistribution>(5.0);
  const PartitionLayout layout = MakeLayout(120.0, 40, 120.0);
  const AnalyticHitModel model = MakeModel(layout);
  const auto p = model.HitProbability(VcrOp::kPause, exp_dist);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 1.0, 1e-9);
}

TEST(HitModelTest, FullBufferFastForwardAlwaysReleases) {
  // With B = l every in-movie resume hits, and overshooting reaches the end:
  // total release probability is 1.
  const auto gamma = std::make_shared<GammaDistribution>(2.0, 4.0);
  const PartitionLayout layout = MakeLayout(120.0, 40, 120.0);
  const AnalyticHitModel model = MakeModel(layout);
  const auto breakdown = model.Breakdown(VcrOp::kFastForward, gamma);
  ASSERT_TRUE(breakdown.ok());
  EXPECT_NEAR(breakdown->total(), 1.0, 1e-6);
  EXPECT_GT(breakdown->end, 0.0);
}

TEST(HitModelTest, EndReleaseMatchesClosedFormForExponential) {
  // P(end) = 1 − Fint(l)/l with Fint(l) = l − m(1 − e^{-l/m}).
  const double m = 5.0;
  const double l = 60.0;
  const auto exp_dist = std::make_shared<ExponentialDistribution>(m);
  const PartitionLayout layout = MakeLayout(l, 10, 30.0);
  const AnalyticHitModel model = MakeModel(layout);
  const auto breakdown = model.Breakdown(VcrOp::kFastForward, exp_dist);
  ASSERT_TRUE(breakdown.ok());
  const double expected = m * (1.0 - std::exp(-l / m)) / l;
  EXPECT_NEAR(breakdown->end, expected, 1e-7);
}

TEST(HitModelTest, EndReleaseIndependentOfBuffer) {
  const auto gamma = std::make_shared<GammaDistribution>(2.0, 4.0);
  const AnalyticHitModel small = MakeModel(MakeLayout(120.0, 40, 20.0));
  const AnalyticHitModel big = MakeModel(MakeLayout(120.0, 40, 100.0));
  const auto a = small.Breakdown(VcrOp::kFastForward, gamma);
  const auto b = big.Breakdown(VcrOp::kFastForward, gamma);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NEAR(a->end, b->end, 1e-12);
}

TEST(HitModelTest, IncludeEndReleaseOptionRemovesEndTerm) {
  const auto gamma = std::make_shared<GammaDistribution>(2.0, 4.0);
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  HitModelOptions options;
  options.include_end_release = false;
  const auto model = AnalyticHitModel::Create(layout, PaperRates(), options);
  ASSERT_TRUE(model.ok());
  const auto breakdown = model->Breakdown(VcrOp::kFastForward, gamma);
  ASSERT_TRUE(breakdown.ok());
  EXPECT_DOUBLE_EQ(breakdown->end, 0.0);
  EXPECT_GT(breakdown->within + breakdown->jump, 0.0);
}

TEST(HitModelTest, RewindAndPauseHaveNoEndTerm) {
  const auto gamma = std::make_shared<GammaDistribution>(2.0, 4.0);
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  const AnalyticHitModel model = MakeModel(layout);
  for (VcrOp op : {VcrOp::kRewind, VcrOp::kPause}) {
    const auto breakdown = model.Breakdown(op, gamma);
    ASSERT_TRUE(breakdown.ok());
    EXPECT_DOUBLE_EQ(breakdown->end, 0.0) << VcrOpName(op);
  }
}

TEST(HitModelTest, DeterministicShortSkipAlwaysHitsOwnPartition) {
  // A FF so short it stays within the own window for almost every (V_c, d):
  // duration x0 hits iff x0 <= αd, so P(within) = 1 − x0/(αW) for x0 < αW.
  const PartitionLayout layout = MakeLayout(120.0, 30, 90.0);  // W = 3
  const AnalyticHitModel model = MakeModel(layout);
  const double x0 = 0.9;
  const auto det = std::make_shared<DeterministicDistribution>(x0);
  const auto breakdown = model.Breakdown(VcrOp::kFastForward, det);
  ASSERT_TRUE(breakdown.ok());
  const double alpha = 1.5;
  // Ignore the O(x0/l) end-of-movie correction.
  EXPECT_NEAR(breakdown->within, 1.0 - x0 / (alpha * layout.window()), 1e-2);
}

TEST(HitModelTest, MixedEqualsConvexCombination) {
  const auto gamma = std::make_shared<GammaDistribution>(2.0, 4.0);
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  const AnalyticHitModel model = MakeModel(layout);
  const VcrMix mix = VcrMix::PaperMixed();
  const auto mixed =
      model.HitProbability(mix, VcrDurations::AllSame(gamma));
  ASSERT_TRUE(mixed.ok());
  double expected = 0.0;
  for (VcrOp op : kAllVcrOps) {
    const auto p = model.HitProbability(op, gamma);
    ASSERT_TRUE(p.ok());
    expected += mix.Probability(op) * *p;
  }
  EXPECT_NEAR(*mixed, expected, 1e-12);
}

TEST(HitModelTest, MixedSkipsZeroProbabilityOps) {
  const auto gamma = std::make_shared<GammaDistribution>(2.0, 4.0);
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  const AnalyticHitModel model = MakeModel(layout);
  VcrDurations durations;  // only FF provided
  durations.fast_forward = gamma;
  const auto p =
      model.HitProbability(VcrMix::Only(VcrOp::kFastForward), durations);
  EXPECT_TRUE(p.ok());
  // But a mix needing RW without a distribution fails loudly.
  const auto bad = model.HitProbability(VcrMix::PaperMixed(), durations);
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(HitModelTest, MismatchedCompiledMovieLengthRejected) {
  const auto gamma = std::make_shared<GammaDistribution>(2.0, 4.0);
  const auto compiled = CompiledDuration::Create(gamma, 60.0);
  ASSERT_TRUE(compiled.ok());
  const AnalyticHitModel model = MakeModel(MakeLayout(120.0, 40, 80.0));
  EXPECT_TRUE(model.HitProbability(VcrOp::kFastForward, *compiled)
                  .status()
                  .IsInvalidArgument());
}

TEST(HitModelTest, InvalidMixRejected) {
  const auto gamma = std::make_shared<GammaDistribution>(2.0, 4.0);
  const AnalyticHitModel model = MakeModel(MakeLayout(120.0, 40, 80.0));
  VcrMix mix{0.5, 0.2, 0.2};  // sums to 0.9
  EXPECT_TRUE(model.HitProbability(mix, VcrDurations::AllSame(gamma))
                  .status()
                  .IsInvalidArgument());
}

TEST(HitModelTest, NonFiniteMixRejectedByName) {
  // NaN fails both the sign and the sum test's comparisons, so it needs its
  // own refusal.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [mix, field] :
       {std::pair{VcrMix{nan, 0.5, 0.5}, "p_fast_forward"},
        std::pair{VcrMix{0.5, nan, 0.5}, "p_rewind"},
        std::pair{VcrMix{0.5, 0.5, inf}, "p_pause"}}) {
    const Status status = mix.Validate();
    EXPECT_TRUE(status.IsInvalidArgument()) << field;
    EXPECT_NE(status.message().find(field), std::string::npos) << status;
  }
}

TEST(HitModelTest, InvalidRatesRejectedAtCreate) {
  PlaybackRates bad;
  bad.fast_forward = 0.5;
  EXPECT_TRUE(AnalyticHitModel::Create(MakeLayout(120.0, 40, 80.0), bad)
                  .status()
                  .IsInvalidArgument());
}

TEST(HitModelTest, NonPaperRewindRatesStillMatchReference) {
  // The γ scaling must stay consistent with the brute-force reference for
  // rewind speeds other than the paper's 3x. (Note: P(hit|RW) is *not*
  // monotone in R_RW — stretching the hit windows by γ shifts probability
  // mass both into and out of them.)
  const auto gamma_dist = std::make_shared<GammaDistribution>(2.0, 4.0);
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  for (double r_rw : {0.5, 1.0, 8.0}) {
    PlaybackRates rates = PaperRates();
    rates.rewind = r_rw;
    const auto model = AnalyticHitModel::Create(layout, rates);
    ASSERT_TRUE(model.ok());
    const auto fast = model->HitProbability(VcrOp::kRewind, gamma_dist);
    ASSERT_TRUE(fast.ok());
    const auto reference =
        ReferenceHitProbability(VcrOp::kRewind, layout, rates, *gamma_dist);
    ASSERT_TRUE(reference.ok());
    EXPECT_NEAR(*fast, *reference, 2e-4) << "R_RW=" << r_rw;
  }
}

TEST(HitModelTest, PauseWrapEquivalenceModuloMovieLength) {
  // Paper §2.1: "a pause of x > l is equivalent to a pause of x mod l". The
  // window pattern is periodic with period T = l/n, which divides l, so
  // folding the duration distribution modulo l must not change P(hit|PAU).
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  const AnalyticHitModel model = MakeModel(layout);
  // A long-pause distribution with substantial mass beyond l.
  const auto raw = std::make_shared<ExponentialDistribution>(90.0);
  const auto wrapped = std::make_shared<WrappedDistribution>(
      raw, layout.movie_length());
  const auto p_raw = model.HitProbability(VcrOp::kPause, raw);
  const auto p_wrapped = model.HitProbability(VcrOp::kPause, wrapped);
  ASSERT_TRUE(p_raw.ok() && p_wrapped.ok());
  EXPECT_NEAR(*p_raw, *p_wrapped, 1e-6);
}

TEST(HitModelTest, RandomizedConfigsAgreeWithReference) {
  // Fuzz-style sweep: random layouts, rates, and duration distributions;
  // the fast engine must track the brute-force quadrature everywhere.
  Rng rng(20240707);
  for (int trial = 0; trial < 12; ++trial) {
    const double l = rng.Uniform(30.0, 200.0);
    const int n = 2 + static_cast<int>(rng.UniformInt(60));
    const double b = rng.Uniform(0.05, 0.95) * l;
    const PartitionLayout layout = MakeLayout(l, n, b);
    PlaybackRates rates;
    rates.fast_forward = rng.Uniform(1.5, 8.0);
    rates.rewind = rng.Uniform(0.5, 8.0);
    DistributionPtr dist;
    switch (rng.UniformInt(3)) {
      case 0:
        dist = std::make_shared<ExponentialDistribution>(
            rng.Uniform(1.0, 20.0));
        break;
      case 1:
        dist = std::make_shared<GammaDistribution>(rng.Uniform(0.5, 5.0),
                                                   rng.Uniform(0.5, 8.0));
        break;
      default:
        dist = std::make_shared<UniformDistribution>(0.0,
                                                     rng.Uniform(2.0, l));
        break;
    }
    const auto model = AnalyticHitModel::Create(layout, rates);
    ASSERT_TRUE(model.ok());
    for (VcrOp op : kAllVcrOps) {
      const auto fast = model->HitProbability(op, dist);
      const auto reference =
          ReferenceHitProbability(op, layout, rates, *dist);
      ASSERT_TRUE(fast.ok() && reference.ok());
      ASSERT_NEAR(*fast, *reference, 5e-4)
          << "trial=" << trial << " op=" << VcrOpName(op) << " "
          << layout.ToString() << " dist=" << dist->ToString();
    }
  }
}

TEST(HitModelTest, PauseIsRewindLimitAsRateGrowsLarge) {
  const auto gamma_dist = std::make_shared<GammaDistribution>(2.0, 4.0);
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  PlaybackRates fast = PaperRates();
  fast.rewind = 1e7;
  const auto model = AnalyticHitModel::Create(layout, fast);
  ASSERT_TRUE(model.ok());
  const auto rw = model->HitProbability(VcrOp::kRewind, gamma_dist);
  const auto pau = model->HitProbability(VcrOp::kPause, gamma_dist);
  ASSERT_TRUE(rw.ok() && pau.ok());
  // Not identical: RW still misses past the movie start while PAU wraps,
  // but the geometric scaling coincides; the gap is the start-boundary mass.
  EXPECT_NEAR(*rw, *pau, 0.08);
  EXPECT_LE(*rw, *pau + 1e-9);
}

}  // namespace
}  // namespace vod
