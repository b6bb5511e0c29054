#include "core/sizing.h"

#include <gtest/gtest.h>

#include <cmath>

#include "dist/exponential.h"
#include "dist/transformed.h"
#include "dist/gamma.h"
#include "workload/paper_presets.h"

namespace vod {
namespace {

MovieSizingSpec SmallSpec() {
  MovieSizingSpec spec;
  spec.name = "test-movie";
  spec.length_minutes = 60.0;
  spec.max_wait_minutes = 1.0;
  spec.min_hit_probability = 0.5;
  spec.mix = VcrMix::Only(VcrOp::kFastForward);
  spec.durations = VcrDurations::AllSame(
      std::make_shared<ExponentialDistribution>(5.0));
  spec.rates = paper::Rates();
  return spec;
}

TEST(MovieSizingSpecTest, Validation) {
  EXPECT_TRUE(SmallSpec().Validate().ok());

  MovieSizingSpec bad = SmallSpec();
  bad.length_minutes = 0.0;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());

  bad = SmallSpec();
  bad.max_wait_minutes = 0.0;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());

  bad = SmallSpec();
  bad.max_wait_minutes = 100.0;  // exceeds length
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());

  bad = SmallSpec();
  bad.min_hit_probability = 1.5;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());

  bad = SmallSpec();
  bad.mix = VcrMix::PaperMixed();  // needs RW/PAU durations
  bad.durations.rewind = nullptr;
  bad.durations.pause = nullptr;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());
}

TEST(SizingCurveTest, CoversFullStreamRangeAndTradeoff) {
  const auto points = ComputeSizingCurve(SmallSpec(), /*stream_step=*/1);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 60u);  // n = 1..l/w
  for (const auto& p : *points) {
    EXPECT_NEAR(p.buffer_minutes, 60.0 - p.streams * 1.0, 1e-9);
    EXPECT_GE(p.hit_probability, 0.0);
    EXPECT_LE(p.hit_probability, 1.0 + 1e-9);
  }
  // Monotone trade-off: later points have more streams, less buffer,
  // lower hit probability.
  for (size_t i = 1; i < points->size(); ++i) {
    EXPECT_GT((*points)[i].streams, (*points)[i - 1].streams);
    EXPECT_LE((*points)[i].hit_probability,
              (*points)[i - 1].hit_probability + 1e-9);
  }
}

TEST(SizingCurveTest, StrideSkipsPoints) {
  const auto points = ComputeSizingCurve(SmallSpec(), /*stream_step=*/10);
  ASSERT_TRUE(points.ok());
  EXPECT_EQ(points->size(), 6u);  // n = 1, 11, 21, 31, 41, 51
  EXPECT_EQ((*points)[1].streams, 11);
}

TEST(MinimumBufferChoiceTest, MatchesExhaustiveScan) {
  const MovieSizingSpec spec = SmallSpec();
  const auto choice = MinimumBufferChoice(spec);
  ASSERT_TRUE(choice.ok()) << choice.status();
  const auto curve = ComputeSizingCurve(spec);
  ASSERT_TRUE(curve.ok());
  int best_n = 0;
  for (const auto& p : *curve) {
    if (p.feasible) best_n = std::max(best_n, p.streams);
  }
  EXPECT_EQ(choice->streams, best_n);
  EXPECT_TRUE(choice->feasible);
  EXPECT_GE(choice->hit_probability, spec.min_hit_probability);
}

TEST(MinimumBufferChoiceTest, BoundaryIsTight) {
  // One more stream than the choice must violate P*.
  const MovieSizingSpec spec = SmallSpec();
  const auto choice = MinimumBufferChoice(spec);
  ASSERT_TRUE(choice.ok());
  const auto curve = ComputeSizingCurve(spec);
  ASSERT_TRUE(curve.ok());
  for (const auto& p : *curve) {
    if (p.streams == choice->streams + 1) {
      EXPECT_FALSE(p.feasible);
    }
  }
}

TEST(MinimumBufferChoiceTest, InfeasibleTargetReported) {
  MovieSizingSpec spec = SmallSpec();
  spec.min_hit_probability = 0.999999;  // unreachable even with n = 1
  EXPECT_TRUE(MinimumBufferChoice(spec).status().IsInfeasible());
}

TEST(MinimumBufferChoiceTest, TrivialTargetGetsMaxStreams) {
  MovieSizingSpec spec = SmallSpec();
  spec.min_hit_probability = 0.0;
  const auto choice = MinimumBufferChoice(spec);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice->streams, 60);  // pure batching allowed
  EXPECT_NEAR(choice->buffer_minutes, 0.0, 1e-9);
}

TEST(AllocateStreamBudgetTest, AmpleBudgetGivesEveryMovieItsMax) {
  std::vector<MovieAllocationBound> bounds = {
      {"a", 60.0, 1.0, 30},
      {"b", 90.0, 0.5, 100},
  };
  const auto result = AllocateStreamBudget(bounds, 1000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_streams, 130);
  EXPECT_EQ(result->movies[0].streams, 30);
  EXPECT_EQ(result->movies[1].streams, 100);
  EXPECT_NEAR(result->total_buffer_minutes, (60.0 - 30.0) + (90.0 - 50.0),
              1e-9);
}

TEST(AllocateStreamBudgetTest, TightBudgetFavorsLargeWaitMovies) {
  // Each stream given to a movie saves w_i buffer minutes; the greedy must
  // prefer the movie with the larger w.
  std::vector<MovieAllocationBound> bounds = {
      {"small-w", 60.0, 0.1, 50},
      {"large-w", 60.0, 2.0, 20},
  };
  const auto result = AllocateStreamBudget(bounds, 12);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_streams, 12);
  EXPECT_EQ(result->movies[1].streams, 11);  // large-w filled first
  EXPECT_EQ(result->movies[0].streams, 1);
}

TEST(AllocateStreamBudgetTest, GreedyIsOptimalOnSmallInstances) {
  // Brute-force all allocations for 3 movies and compare total buffer.
  std::vector<MovieAllocationBound> bounds = {
      {"a", 50.0, 0.7, 6},
      {"b", 70.0, 1.3, 5},
      {"c", 40.0, 0.2, 8},
  };
  const int budget = 11;
  double best = 1e18;
  for (int na = 1; na <= 6; ++na) {
    for (int nb = 1; nb <= 5; ++nb) {
      for (int nc = 1; nc <= 8; ++nc) {
        if (na + nb + nc > budget) continue;
        const double total = (50.0 - na * 0.7) + (70.0 - nb * 1.3) +
                             (40.0 - nc * 0.2);
        best = std::min(best, total);
      }
    }
  }
  const auto result = AllocateStreamBudget(bounds, budget);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_buffer_minutes, best, 1e-9);
}

TEST(AllocateStreamBudgetTest, BudgetBelowMovieCountInfeasible) {
  std::vector<MovieAllocationBound> bounds = {
      {"a", 60.0, 1.0, 10},
      {"b", 60.0, 1.0, 10},
      {"c", 60.0, 1.0, 10},
  };
  EXPECT_TRUE(AllocateStreamBudget(bounds, 2).status().IsInfeasible());
}

TEST(AllocateStreamBudgetTest, RejectsEmptyAndInvalidBounds) {
  EXPECT_TRUE(AllocateStreamBudget({}, 10).status().IsInvalidArgument());
  std::vector<MovieAllocationBound> bad = {{"a", 60.0, 1.0, 0}};
  EXPECT_TRUE(AllocateStreamBudget(bad, 10).status().IsInvalidArgument());
}

TEST(PureBatchingStreamsTest, PaperExampleOneBaseline) {
  // 75/0.1 + 60/0.5 + 90/0.25 = 750 + 120 + 360 = 1230 streams.
  const auto movies = paper::Example1Movies();
  EXPECT_EQ(PureBatchingStreams(movies), 1230);
}

TEST(SizeSystemTest, RespectsStreamBudget) {
  std::vector<MovieSizingSpec> movies = {SmallSpec()};
  movies[0].min_hit_probability = 0.4;
  const auto unconstrained = SizeSystem(movies, 10000);
  ASSERT_TRUE(unconstrained.ok()) << unconstrained.status();
  const auto constrained = SizeSystem(movies, 5);
  ASSERT_TRUE(constrained.ok());
  EXPECT_LE(constrained->total_streams, 5);
  EXPECT_GE(constrained->total_buffer_minutes,
            unconstrained->total_buffer_minutes);
}

TEST(SizeSystemTest, BufferBudgetEnforced) {
  std::vector<MovieSizingSpec> movies = {SmallSpec()};
  const auto sized = SizeSystem(movies, 10000);
  ASSERT_TRUE(sized.ok());
  // A budget below the minimum required buffer is infeasible.
  EXPECT_TRUE(SizeSystem(movies, 10000,
                         sized->total_buffer_minutes * 0.5)
                  .status()
                  .IsInfeasible());
  // A budget above it succeeds.
  EXPECT_TRUE(
      SizeSystem(movies, 10000, sized->total_buffer_minutes + 1.0).ok());
}

TEST(SizingTest, PositionDensityPlumbsThrough) {
  // An abandonment-skewed position density changes the per-op geometry and
  // therefore the minimum-buffer choice for an FF-only movie.
  MovieSizingSpec spec = SmallSpec();
  const auto uniform = MinimumBufferChoice(spec);
  ASSERT_TRUE(uniform.ok());

  AnalyticHitModel::Options options;
  options.position_density = std::make_shared<TruncatedDistribution>(
      std::make_shared<ExponentialDistribution>(15.0), 0.0,
      spec.length_minutes);
  const auto skewed = MinimumBufferChoice(spec, options);
  ASSERT_TRUE(skewed.ok());
  // Early-position FF viewers see fewer end-releases, so P(hit|FF) drops
  // and the sizing must keep more buffer (fewer streams).
  EXPECT_LT(skewed->streams, uniform->streams);
  EXPECT_GT(skewed->buffer_minutes, uniform->buffer_minutes);
}

TEST(SizingCurveTest, SharedDistributionEqualsSeparateEqualObjects) {
  // AllSame compiles its one distribution once and shares the tables across
  // the three operations; three equal objects compile three times. The
  // curves must agree bit for bit.
  MovieSizingSpec shared = SmallSpec();
  shared.mix = VcrMix::PaperMixed();
  shared.durations =
      VcrDurations::AllSame(std::make_shared<GammaDistribution>(2.0, 4.0));
  MovieSizingSpec separate = shared;
  separate.durations = VcrDurations{
      std::make_shared<GammaDistribution>(2.0, 4.0),
      std::make_shared<GammaDistribution>(2.0, 4.0),
      std::make_shared<GammaDistribution>(2.0, 4.0)};
  const auto a = ComputeSizingCurve(shared, /*stream_step=*/3);
  const auto b = ComputeSizingCurve(separate, /*stream_step=*/3);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].hit_probability, (*b)[i].hit_probability)
        << "n=" << (*a)[i].streams;
  }
}

TEST(SizeSystemTest, EmptyMovieListRejected) {
  EXPECT_TRUE(SizeSystem({}, 100).status().IsInvalidArgument());
}

}  // namespace
}  // namespace vod
