#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/summary.h"

namespace vod {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ZeroSeedIsValid) {
  Rng rng(0);
  // xoshiro would be degenerate with all-zero state; the SplitMix64 seeding
  // must avoid that.
  uint64_t x = 0;
  for (int i = 0; i < 16; ++i) x |= rng.NextUint64();
  EXPECT_NE(x, 0u);
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.Uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, Uniform01MeanAndVariance) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Uniform01());
  EXPECT_NEAR(stats.mean(), 0.5, 0.005);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.003);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntUnbiasedSmallBound) {
  Rng rng(17);
  std::vector<int> counts(5, 0);
  const int trials = 250000;
  for (int i = 0; i < trials; ++i) counts[rng.UniformInt(5)]++;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.2, 0.01);
  }
}

TEST(RngTest, UniformIntStaysBelowBound) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(rng.UniformInt(7), 7u);
  }
  // bound 1 must always return 0.
  for (int i = 0; i < 100; ++i) ASSERT_EQ(rng.UniformInt(1), 0u);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Exponential(4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.05);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(RngTest, NormalMoments) {
  Rng rng(29);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0, 0.02);
}

TEST(RngTest, GammaMomentsShapeAboveOne) {
  Rng rng(31);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Gamma(2.0, 4.0));
  EXPECT_NEAR(stats.mean(), 8.0, 0.1);        // kθ
  EXPECT_NEAR(stats.variance(), 32.0, 1.0);   // kθ²
}

TEST(RngTest, GammaMomentsShapeBelowOne) {
  Rng rng(37);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Gamma(0.5, 2.0));
  EXPECT_NEAR(stats.mean(), 1.0, 0.03);
  EXPECT_NEAR(stats.variance(), 2.0, 0.15);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(41);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
  }
}

TEST(RngTest, ChildStreamsAreDeterministic) {
  Rng parent(99);
  Rng c1 = parent.MakeChild(2, 7);
  Rng c2 = parent.MakeChild(2, 7);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(c1.NextUint64(), c2.NextUint64());
}

TEST(RngTest, ChildStreamsDecorrelatedAcrossIndices) {
  Rng parent(99);
  Rng c1 = parent.MakeChild(2, 7);
  Rng c2 = parent.MakeChild(2, 8);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (c1.NextUint64() == c2.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ChildStreamsDecorrelatedAcrossClasses) {
  Rng parent(99);
  Rng c1 = parent.MakeChild(1, 7);
  Rng c2 = parent.MakeChild(2, 7);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (c1.NextUint64() == c2.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ChildDerivationDoesNotAdvanceParent) {
  Rng parent(5);
  Rng probe(5);
  (void)parent.MakeChild(3, 3);
  EXPECT_EQ(parent.NextUint64(), probe.NextUint64());
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~0ULL);
  Rng rng(1);
  EXPECT_NE(rng(), rng());
}

TEST(SplitMix64Test, KnownSequenceAdvances) {
  SplitMix64 mixer(0);
  const uint64_t a = mixer.Next();
  const uint64_t b = mixer.Next();
  EXPECT_NE(a, b);
  SplitMix64 again(0);
  EXPECT_EQ(again.Next(), a);
}

}  // namespace
}  // namespace vod
