#include "workload/catalog.h"

#include <gtest/gtest.h>

#include "workload/paper_presets.h"

namespace vod {
namespace {

Catalog MakeCatalog() {
  std::vector<MovieEntry> movies(3);
  movies[0].title = "blockbuster";
  movies[1].title = "drama";
  movies[2].title = "documentary";
  for (auto& m : movies) {
    m.behavior = paper::Fig7MixedBehavior();
  }
  auto catalog = Catalog::Create(std::move(movies), 1.0, 0.5);
  EXPECT_TRUE(catalog.ok());
  return *catalog;
}

TEST(CatalogTest, ArrivalRatesSplitByPopularity) {
  const Catalog catalog = MakeCatalog();
  double total = 0.0;
  for (int rank = 1; rank <= 3; ++rank) total += catalog.ArrivalRate(rank);
  EXPECT_NEAR(total, 0.5, 1e-12);
  EXPECT_GT(catalog.ArrivalRate(1), catalog.ArrivalRate(2));
  EXPECT_GT(catalog.ArrivalRate(2), catalog.ArrivalRate(3));
}

TEST(CatalogTest, RankAccessorsMatchInsertionOrder) {
  const Catalog catalog = MakeCatalog();
  EXPECT_EQ(catalog.size(), 3u);
  EXPECT_EQ(catalog.movie(1).title, "blockbuster");
  EXPECT_EQ(catalog.movie(3).title, "documentary");
}

TEST(CatalogTest, SamplingUsesZipf) {
  const Catalog catalog = MakeCatalog();
  Rng rng(9);
  int top = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (catalog.SampleRank(&rng) == 1) ++top;
  }
  // Zipf(1) over 3 items: P(1) = 1/(1 + 1/2 + 1/3) ≈ 0.545.
  EXPECT_NEAR(static_cast<double>(top) / trials, 6.0 / 11.0, 0.02);
}

TEST(CatalogTest, RejectsBadInputs) {
  EXPECT_TRUE(Catalog::Create({}, 1.0, 0.5).status().IsInvalidArgument());
  std::vector<MovieEntry> movies(1);
  movies[0].title = "x";
  movies[0].length_minutes = 0.0;
  EXPECT_TRUE(
      Catalog::Create(movies, 1.0, 0.5).status().IsInvalidArgument());
  movies[0].length_minutes = 90.0;
  EXPECT_TRUE(
      Catalog::Create(movies, 1.0, 0.0).status().IsInvalidArgument());
}

TEST(CatalogTest, FromCsvParsesEntries) {
  std::istringstream csv(
      "title,length,max_wait,min_hit_probability,p_ff,p_rw,p_pau,"
      "duration,interactivity\n"
      "blockbuster,120,0.5,0.6,0.2,0.2,0.6,gamma(2,4),exp(20)\n"
      "drama,95,1.0,0.5,1.0,0,0,exp(5),exp(30)\n"
      "ambient,60,2.0,0.0,0,0,0,det(0),det(0)\n");
  const auto catalog = Catalog::FromCsv(csv, 1.0, 2.0);
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  ASSERT_EQ(catalog->size(), 3u);

  const MovieEntry& top = catalog->movie(1);
  EXPECT_EQ(top.title, "blockbuster");
  EXPECT_DOUBLE_EQ(top.length_minutes, 120.0);
  EXPECT_DOUBLE_EQ(top.max_wait_minutes, 0.5);
  EXPECT_DOUBLE_EQ(top.min_hit_probability, 0.6);
  EXPECT_DOUBLE_EQ(top.behavior.mix.p_pause, 0.6);
  EXPECT_TRUE(top.behavior.Validate().ok());
  EXPECT_DOUBLE_EQ(top.behavior.durations.fast_forward->Mean(), 8.0);

  const MovieEntry& drama = catalog->movie(2);
  EXPECT_DOUBLE_EQ(drama.behavior.mix.p_fast_forward, 1.0);
  EXPECT_DOUBLE_EQ(drama.behavior.durations.fast_forward->Mean(), 5.0);

  // A zero mix makes the title passive regardless of the spec columns.
  EXPECT_TRUE(catalog->movie(3).behavior.passive());
}

TEST(CatalogTest, FromCsvRejectsMalformedInput) {
  {
    std::istringstream csv("wrong,header\n");
    EXPECT_TRUE(Catalog::FromCsv(csv, 1.0, 1.0).status().IsInvalidArgument());
  }
  {
    std::istringstream csv(
        "title,length,max_wait,min_hit_probability,p_ff,p_rw,p_pau,"
        "duration,interactivity\n"
        "x,120,0.5,0.5,0.2,0.2\n");  // too few fields
    EXPECT_TRUE(Catalog::FromCsv(csv, 1.0, 1.0).status().IsInvalidArgument());
  }
  {
    std::istringstream csv(
        "title,length,max_wait,min_hit_probability,p_ff,p_rw,p_pau,"
        "duration,interactivity\n"
        "x,120,0.5,0.5,0.9,0.9,0.9,exp(5),exp(20)\n");  // mix sums to 2.7
    EXPECT_TRUE(Catalog::FromCsv(csv, 1.0, 1.0).status().IsInvalidArgument());
  }
  {
    std::istringstream csv(
        "title,length,max_wait,min_hit_probability,p_ff,p_rw,p_pau,"
        "duration,interactivity\n"
        "x,120,0.5,0.5,1,0,0,bogus(1),exp(20)\n");
    EXPECT_TRUE(Catalog::FromCsv(csv, 1.0, 1.0).status().IsInvalidArgument());
  }
  // Numbers the shared parser refuses. The NaN gamma shape must be refused
  // before GammaDistribution's constructor check aborts the process.
  for (const char* row : {"x,120,0.5,0.5,1,0,0,gamma(nan,4),exp(20)",
                          "x,inf,0.5,0.5,1,0,0,exp(5),exp(20)",
                          "x,120,0x1p-1,0.5,1,0,0,exp(5),exp(20)"}) {
    std::istringstream csv(
        "title,length,max_wait,min_hit_probability,p_ff,p_rw,p_pau,"
        "duration,interactivity\n" + std::string(row) + "\n");
    const Status status = Catalog::FromCsv(csv, 1.0, 1.0).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << row;
    EXPECT_NE(status.message().find("line 2"), std::string::npos) << status;
  }
}

TEST(CatalogTest, SyntheticCatalogShape) {
  const auto catalog =
      Catalog::Synthetic(10, 1.0, 2.0, paper::Fig7MixedBehavior());
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ(catalog->size(), 10u);
  EXPECT_EQ(catalog->movie(1).title, "movie-1");
  EXPECT_DOUBLE_EQ(catalog->movie(1).length_minutes, 90.0);
  EXPECT_DOUBLE_EQ(catalog->movie(3).length_minutes, 120.0);  // cycles
  EXPECT_DOUBLE_EQ(catalog->total_arrivals_per_minute(), 2.0);
  const int popular = catalog->PopularSetSize(0.7);
  EXPECT_GE(popular, 1);
  EXPECT_LE(popular, 10);
}

}  // namespace
}  // namespace vod
