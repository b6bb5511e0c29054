// Checkpoint/resume round-trips for the sharded server (sim/sharded_server.h).
//
// The sharded checkpoint is replay-verify: a tiny snapshot (config
// fingerprint, shard count, windows completed, barrier-ledger digest) is
// written at window barriers; a resume re-runs the simulation from t=0 and
// proves, at the checkpointed window, that the replay's digest chain matches
// what the crashed run observed — byte-identical or loud failure, never a
// silent fork. `stop_after_windows` emulates a SIGKILL between barriers
// in-process (the vodctl soak --shards leg kills a real process at a random
// point; this suite pins the protocol down deterministically).

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/check.h"
#include "gtest/gtest.h"
#include "sim/sharded_server.h"
#include "workload/paper_presets.h"

namespace vod {
namespace {

/// Self-cleaning checkpoint path in the test's working directory.
class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_("sharded_ckpt_test_" + name + ".ckpt") {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  ~TempPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

PartitionLayout MakeLayout(double l, int n, double b) {
  auto layout = PartitionLayout::FromBuffer(l, n, b);
  VOD_CHECK(layout.ok());
  return *layout;
}

std::vector<ServerMovieSpec> FourMovies() {
  std::vector<ServerMovieSpec> movies;
  movies.push_back({"alpha", MakeLayout(120.0, 40, 80.0), 0.5, nullptr,
                    paper::Fig7MixedBehavior()});
  movies.push_back({"beta", MakeLayout(90.0, 30, 45.0), 0.25, nullptr,
                    paper::Fig7SingleOpBehavior(VcrOp::kFastForward)});
  movies.push_back({"gamma", MakeLayout(100.0, 20, 50.0), 0.4, nullptr,
                    paper::Fig7MixedBehavior()});
  movies.push_back({"delta", MakeLayout(110.0, 25, 60.0), 0.3, nullptr,
                    paper::Fig7MixedBehavior()});
  return movies;
}

ShardedServerOptions BaseOptions(int shards, int threads) {
  ShardedServerOptions options;
  options.base.rates = paper::Rates();
  options.base.dynamic_stream_reserve = 40;
  options.base.warmup_minutes = 300.0;
  options.base.measurement_minutes = 2500.0;
  options.base.seed = 23;
  options.base.faults.enabled = true;
  options.base.faults.disks = 6;
  options.base.faults.profile.mtbf_minutes = 500.0;
  options.base.faults.profile.mttr_minutes = 90.0;
  options.base.audit.enabled = true;
  options.shards = shards;
  options.threads = threads;
  options.window_minutes = 40.0;
  return options;
}

TEST(ShardedCheckpointTest, CrashMidRunThenResumeIsByteIdentical) {
  const auto movies = FourMovies();
  // Golden: the same configuration straight through, no checkpointing.
  const auto golden = RunShardedServerSimulation(movies, BaseOptions(3, 2));
  ASSERT_TRUE(golden.ok()) << golden.status().message();

  TempPath path("resume");
  auto crashed = BaseOptions(3, 2);
  crashed.checkpoint.path = path.str();
  crashed.checkpoint.every_windows = 4;
  crashed.checkpoint.stop_after_windows = 17;  // not a checkpoint multiple
  const auto partial = RunShardedServerSimulation(movies, crashed);
  ASSERT_TRUE(partial.ok()) << partial.status().message();
  EXPECT_FALSE(partial->complete);
  EXPECT_EQ(partial->windows, 17);

  auto resumed_options = BaseOptions(3, 2);
  resumed_options.checkpoint.path = path.str();
  resumed_options.checkpoint.every_windows = 4;
  resumed_options.checkpoint.resume = true;
  const auto resumed = RunShardedServerSimulation(movies, resumed_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_TRUE(resumed->complete);
  EXPECT_EQ(resumed->ToString(), golden->ToString());
  EXPECT_EQ(resumed->ledger_digest, golden->ledger_digest);
}

TEST(ShardedCheckpointTest, ResumeVerifiesEvenAtExactCheckpointBoundary) {
  const auto movies = FourMovies();
  TempPath path("boundary");
  auto crashed = BaseOptions(2, 1);
  crashed.checkpoint.path = path.str();
  crashed.checkpoint.every_windows = 5;
  crashed.checkpoint.stop_after_windows = 10;  // dies exactly at a barrier
  const auto partial = RunShardedServerSimulation(movies, crashed);
  ASSERT_TRUE(partial.ok()) << partial.status().message();
  ASSERT_FALSE(partial->complete);

  auto resumed_options = BaseOptions(2, 1);
  resumed_options.checkpoint.path = path.str();
  resumed_options.checkpoint.resume = true;
  const auto resumed = RunShardedServerSimulation(movies, resumed_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_TRUE(resumed->complete);

  const auto golden = RunShardedServerSimulation(movies, BaseOptions(2, 1));
  ASSERT_TRUE(golden.ok());
  EXPECT_EQ(resumed->ToString(), golden->ToString());
}

TEST(ShardedCheckpointTest, LadderCrashMidDegradationResumesByteIdentical) {
  // The windowed ladder adds no checkpoint state — rungs, streaks, and
  // reclaim quotas are replayed from t=0 and cross-checked through the
  // digest chain (which folds the per-barrier ladder decision). A crash
  // while rungs are moving must resume to the golden bytes, resilience
  // block and all.
  const auto movies = FourMovies();
  auto ladder = BaseOptions(3, 2);
  ladder.base.dynamic_stream_reserve = 24;
  ladder.base.degradation.enabled = true;
  ladder.base.degradation.queue_deadline_minutes = 5.0;
  const auto golden = RunShardedServerSimulation(movies, ladder);
  ASSERT_TRUE(golden.ok()) << golden.status().message();
  ASSERT_GT(golden->server.resilience.total_transitions, 0)
      << "the ladder never engaged; the crash would not land mid-degradation";

  TempPath path("ladder");
  auto crashed = ladder;
  crashed.checkpoint.path = path.str();
  crashed.checkpoint.every_windows = 4;
  crashed.checkpoint.stop_after_windows = 17;
  const auto partial = RunShardedServerSimulation(movies, crashed);
  ASSERT_TRUE(partial.ok()) << partial.status().message();
  EXPECT_FALSE(partial->complete);

  auto resumed_options = ladder;
  resumed_options.checkpoint.path = path.str();
  resumed_options.checkpoint.every_windows = 4;
  resumed_options.checkpoint.resume = true;
  const auto resumed = RunShardedServerSimulation(movies, resumed_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_TRUE(resumed->complete);
  EXPECT_EQ(resumed->ToString(), golden->ToString());
  EXPECT_EQ(resumed->ledger_digest, golden->ledger_digest);
}

TEST(ShardedCheckpointTest, LadderPolicyChangeOnResumeIsRejected) {
  // The ladder's settings are part of the config fingerprint: resuming a
  // ladder-armed checkpoint with a different queue deadline (or with the
  // ladder off) would silently change the trajectory, so it must refuse.
  const auto movies = FourMovies();
  TempPath path("ladder_policy");
  auto crashed = BaseOptions(2, 1);
  crashed.base.degradation.enabled = true;
  crashed.base.degradation.queue_deadline_minutes = 5.0;
  crashed.checkpoint.path = path.str();
  crashed.checkpoint.every_windows = 4;
  crashed.checkpoint.stop_after_windows = 8;
  ASSERT_TRUE(RunShardedServerSimulation(movies, crashed).ok());

  auto retuned = crashed;
  retuned.checkpoint.stop_after_windows = 0;
  retuned.checkpoint.resume = true;
  retuned.base.degradation.queue_deadline_minutes = 6.0;
  const auto status = RunShardedServerSimulation(movies, retuned).status();
  ASSERT_TRUE(status.IsInvalidArgument()) << status.message();
  EXPECT_NE(status.message().find("fingerprint"), std::string::npos)
      << status.message();
}

TEST(ShardedCheckpointTest, ShardCountChangeOnResumeIsRejected) {
  const auto movies = FourMovies();
  TempPath path("reshard");
  auto crashed = BaseOptions(3, 2);
  crashed.checkpoint.path = path.str();
  crashed.checkpoint.every_windows = 4;
  crashed.checkpoint.stop_after_windows = 8;
  ASSERT_TRUE(RunShardedServerSimulation(movies, crashed).ok());

  auto resharded = BaseOptions(4, 2);  // 3 -> 4 shards across the resume
  resharded.checkpoint.path = path.str();
  resharded.checkpoint.resume = true;
  const auto status =
      RunShardedServerSimulation(movies, resharded).status();
  ASSERT_TRUE(status.IsInvalidArgument()) << status.message();
  EXPECT_NE(status.message().find("shard count"), std::string::npos)
      << status.message();
}

TEST(ShardedCheckpointTest, ForeignConfigurationOnResumeIsRejected) {
  const auto movies = FourMovies();
  TempPath path("foreign");
  auto crashed = BaseOptions(2, 1);
  crashed.checkpoint.path = path.str();
  crashed.checkpoint.every_windows = 4;
  crashed.checkpoint.stop_after_windows = 8;
  ASSERT_TRUE(RunShardedServerSimulation(movies, crashed).ok());

  auto reseeded = BaseOptions(2, 1);
  reseeded.base.seed = 999;  // different run entirely
  reseeded.checkpoint.path = path.str();
  reseeded.checkpoint.resume = true;
  const auto status =
      RunShardedServerSimulation(movies, reseeded).status();
  ASSERT_TRUE(status.IsInvalidArgument()) << status.message();
  EXPECT_NE(status.message().find("fingerprint"), std::string::npos)
      << status.message();
}

TEST(ShardedCheckpointTest, ResumeWithoutCheckpointFileRunsFresh) {
  const auto movies = FourMovies();
  TempPath path("fresh");
  auto options = BaseOptions(2, 1);
  options.checkpoint.path = path.str();
  options.checkpoint.resume = true;  // nothing on disk yet: fresh run
  const auto report = RunShardedServerSimulation(movies, options);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->complete);
  const auto golden = RunShardedServerSimulation(movies, BaseOptions(2, 1));
  ASSERT_TRUE(golden.ok());
  EXPECT_EQ(report->ToString(), golden->ToString());
}

TEST(ShardedCheckpointTest, ValidationRejectsBadCadence) {
  auto options = BaseOptions(2, 1);
  options.checkpoint.path = "x.ckpt";
  options.checkpoint.every_windows = 0;
  EXPECT_TRUE(RunShardedServerSimulation(FourMovies(), options)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace vod
