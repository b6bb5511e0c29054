// Differential determinism wall for the sharded server (sim/sharded_server.h).
//
// The tentpole guarantee: one configuration produces ONE answer — byte for
// byte — no matter how the movies are sharded or how many worker threads
// drive the shards. These tests run the full machine (disk faults, the
// reallocation controller, the paranoid cross-shard auditor all enabled at
// once) across shards ∈ {1, 2, 3, 8} × threads ∈ {1, 4} and multiple seeds,
// and diff the complete rendered report against the 1-shard/1-thread golden
// text. Any divergence — a ledger read or write in shard order instead of
// global movie order, a credit grant that depends on shard-local iteration
// order, an RNG stream keyed by shard index instead of global movie index —
// shows up as a byte diff here.
//
// Labelled `sharded` so the TSAN CI leg exercises the real multi-threaded
// barrier protocol, not just single-threaded unit tests.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "gtest/gtest.h"
#include "sim/arrival_process.h"
#include "sim/sharded_server.h"
#include "workload/paper_presets.h"

namespace vod {
namespace {

PartitionLayout MakeLayout(double l, int n, double b) {
  auto layout = PartitionLayout::FromBuffer(l, n, b);
  VOD_CHECK(layout.ok());
  return *layout;
}

/// Six movies with distinct layouts, rates, and VCR behaviors, so the
/// partition of movies across shards is different for every shard count
/// (6 movies over 1/2/3/8 shards: 8 shards leaves two shards empty —
/// deliberately, the protocol must tolerate movie-less shards).
std::vector<ServerMovieSpec> SixMovies() {
  std::vector<ServerMovieSpec> movies;
  movies.push_back({"alpha", MakeLayout(120.0, 40, 80.0), 0.6, nullptr,
                    paper::Fig7MixedBehavior()});
  movies.push_back({"beta", MakeLayout(90.0, 30, 45.0), 0.3, nullptr,
                    paper::Fig7SingleOpBehavior(VcrOp::kFastForward)});
  movies.push_back({"gamma", MakeLayout(100.0, 20, 50.0), 0.45, nullptr,
                    paper::Fig7MixedBehavior()});
  movies.push_back({"delta", MakeLayout(110.0, 25, 60.0), 0.35, nullptr,
                    paper::Fig7MixedBehavior()});
  movies.push_back({"epsilon", MakeLayout(80.0, 16, 32.0), 0.2, nullptr,
                    paper::Fig7SingleOpBehavior(VcrOp::kPause)});
  movies.push_back({"zeta", MakeLayout(130.0, 36, 72.0), 0.5, nullptr,
                    paper::Fig7MixedBehavior()});
  // A flash crowd on alpha drives the controller to re-plan, so the wall
  // also covers layout commits landing on the worlds at barriers.
  auto flash = FlashArrivals::Create(0.6, 4.0, 600.0, 900.0);
  VOD_CHECK(flash.ok());
  movies[0].arrivals = std::make_shared<FlashArrivals>(*flash);
  return movies;
}

/// Everything on at once: scarce reserve (credits bind), disk faults
/// (capacity moves, debts get assigned), the reallocation controller
/// (layout commits land on the worlds at barriers), and the paranoid
/// auditor (every barrier checks the serial stream laws and the cross-shard
/// ledger as the shards left it).
ShardedServerOptions FullMachineOptions(int shards, int threads,
                                        uint64_t seed) {
  ShardedServerOptions options;
  options.base.rates = paper::Rates();
  options.base.dynamic_stream_reserve = 40;
  options.base.warmup_minutes = 300.0;
  options.base.measurement_minutes = 2500.0;
  options.base.seed = seed;
  options.base.faults.enabled = true;
  options.base.faults.disks = 8;
  options.base.faults.profile.mtbf_minutes = 500.0;
  options.base.faults.profile.mttr_minutes = 90.0;
  options.base.controller.enabled = true;
  options.base.audit.enabled = true;
  options.base.audit.every_events = 1;
  options.shards = shards;
  options.threads = threads;
  options.window_minutes = 40.0;
  return options;
}

TEST(ShardedDeterminismTest, ByteIdenticalAcrossShardAndThreadCounts) {
  const auto movies = SixMovies();
  for (uint64_t seed : {11u, 29u}) {
    const auto golden =
        RunShardedServerSimulation(movies, FullMachineOptions(1, 1, seed));
    ASSERT_TRUE(golden.ok()) << golden.status().message();
    const std::string golden_text = golden->ToString();
    EXPECT_TRUE(golden->complete);
    for (int shards : {2, 3, 8}) {
      for (int threads : {1, 4}) {
        const auto got = RunShardedServerSimulation(
            movies, FullMachineOptions(shards, threads, seed));
        ASSERT_TRUE(got.ok()) << "seed=" << seed << " shards=" << shards
                              << " threads=" << threads << ": "
                              << got.status().message();
        EXPECT_EQ(got->ToString(), golden_text)
            << "seed=" << seed << " shards=" << shards
            << " threads=" << threads;
      }
    }
  }
}

TEST(ShardedDeterminismTest, RepeatedRunIsBitStable) {
  // Same configuration, run twice with the full machine on: the report and
  // the barrier-ledger digest must both repeat exactly.
  const auto movies = SixMovies();
  const auto a =
      RunShardedServerSimulation(movies, FullMachineOptions(3, 4, 47));
  const auto b =
      RunShardedServerSimulation(movies, FullMachineOptions(3, 4, 47));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ToString(), b->ToString());
  EXPECT_EQ(a->ledger_digest, b->ledger_digest);
  EXPECT_EQ(a->executed_events, b->executed_events);
}

TEST(ShardedDeterminismTest, SeedsProduceDifferentRuns) {
  // Sanity guard on the wall itself: if ToString() collapsed to constants,
  // every comparison above would pass vacuously.
  const auto movies = SixMovies();
  const auto a =
      RunShardedServerSimulation(movies, FullMachineOptions(2, 2, 11));
  const auto b =
      RunShardedServerSimulation(movies, FullMachineOptions(2, 2, 29));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->ToString(), b->ToString());
  EXPECT_NE(a->ledger_digest, b->ledger_digest);
}

/// The full machine plus the windowed degradation ladder: scarce reserve,
/// hard faults pushing capacity through the shed/batching thresholds, the
/// controller, the paranoid auditor (now also the ladder-level-range /
/// -continuity laws on the windowed rung and the shard-ladder-reclaim /
/// -queue laws on the shards' accounting), and the ladder deciding rungs
/// and reclaim quotas at every barrier.
ShardedServerOptions LadderMachineOptions(int shards, int threads,
                                          uint64_t seed) {
  ShardedServerOptions options = FullMachineOptions(shards, threads, seed);
  options.base.dynamic_stream_reserve = 24;
  options.base.degradation.enabled = true;
  options.base.degradation.queue_deadline_minutes = 5.0;
  return options;
}

TEST(ShardedDeterminismTest, LadderByteIdenticalAcrossShardAndThreadCounts) {
  const auto movies = SixMovies();
  for (uint64_t seed : {11u, 29u}) {
    const auto golden =
        RunShardedServerSimulation(movies, LadderMachineOptions(1, 1, seed));
    ASSERT_TRUE(golden.ok()) << golden.status().message();
    const std::string golden_text = golden->ToString();
    // The wall is only meaningful if the ladder actually walks: rungs must
    // move under this fault regime.
    ASSERT_GT(golden->server.resilience.total_transitions, 0)
        << "seed=" << seed << ": the ladder never engaged";
    for (int shards : {2, 3, 8}) {
      for (int threads : {1, 4}) {
        const auto got = RunShardedServerSimulation(
            movies, LadderMachineOptions(shards, threads, seed));
        ASSERT_TRUE(got.ok()) << "seed=" << seed << " shards=" << shards
                              << " threads=" << threads << ": "
                              << got.status().message();
        EXPECT_EQ(got->ToString(), golden_text)
            << "seed=" << seed << " shards=" << shards
            << " threads=" << threads;
      }
    }
  }
}

TEST(ShardedDeterminismTest, LadderRepeatedRunIsBitStable) {
  const auto movies = SixMovies();
  const auto a =
      RunShardedServerSimulation(movies, LadderMachineOptions(3, 4, 47));
  const auto b =
      RunShardedServerSimulation(movies, LadderMachineOptions(3, 4, 47));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ToString(), b->ToString());
  EXPECT_EQ(a->ledger_digest, b->ledger_digest);
}

TEST(ShardedDeterminismTest, LadderChangesTheDigestChain) {
  // The rung decisions fold into the ledger digest: the same run with and
  // without the ladder must not share a trajectory fingerprint (otherwise
  // a checkpoint could silently resume across the semantic change).
  const auto movies = SixMovies();
  const auto off =
      RunShardedServerSimulation(movies, FullMachineOptions(2, 2, 11));
  const auto on =
      RunShardedServerSimulation(movies, LadderMachineOptions(2, 2, 11));
  ASSERT_TRUE(off.ok() && on.ok());
  EXPECT_NE(off->ledger_digest, on->ledger_digest);
}

TEST(ShardedDeterminismTest, WindowedLadderTracksLegacyPerEventLadder) {
  // The semantic delta vs. the single-server per-event ladder, pinned
  // down: the windowed ladder sees pressure only at barriers, so its
  // decisions lag live pressure by at most one window — but both ladders
  // must walk under the same fault regime, close the same queue
  // accounting identity, and the windowed rungs may only move at barrier
  // times. (EXPERIMENTS.md quantifies the dwell-time deltas.)
  const auto movies = SixMovies();
  ShardedServerOptions windowed = LadderMachineOptions(1, 1, 11);
  windowed.base.controller.enabled = false;  // isolate the two ladders
  ServerOptions legacy = windowed.base;
  const auto legacy_report = RunServerSimulation(movies, legacy);
  const auto windowed_report = RunShardedServerSimulation(movies, windowed);
  ASSERT_TRUE(legacy_report.ok()) << legacy_report.status().message();
  ASSERT_TRUE(windowed_report.ok()) << windowed_report.status().message();

  const ResilienceReport& per_event = legacy_report->resilience;
  const ResilienceReport& per_window = windowed_report->server.resilience;
  EXPECT_GT(per_event.total_transitions, 0);
  EXPECT_GT(per_window.total_transitions, 0);
  EXPECT_EQ(per_window.vcr_queued,
            per_window.vcr_queue_grants + per_window.vcr_queue_expirations +
                per_window.vcr_queue_pending);
  // Windowed decisions happen at barriers only: every recorded transition
  // time is an exact multiple of window_minutes.
  for (const DegradationTransition& tr : per_window.transitions) {
    const double windows = tr.time / windowed.window_minutes;
    EXPECT_DOUBLE_EQ(windows, std::floor(windows + 0.5))
        << "transition at t=" << tr.time
        << " is not on a window barrier";
  }
  // Both ladders must agree on the gross picture: time spent above normal
  // within the same horizon (the windowed ladder quantizes dwells to
  // windows, so agreement is coarse, not exact).
  const auto above_normal = [](const ResilienceReport& rz) {
    double total = 0.0;
    for (int level = 1; level < kNumDegradationLevels; ++level) {
      total += rz.time_in_level[level];
    }
    return total;
  };
  EXPECT_GT(above_normal(per_event), 0.0);
  EXPECT_GT(above_normal(per_window), 0.0);
}

TEST(ShardedDeterminismTest, FaultsAndControllerActuallyEngaged) {
  // The wall is only as strong as the machinery it exercises: prove the
  // fault schedule fired and the controller committed re-plans under this
  // workload.
  const auto report = RunShardedServerSimulation(
      SixMovies(), FullMachineOptions(3, 2, 11));
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->server.resilience_enabled);
  EXPECT_GT(report->server.resilience.disk_failures, 0);
  EXPECT_TRUE(report->server.controller_enabled);
  EXPECT_GT(report->server.controller.migrations_committed, 0);
}

}  // namespace
}  // namespace vod
