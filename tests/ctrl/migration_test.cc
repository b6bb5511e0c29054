#include "ctrl/migration.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "core/partition_layout.h"

namespace vod {
namespace {

PartitionLayout Layout(int streams, double buffer) {
  const auto layout = PartitionLayout::FromBuffer(120.0, streams, buffer);
  VOD_CHECK_OK(layout.status());
  return *layout;
}

// Scripted host: layouts are plain state, reclaim blocking is a switch the
// test flips, and every CommitLayout is journaled so rollback order is
// checkable.
class FakeHost final : public ControllerHost {
 public:
  explicit FakeHost(std::vector<PartitionLayout> layouts)
      : layouts_(std::move(layouts)) {}

  void CommitLayout(int32_t movie, double t,
                    const PartitionLayout& layout) override {
    layouts_[static_cast<size_t>(movie)] = layout;
    commits_.push_back({movie, t, layout});
  }
  const PartitionLayout& LiveLayout(int32_t movie) const override {
    return layouts_[static_cast<size_t>(movie)];
  }
  bool ReclaimBlocked() const override {
    return reclaim_blocked_ ||
           (block_after_commits_ >= 0 &&
            commits_.size() >= static_cast<size_t>(block_after_commits_));
  }

  void set_reclaim_blocked(bool blocked) { reclaim_blocked_ = blocked; }
  /// Degrade mid-flight: ReclaimBlocked turns true once `count` layouts
  /// have been committed.
  void block_after_commits(int count) { block_after_commits_ = count; }

  struct Commit {
    int32_t movie;
    double t;
    PartitionLayout layout;
  };
  const std::vector<Commit>& commits() const { return commits_; }

 private:
  std::vector<PartitionLayout> layouts_;
  std::vector<Commit> commits_;
  bool reclaim_blocked_ = false;
  int block_after_commits_ = -1;
};

// Pumps Advance until the engine goes idle or `deadline` passes; returns
// the final time.
double PumpUntilIdle(MigrationEngine* engine, FakeHost* host, double t,
                     double deadline = 1e6) {
  while (t < deadline) {
    const double next = engine->Advance(t, host);
    if (!engine->InFlight() && std::isinf(next)) return t;
    if (std::isinf(next)) return t;
    t = next;
  }
  return t;
}

TEST(BuildMigrationStepsTest, ReclaimsBeforeGrantsAndNoOpsDropped) {
  const std::vector<PartitionLayout> current = {
      Layout(10, 40.0), Layout(8, 30.0), Layout(6, 20.0)};
  const std::vector<PartitionLayout> target = {
      Layout(6, 20.0), Layout(8, 30.0), Layout(10, 40.0)};
  const auto steps = BuildMigrationSteps(current, target);
  // Movie 1 is unchanged: no step. Movie 0 shrinks, movie 2 grows.
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_TRUE(steps[0].reclaim);
  EXPECT_EQ(steps[0].movie, 0);
  EXPECT_FALSE(steps[1].reclaim);
  EXPECT_EQ(steps[1].movie, 2);
}

TEST(BuildMigrationStepsTest, MixedChangeDecomposesThroughIntermediate) {
  // Movie trades streams for buffer: shrink streams first (reclaim), then
  // grow buffer (grant), via (min(n), min(B)).
  const auto steps = BuildMigrationSteps({Layout(10, 20.0)},
                                         {Layout(6, 50.0)});
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_TRUE(steps[0].reclaim);
  EXPECT_EQ(steps[0].to.streams(), 6);
  EXPECT_DOUBLE_EQ(steps[0].to.buffer_minutes(), 20.0);
  EXPECT_FALSE(steps[1].reclaim);
  EXPECT_EQ(steps[1].to.streams(), 6);
  EXPECT_DOUBLE_EQ(steps[1].to.buffer_minutes(), 50.0);
}

TEST(MigrationEngineTest, CommitsAndConservesResources) {
  FakeHost host({Layout(10, 40.0), Layout(6, 20.0)});
  MigrationEngine engine(/*stream_budget=*/16,
                         /*buffer_budget=*/60.0, /*free_streams=*/0,
                         /*free_buffer=*/0.0, /*log=*/nullptr);
  auto steps = BuildMigrationSteps(
      {host.LiveLayout(0), host.LiveLayout(1)},
      {Layout(8, 30.0), Layout(8, 30.0)});
  ASSERT_TRUE(engine.Begin(0.0, std::move(steps), /*epoch=*/1));
  PumpUntilIdle(&engine, &host, 0.0);

  EXPECT_EQ(engine.last_outcome(), MigrationEngine::Outcome::kCommitted);
  EXPECT_EQ(host.LiveLayout(0).streams(), 8);
  EXPECT_EQ(host.LiveLayout(1).streams(), 8);
  EXPECT_EQ(engine.migrations_committed(), 1);
  // Conservation: everything granted came from the reclaim; nothing leaks.
  EXPECT_EQ(engine.free_streams() + engine.inflight_streams(), 0);
  EXPECT_NEAR(engine.free_buffer() + engine.inflight_buffer(), 0.0, 1e-9);
}

TEST(MigrationEngineTest, RefusesOverlappingMigrations) {
  FakeHost host({Layout(10, 40.0)});
  MigrationEngine engine(10, 40.0, 0, 0.0, nullptr);
  ASSERT_TRUE(engine.Begin(
      0.0, BuildMigrationSteps({Layout(10, 40.0)}, {Layout(8, 30.0)}), 1));
  EXPECT_FALSE(engine.Begin(
      0.0, BuildMigrationSteps({Layout(10, 40.0)}, {Layout(6, 20.0)}), 2));
  EXPECT_FALSE(engine.Begin(1.0, {}, 3));  // empty plans never start
}

TEST(MigrationEngineTest, BlockedReclaimBacksOffExponentiallyThenRollsBack) {
  FakeHost host({Layout(10, 40.0)});
  host.set_reclaim_blocked(true);
  MigrationEngine engine(10, 40.0, 0, 0.0, nullptr);
  ASSERT_TRUE(engine.Begin(
      0.0, BuildMigrationSteps({Layout(10, 40.0)}, {Layout(8, 30.0)}), 1));

  // Each blocked attempt arms a capped exponential backoff: 2, 4, 8, 16,
  // 30 (capped) — then the retry budget is spent and the engine rolls back.
  double t = 0.0;
  std::vector<double> delays;
  for (int attempt = 0; attempt < kMigrationMaxRetries; ++attempt) {
    const double next = engine.Advance(t, &host);
    ASSERT_TRUE(engine.InFlight());
    delays.push_back(next - t);
    t = next;
  }
  EXPECT_EQ(delays, (std::vector<double>{2.0, 4.0, 8.0, 16.0, 30.0}));
  EXPECT_EQ(engine.blocked_attempts(), kMigrationMaxRetries);

  engine.Advance(t, &host);  // retry budget exhausted -> rollback
  EXPECT_FALSE(engine.InFlight());
  EXPECT_EQ(engine.last_outcome(), MigrationEngine::Outcome::kRolledBack);
  EXPECT_EQ(engine.rollbacks(), 1);
  EXPECT_EQ(host.LiveLayout(0).streams(), 10);  // untouched
  EXPECT_DOUBLE_EQ(host.LiveLayout(0).buffer_minutes(), 40.0);

  // Cool-down: no new migration until it expires.
  EXPECT_GT(engine.cooldown_until(), t);
  EXPECT_FALSE(engine.Begin(
      t, BuildMigrationSteps({Layout(10, 40.0)}, {Layout(8, 30.0)}), 2));
  EXPECT_TRUE(engine.Begin(
      engine.cooldown_until(),
      BuildMigrationSteps({Layout(10, 40.0)}, {Layout(8, 30.0)}), 2));
}

TEST(MigrationEngineTest, MidMigrationFaultRollsBackAppliedStepsInReverse) {
  // Two reclaims; the first applies, then the host degrades (fault) before
  // the second can. Retry exhaustion must roll back the applied step —
  // restoring movie 0's original layout — and leak nothing.
  FakeHost host({Layout(10, 40.0), Layout(8, 30.0)});
  host.block_after_commits(1);  // the fault lands after the first commit
  MigrationEngine engine(18, 70.0, 0, 0.0, nullptr);
  ASSERT_TRUE(engine.Begin(
      0.0,
      BuildMigrationSteps({host.LiveLayout(0), host.LiveLayout(1)},
                          {Layout(6, 20.0), Layout(6, 20.0)}),
      1));
  double t = 0.0;
  while (engine.InFlight()) {
    const double next = engine.Advance(t, &host);
    if (std::isinf(next)) break;
    t = next;
  }
  EXPECT_FALSE(engine.InFlight());
  EXPECT_EQ(engine.last_outcome(), MigrationEngine::Outcome::kRolledBack);
  EXPECT_EQ(engine.steps_applied(), 1);

  // Every movie is back on its original layout...
  EXPECT_EQ(host.LiveLayout(0).streams(), 10);
  EXPECT_DOUBLE_EQ(host.LiveLayout(0).buffer_minutes(), 40.0);
  EXPECT_EQ(host.LiveLayout(1).streams(), 8);
  EXPECT_DOUBLE_EQ(host.LiveLayout(1).buffer_minutes(), 30.0);
  // ...the restoring commit is the last one and undoes the applied step.
  const auto& commits = host.commits();
  ASSERT_EQ(commits.size(), 2u);
  EXPECT_EQ(commits.back().movie, 0);
  EXPECT_EQ(commits.back().layout.streams(), 10);
  // Nothing may leak: after rollback the pool holds exactly the initial
  // free resources (zero here).
  EXPECT_EQ(engine.free_streams(), 0);
  EXPECT_EQ(engine.inflight_streams(), 0);
  EXPECT_NEAR(engine.free_buffer(), 0.0, 1e-9);
}

TEST(MigrationEngineTest, AbortMidFlightRollsBackImmediately) {
  FakeHost host({Layout(10, 40.0), Layout(6, 20.0)});
  MigrationEngine engine(16, 60.0, 0, 0.0, nullptr);
  ASSERT_TRUE(engine.Begin(
      0.0,
      BuildMigrationSteps({host.LiveLayout(0), host.LiveLayout(1)},
                          {Layout(8, 30.0), Layout(8, 30.0)}),
      1));
  engine.Advance(0.0, &host);  // reclaim applied, grant waiting on drain
  ASSERT_TRUE(engine.InFlight());
  engine.Abort(1.0, &host);  // capacity collapsed mid-flight
  EXPECT_FALSE(engine.InFlight());
  EXPECT_EQ(engine.last_outcome(), MigrationEngine::Outcome::kRolledBack);
  EXPECT_EQ(host.LiveLayout(0).streams(), 10);
  EXPECT_EQ(host.LiveLayout(1).streams(), 6);
  EXPECT_EQ(engine.free_streams(), 0);
  EXPECT_EQ(engine.inflight_streams(), 0);
}

TEST(MigrationEngineTest, AbortWhileIdleIsANoOp) {
  FakeHost host({Layout(10, 40.0)});
  MigrationEngine engine(10, 40.0, 0, 0.0, nullptr);
  engine.Abort(5.0, &host);
  EXPECT_EQ(engine.rollbacks(), 0);
  EXPECT_EQ(engine.last_outcome(), MigrationEngine::Outcome::kNone);
  EXPECT_TRUE(host.commits().empty());
}

TEST(MigrationEngineTest, GrantWaitsForReclaimDrainToLand) {
  // One reclaim funds one grant: the grant cannot apply until the freed
  // resources mature (one old enrollment window + slack).
  FakeHost host({Layout(10, 40.0), Layout(6, 20.0)});
  MigrationEngine engine(16, 60.0, 0, 0.0, nullptr);
  ASSERT_TRUE(engine.Begin(
      0.0,
      BuildMigrationSteps({host.LiveLayout(0), host.LiveLayout(1)},
                          {Layout(8, 30.0), Layout(8, 30.0)}),
      1));
  const double next = engine.Advance(0.0, &host);
  // The reclaim applied immediately; the grant is waiting on the drain.
  EXPECT_EQ(host.LiveLayout(0).streams(), 8);
  EXPECT_EQ(host.LiveLayout(1).streams(), 6);
  ASSERT_TRUE(std::isfinite(next));
  EXPECT_GT(next, 0.0);
  EXPECT_GT(engine.inflight_streams(), 0);
  PumpUntilIdle(&engine, &host, next);
  EXPECT_EQ(host.LiveLayout(1).streams(), 8);
  EXPECT_EQ(engine.last_outcome(), MigrationEngine::Outcome::kCommitted);
}

TEST(MigrationEngineTest, ReplanDuringDrainKeepsEarlierLandings) {
  // A reclaim-only migration commits at once, but its 30 freed minutes
  // drain into the pool one old window later. A re-plan that begins before
  // they land must keep them in flight, and rolling that re-plan back must
  // cancel only its own landing — both reclaims are step 0 of their plan.
  FakeHost host({Layout(10, 60.0), Layout(10, 60.0)});
  MigrationEngine engine(20, 120.0, 0, 0.0, nullptr);
  const auto buffer_total = [&host, &engine] {
    return host.LiveLayout(0).buffer_minutes() +
           host.LiveLayout(1).buffer_minutes() + engine.free_buffer() +
           engine.inflight_buffer();
  };
  ASSERT_TRUE(engine.Begin(
      0.0,
      BuildMigrationSteps({host.LiveLayout(0), host.LiveLayout(1)},
                          {Layout(10, 30.0), Layout(10, 60.0)}),
      1));
  const double landing = engine.Advance(0.0, &host);
  ASSERT_EQ(engine.last_outcome(), MigrationEngine::Outcome::kCommitted);
  ASSERT_GT(landing, 1.5);
  EXPECT_NEAR(engine.inflight_buffer(), 30.0, 1e-9);

  // Re-plan at t = 1: reclaim 10 minutes from movie 1 and grow movie 0 by
  // 20 streams, which the 20-stream budget cannot fund.
  ASSERT_TRUE(engine.Begin(
      1.0,
      BuildMigrationSteps({host.LiveLayout(0), host.LiveLayout(1)},
                          {Layout(30, 40.0), Layout(10, 50.0)}),
      2));
  EXPECT_NEAR(buffer_total(), 120.0, 1e-9);
  engine.Advance(1.0, &host);  // the reclaim applies; the grant backs off
  ASSERT_TRUE(engine.InFlight());
  EXPECT_NEAR(engine.inflight_buffer(), 40.0, 1e-9);
  engine.Abort(1.5, &host);
  EXPECT_EQ(engine.last_outcome(), MigrationEngine::Outcome::kRolledBack);
  EXPECT_DOUBLE_EQ(host.LiveLayout(1).buffer_minutes(), 60.0);
  EXPECT_NEAR(engine.inflight_buffer(), 30.0, 1e-9);
  EXPECT_NEAR(buffer_total(), 120.0, 1e-9);

  PumpUntilIdle(&engine, &host, landing);
  EXPECT_NEAR(engine.free_buffer(), 30.0, 1e-9);
  EXPECT_EQ(engine.inflight_streams(), 0);
  EXPECT_NEAR(buffer_total(), 120.0, 1e-9);
}

}  // namespace
}  // namespace vod
