// Corruption-injection tests for the windowed-ladder conservation laws
// (sim/audit.h, ShardState::Ladder).
//
// Mirrors shard_audit_test.cc: each test builds a healthy barrier snapshot
// of a ladder-armed sharded run, injects exactly one defect, and asserts
// the named invariant fires. The names (shard-ladder-rung,
// shard-ladder-reclaim, shard-ladder-queue) are part of the auditor's
// contract — the sharded coordinator publishes its rung decision and quota
// ledger specifically so these laws can recompute them from first
// principles.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sim/audit.h"
#include "sim/degradation.h"

namespace vod {
namespace {

AuditOptions EnabledOptions() {
  AuditOptions options;
  options.enabled = true;
  options.every_events = 1;
  return options;
}

/// A healthy barrier snapshot of a ladder-armed three-movie sharded run.
/// Reserve ledger closes at capacity 50; the ladder holds kQueueing
/// (sum_queued = 2 > 0 at full capacity), the barrier issued quota 3 last
/// window and the shards echoed exactly 3 (2 + 1 + 0, each fully applied),
/// and every movie's queue accounting closes:
/// queued = grants + expirations + pending.
AuditSnapshot HealthyLadderSnapshot() {
  AuditSnapshot s;
  s.time = 600.0;
  s.shard.enabled = true;
  s.shard.capacity = 50;
  s.shard.movies.push_back({/*movie=*/0, /*held=*/7, /*credit=*/10,
                            /*debt=*/0, /*entered=*/40, /*exited=*/33,
                            /*vcr_queued=*/10, /*queue_grants=*/6,
                            /*queue_expirations=*/3, /*queue_pending=*/1,
                            /*reclaim_quota=*/2, /*reclaim_applied=*/2});
  s.shard.movies.push_back({/*movie=*/1, /*held=*/3, /*credit=*/20,
                            /*debt=*/0, /*entered=*/12, /*exited=*/9,
                            /*vcr_queued=*/4, /*queue_grants=*/2,
                            /*queue_expirations=*/2, /*queue_pending=*/0,
                            /*reclaim_quota=*/1, /*reclaim_applied=*/1});
  s.shard.movies.push_back({/*movie=*/2, /*held=*/1, /*credit=*/10,
                            /*debt=*/1, /*entered=*/25, /*exited=*/24,
                            /*vcr_queued=*/3, /*queue_grants=*/1,
                            /*queue_expirations=*/1, /*queue_pending=*/1,
                            /*reclaim_quota=*/0, /*reclaim_applied=*/0});

  s.shard.ladder.enabled = true;
  s.shard.ladder.prev_level = static_cast<int>(DegradationLevel::kQueueing);
  s.shard.ladder.prev_streak = 0;
  s.shard.ladder.next_level = static_cast<int>(DegradationLevel::kQueueing);
  s.shard.ladder.next_streak = 0;
  s.shard.ladder.nominal_capacity = 50;
  s.shard.ladder.sum_held = 11;  // = 7 + 3 + 1
  s.shard.ladder.sum_queued = 2;
  s.shard.ladder.shed_below_fraction = 0.5;
  s.shard.ladder.batching_below_fraction = 0.2;
  s.shard.ladder.recover_windows = 2;
  s.shard.ladder.quota_issued_prev = 3;
  return s;
}

std::vector<std::string> FiredInvariants(const InvariantAuditor& auditor) {
  std::vector<std::string> names;
  for (const AuditViolation& v : auditor.violations()) {
    names.push_back(v.invariant);
  }
  return names;
}

TEST(ShardLadderAuditTest, HealthyLadderSnapshotIsClean) {
  InvariantAuditor auditor(EnabledOptions());
  auditor.Audit(HealthyLadderSnapshot());
  EXPECT_EQ(auditor.total_violations(), 0);
  EXPECT_TRUE(auditor.status().ok());
}

TEST(ShardLadderAuditTest, DisabledLadderIsNeverChecked) {
  // A mangled ladder block must not fire on a faults-only sharded run —
  // the laws only exist once the ladder is armed.
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthyLadderSnapshot();
  s.shard.ladder.enabled = false;
  s.shard.ladder.next_level = 99;
  s.shard.movies[0].reclaim_applied = 1000;
  s.shard.movies[0].vcr_queued = -5;
  auditor.Audit(s);
  EXPECT_EQ(auditor.total_violations(), 0);
}

TEST(ShardLadderAuditTest, WrongRungFiresLadderRung) {
  // The barrier announces a rung the pure function does not produce.
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthyLadderSnapshot();
  s.shard.ladder.next_level = static_cast<int>(DegradationLevel::kShedVcr);
  auditor.Audit(s);
  EXPECT_EQ(FiredInvariants(auditor),
            std::vector<std::string>{"shard-ladder-rung"});
  EXPECT_NE(auditor.violations()[0].detail.find("pure function"),
            std::string::npos);
}

TEST(ShardLadderAuditTest, WrongStreakFiresLadderRung) {
  // Hysteresis bookkeeping is part of the decision: a tampered
  // below-streak diverges the replay even when the rung matches.
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthyLadderSnapshot();
  s.shard.ladder.next_streak = 1;
  auditor.Audit(s);
  EXPECT_EQ(FiredInvariants(auditor),
            std::vector<std::string>{"shard-ladder-rung"});
}

TEST(ShardLadderAuditTest, TamperedPressureFiresLadderRung) {
  // Oversubscribed pressure (held > capacity) demands kReclaim; a barrier
  // that still claims kQueueing mis-folded the shards' pressure.
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthyLadderSnapshot();
  s.shard.ladder.sum_held = 60;
  auditor.Audit(s);
  EXPECT_EQ(FiredInvariants(auditor),
            std::vector<std::string>{"shard-ladder-rung"});
}

TEST(ShardLadderAuditTest, HysteresisShortcutFiresLadderRung) {
  // Calm pressure under a held kShedVcr rung with recover_windows=2 must
  // hold the rung at streak 1; stepping straight down is a shortcut the
  // auditor rejects.
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthyLadderSnapshot();
  s.shard.ladder.prev_level = static_cast<int>(DegradationLevel::kShedVcr);
  s.shard.ladder.sum_queued = 0;  // raw = kNormal at full capacity
  s.shard.ladder.next_level = static_cast<int>(DegradationLevel::kNormal);
  s.shard.ladder.next_streak = 0;
  auditor.Audit(s);
  EXPECT_EQ(FiredInvariants(auditor),
            std::vector<std::string>{"shard-ladder-rung"});
}

TEST(ShardLadderAuditTest, OverQuotaReclaimFiresLadderReclaim) {
  // A shard reclaimed more streams than the barrier's quota allowed. The
  // echoed sum then also exceeds what was issued, so the law fires twice —
  // the per-movie violation must come first and name the movie.
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthyLadderSnapshot();
  s.shard.movies[1].reclaim_quota = 2;  // echoed sum now 4 != issued 3
  s.shard.movies[1].reclaim_applied = 3;
  auditor.Audit(s);
  const auto fired = FiredInvariants(auditor);
  ASSERT_FALSE(fired.empty());
  EXPECT_EQ(fired.front(), "shard-ladder-reclaim");
  EXPECT_NE(auditor.violations()[0].detail.find("movie 1"),
            std::string::npos);
}

TEST(ShardLadderAuditTest, MintedQuotaFiresLadderReclaim) {
  // The shards echo more quota than the barrier issued last window.
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthyLadderSnapshot();
  s.shard.ladder.quota_issued_prev = 2;
  auditor.Audit(s);
  EXPECT_EQ(FiredInvariants(auditor),
            std::vector<std::string>{"shard-ladder-reclaim"});
  EXPECT_NE(auditor.violations()[0].detail.find("minted or lost"),
            std::string::npos);
}

TEST(ShardLadderAuditTest, LostQueuedViewerFiresLadderQueue) {
  // One granted waiter vanished from the ledger: queued != grants +
  // expirations + pending.
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthyLadderSnapshot();
  s.shard.movies[0].queue_grants -= 1;
  auditor.Audit(s);
  EXPECT_EQ(FiredInvariants(auditor),
            std::vector<std::string>{"shard-ladder-queue"});
  EXPECT_NE(auditor.violations()[0].detail.find("movie 0"),
            std::string::npos);
}

TEST(ShardLadderAuditTest, PhantomPendingFiresLadderQueue) {
  // A waiter counted as still pending that was never queued.
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthyLadderSnapshot();
  s.shard.movies[2].queue_pending += 1;
  auditor.Audit(s);
  EXPECT_EQ(FiredInvariants(auditor),
            std::vector<std::string>{"shard-ladder-queue"});
}

}  // namespace
}  // namespace vod
