// Corruption-injection tests for the per-movie windowed-ladder laws
// (sim/audit.h, the MovieLedger ladder terms).
//
// Mirrors shard_audit_test.cc: each test builds a healthy barrier snapshot
// of a ladder-armed sharded run, injects exactly one defect, and asserts
// the named invariant fires. The names (shard-ladder-reclaim,
// shard-ladder-queue) are part of the auditor's contract. The windowed rung
// itself answers to the serial ladder laws (audit_test.cc), and
// StepWindowedLadder's hysteresis to degradation_test.cc.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sim/audit.h"

namespace vod {
namespace {

AuditOptions EnabledOptions() {
  AuditOptions options;
  options.enabled = true;
  options.every_events = 1;
  return options;
}

/// A healthy barrier snapshot of a ladder-armed three-movie sharded run.
/// Reserve ledger closes at capacity 50; each movie applied its whole
/// reclaim quota (2, 1 and 0), and every movie's queue accounting closes:
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
  s.shard.ladder = true;
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
  // Mangled ladder terms must not fire on a faults-only sharded run — the
  // laws only exist once the ladder is armed.
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthyLadderSnapshot();
  s.shard.ladder = false;
  s.shard.movies[0].reclaim_applied = 1000;
  s.shard.movies[0].vcr_queued = -5;
  auditor.Audit(s);
  EXPECT_EQ(auditor.total_violations(), 0);
}

TEST(ShardLadderAuditTest, OverQuotaReclaimFiresLadderReclaim) {
  // A shard reclaimed more streams than the barrier's quota allowed; the
  // violation names the movie.
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthyLadderSnapshot();
  s.shard.movies[1].reclaim_applied = 2;  // quota 1
  auditor.Audit(s);
  EXPECT_EQ(FiredInvariants(auditor),
            std::vector<std::string>{"shard-ladder-reclaim"});
  EXPECT_NE(auditor.violations()[0].detail.find("movie 1"),
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
