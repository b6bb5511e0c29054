// Corruption-injection tests for the cross-shard conservation laws
// (sim/audit.h, "Cross-shard ledgers" section).
//
// Mirrors audit_test.cc: each test builds a healthy barrier snapshot of a
// sharded run, injects exactly one defect, and asserts the named invariant
// fires. The names (shard-reserve-ledger, shard-credit-negative) are part of
// the auditor's contract — the sharded coordinator relies on them and so do
// these tests.

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

/// A healthy barrier snapshot of a three-movie sharded run: capacity 50,
/// movie 2 still repaying a retirement debt of 1 after a fault, so
/// Σ(held + credit - debt) = (7+10) + (3+20) + (1+10-1) = 50.
AuditSnapshot HealthyShardSnapshot() {
  AuditSnapshot s;
  s.time = 300.0;
  s.shard.enabled = true;
  s.shard.capacity = 50;
  s.shard.movies.push_back({/*movie=*/0, /*held=*/7, /*credit=*/10,
                            /*debt=*/0, /*entered=*/40, /*exited=*/33});
  s.shard.movies.push_back({/*movie=*/1, /*held=*/3, /*credit=*/20,
                            /*debt=*/0, /*entered=*/12, /*exited=*/9});
  s.shard.movies.push_back({/*movie=*/2, /*held=*/1, /*credit=*/10,
                            /*debt=*/1, /*entered=*/25, /*exited=*/24});
  return s;
}

std::vector<std::string> FiredInvariants(const InvariantAuditor& auditor) {
  std::vector<std::string> names;
  for (const AuditViolation& v : auditor.violations()) {
    names.push_back(v.invariant);
  }
  return names;
}

TEST(ShardAuditTest, HealthyBarrierSnapshotIsClean) {
  InvariantAuditor auditor(EnabledOptions());
  auditor.Audit(HealthyShardSnapshot());
  EXPECT_EQ(auditor.total_violations(), 0);
  EXPECT_TRUE(auditor.status().ok());
}

TEST(ShardAuditTest, DisabledShardStateIsNeverChecked) {
  // A broken ledger must not fire when the run is not sharded.
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthyShardSnapshot();
  s.shard.enabled = false;
  s.shard.capacity = 9999;
  s.shard.movies[0].held = -5;
  auditor.Audit(s);
  EXPECT_EQ(auditor.total_violations(), 0);
}

TEST(ShardAuditTest, MintedCreditFiresReserveLedger) {
  // A grant that lends one more credit than the reserve holds.
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthyShardSnapshot();
  s.shard.movies[1].credit += 1;
  auditor.Audit(s);
  EXPECT_EQ(FiredInvariants(auditor),
            std::vector<std::string>{"shard-reserve-ledger"});
  EXPECT_NE(auditor.violations()[0].detail.find("minted or leaked"),
            std::string::npos);
}

TEST(ShardAuditTest, LeakedStreamFiresReserveLedger) {
  // A release that vanished: held dropped without a matching credit return.
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthyShardSnapshot();
  s.shard.movies[0].held -= 1;
  auditor.Audit(s);
  EXPECT_EQ(FiredInvariants(auditor),
            std::vector<std::string>{"shard-reserve-ledger"});
}

TEST(ShardAuditTest, PhantomDebtFiresReserveLedger) {
  // Debt invented at a barrier shrinks the ledger below capacity.
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthyShardSnapshot();
  s.shard.movies[2].debt += 2;
  auditor.Audit(s);
  EXPECT_EQ(FiredInvariants(auditor),
            std::vector<std::string>{"shard-reserve-ledger"});
}

TEST(ShardAuditTest, NegativeCreditFiresCreditNegative) {
  // Spending a credit twice drives the counter below zero. The ledger sum
  // breaks too — the negative-counter law must name the movie first.
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthyShardSnapshot();
  s.shard.movies[1].credit = -1;
  auditor.Audit(s);
  const auto fired = FiredInvariants(auditor);
  ASSERT_FALSE(fired.empty());
  EXPECT_EQ(fired.front(), "shard-credit-negative");
  EXPECT_NE(auditor.violations()[0].detail.find("movie 1"),
            std::string::npos);
}

TEST(ShardAuditTest, NegativeDebtFiresCreditNegative) {
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthyShardSnapshot();
  s.shard.movies[2].debt = -1;
  auditor.Audit(s);
  const auto fired = FiredInvariants(auditor);
  ASSERT_FALSE(fired.empty());
  EXPECT_EQ(fired.front(), "shard-credit-negative");
}

TEST(ShardAuditTest, EveryShardLawBreaksAtOnceAndAllAreNamed) {
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthyShardSnapshot();
  s.shard.movies[0].credit = -2;  // negative + ledger break
  s.shard.movies[2].debt = -1;    // second negative counter
  auditor.Audit(s);
  const auto fired = FiredInvariants(auditor);
  EXPECT_EQ(auditor.total_violations(), 3);
  auto has = [&fired](const char* name) {
    for (const auto& f : fired) {
      if (f == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("shard-credit-negative"));
  EXPECT_TRUE(has("shard-reserve-ledger"));
  EXPECT_FALSE(auditor.status().ok());
}

}  // namespace
}  // namespace vod
