// Tests for the runtime invariant auditor (sim/audit.h).
//
// Each corruption test builds an AuditSnapshot with exactly one injected
// defect and asserts the named invariant fires — the names are part of the
// auditor's contract. The live-run tests prove a healthy simulation passes
// a paranoid audit and that the observer wiring reports violations through
// Status instead of aborting.

#include "sim/audit.h"

#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/partition_layout.h"
#include "gtest/gtest.h"
#include "sim/server.h"
#include "sim/simulator.h"

namespace vod {
namespace {

PartitionLayout TestLayout() {
  auto layout = PartitionLayout::FromBuffer(120.0, 4, 40.0);
  VOD_CHECK(layout.ok());
  return *layout;
}

AuditOptions EnabledOptions() {
  AuditOptions options;
  options.enabled = true;
  options.every_events = 1;
  return options;
}

/// A snapshot of a healthy two-movie server: conservation holds, partitions
/// legal, ladder quiet. Corruption tests perturb exactly one aspect.
AuditSnapshot HealthySnapshot() {
  AuditSnapshot s;
  s.time = 100.0;
  s.supplier_in_use = 7;
  s.sum_world_holds = 7;
  s.supplier_capacity = 50;
  s.nominal_capacity = 50;
  s.movies.push_back(BuildMovieAuditBuffers("gone_with_the_wind", TestLayout()));
  s.movies.push_back(BuildMovieAuditBuffers("casablanca", TestLayout()));
  return s;
}

std::vector<std::string> FiredInvariants(const InvariantAuditor& auditor) {
  std::vector<std::string> names;
  for (const AuditViolation& v : auditor.violations()) {
    names.push_back(v.invariant);
  }
  return names;
}

TEST(AuditOptionsTest, ValidateRejectsNonPositiveCadence) {
  AuditOptions options;
  options.every_events = 0;
  EXPECT_FALSE(options.Validate().ok());
  options.every_events = -5;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(InvariantAuditorTest, HealthySnapshotIsClean) {
  InvariantAuditor auditor(EnabledOptions());
  auditor.Audit(HealthySnapshot());
  EXPECT_EQ(auditor.total_violations(), 0);
  EXPECT_TRUE(auditor.status().ok());
}

TEST(InvariantAuditorTest, LeakedStreamFiresStreamConservation) {
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthySnapshot();
  s.supplier_in_use = 8;  // supplier thinks one more stream is out
  auditor.Audit(s);
  EXPECT_EQ(FiredInvariants(auditor),
            std::vector<std::string>{"stream-conservation"});
}

TEST(InvariantAuditorTest, DoubleReleaseFiresNegativeStreams) {
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthySnapshot();
  s.supplier_in_use = -1;
  s.sum_world_holds = -1;
  auditor.Audit(s);
  const auto fired = FiredInvariants(auditor);
  ASSERT_FALSE(fired.empty());
  EXPECT_EQ(fired.front(), "negative-streams");
}

TEST(InvariantAuditorTest, OverCapacityUseFiresCapacityBound) {
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthySnapshot();
  s.supplier_in_use = 51;
  s.sum_world_holds = 51;
  auditor.Audit(s);
  EXPECT_EQ(FiredInvariants(auditor),
            std::vector<std::string>{"capacity-bound"});
}

TEST(InvariantAuditorTest, OversubscriptionAfterCapacityLossIsLegal) {
  // A fault shrank capacity below in_use: the excess drains via reclaim,
  // and the auditor must not cry wolf meanwhile.
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthySnapshot();
  s.supplier_capacity = 5;  // nominal stays 50
  s.supplier_in_use = 7;
  s.sum_world_holds = 7;
  auditor.Audit(s);
  EXPECT_EQ(auditor.total_violations(), 0);
}

TEST(InvariantAuditorTest, RepairedAboveNominalFiresCapacityExceedsNominal) {
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthySnapshot();
  s.supplier_capacity = 60;  // "repair" restored more than exists
  auditor.Audit(s);
  EXPECT_EQ(FiredInvariants(auditor),
            std::vector<std::string>{"capacity-exceeds-nominal"});
}

TEST(InvariantAuditorTest, OverlappingPartitionsFirePartitionOverlap) {
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthySnapshot();
  // Slide movie 0's second partition back onto the first.
  s.movies[0].partitions[1].start = s.movies[0].partitions[0].start +
                                    s.movies[0].partitions[0].size / 2.0;
  auditor.Audit(s);
  EXPECT_EQ(FiredInvariants(auditor),
            std::vector<std::string>{"partition-overlap"});
}

TEST(InvariantAuditorTest, BudgetOverrunFiresPartitionBudget) {
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthySnapshot();
  s.movies[1].budget = 39.0;  // partitions still sum to 40
  auditor.Audit(s);
  EXPECT_EQ(FiredInvariants(auditor),
            std::vector<std::string>{"partition-budget"});
}

TEST(InvariantAuditorTest, NegativePartitionFiresPartitionBudget) {
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthySnapshot();
  s.movies[0].partitions[2].size = -1.0;
  auditor.Audit(s);
  const auto fired = FiredInvariants(auditor);
  ASSERT_FALSE(fired.empty());
  EXPECT_EQ(fired.front(), "partition-budget");
}

TEST(InvariantAuditorTest, BogusLevelFiresLadderLevelRange) {
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthySnapshot();
  s.degradation_level = kNumDegradationLevels;  // one past the deepest rung
  auditor.Audit(s);
  EXPECT_EQ(FiredInvariants(auditor),
            std::vector<std::string>{"ladder-level-range"});
}

TEST(InvariantAuditorTest, SkippedLadderStepFiresLadderContinuity) {
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthySnapshot();
  // normal -> queueing, then a transition claiming to leave kReclaim:
  // the recorded history skipped the queueing -> reclaim step.
  std::vector<DegradationTransition> transitions = {
      {10.0, DegradationLevel::kNormal, DegradationLevel::kQueueing, 40},
      {20.0, DegradationLevel::kReclaim, DegradationLevel::kBatchingOnly, 5},
  };
  s.transitions = &transitions;
  s.degradation_level = static_cast<int>(DegradationLevel::kBatchingOnly);
  auditor.Audit(s);
  EXPECT_EQ(FiredInvariants(auditor),
            std::vector<std::string>{"ladder-continuity"});
}

TEST(InvariantAuditorTest, LogNotEndingAtLiveLevelFiresLadderContinuity) {
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthySnapshot();
  std::vector<DegradationTransition> transitions = {
      {10.0, DegradationLevel::kNormal, DegradationLevel::kQueueing, 40},
  };
  s.transitions = &transitions;
  s.degradation_level = static_cast<int>(DegradationLevel::kNormal);
  auditor.Audit(s);
  EXPECT_EQ(FiredInvariants(auditor),
            std::vector<std::string>{"ladder-continuity"});
}

TEST(InvariantAuditorTest, TruncatedTransitionLogSkipsEndOfLogCheck) {
  // When the stored log was capped (total > stored), the live level is
  // allowed to disagree with the last *stored* transition.
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthySnapshot();
  std::vector<DegradationTransition> transitions = {
      {10.0, DegradationLevel::kNormal, DegradationLevel::kQueueing, 40},
  };
  s.transitions = &transitions;
  s.total_transitions = 7;  // six transitions were dropped from the log
  s.degradation_level = static_cast<int>(DegradationLevel::kNormal);
  auditor.Audit(s);
  EXPECT_EQ(auditor.total_violations(), 0);
}

TEST(InvariantAuditorTest, TimeRegressionInLogFiresLadderContinuity) {
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthySnapshot();
  std::vector<DegradationTransition> transitions = {
      {20.0, DegradationLevel::kNormal, DegradationLevel::kQueueing, 40},
      {10.0, DegradationLevel::kQueueing, DegradationLevel::kNormal, 50},
  };
  s.transitions = &transitions;
  s.degradation_level = static_cast<int>(DegradationLevel::kNormal);
  auditor.Audit(s);
  const auto fired = FiredInvariants(auditor);
  ASSERT_FALSE(fired.empty());
  EXPECT_EQ(fired.front(), "ladder-continuity");
}

TEST(InvariantAuditorTest, StatusCarriesFirstViolationCountAndTrace) {
  InvariantAuditor auditor(EnabledOptions());
  for (int i = 0; i < 18; ++i) {
    auditor.RecordEvent(10.0 * (i + 1));
  }
  AuditSnapshot s = HealthySnapshot();
  s.supplier_in_use = 9;  // conservation breaks...
  s.supplier_capacity = 60;  // ...and so does the nominal bound
  auditor.Audit(s);
  EXPECT_EQ(auditor.total_violations(), 2);
  const Status status = auditor.status();
  ASSERT_FALSE(status.ok());
  const std::string message = status.message();
  EXPECT_NE(message.find("stream-conservation"), std::string::npos) << message;
  EXPECT_NE(message.find("1 further violation"), std::string::npos) << message;
  // The trace tail holds the last 16 of the 18 recorded events.
  EXPECT_NE(message.find("last 16 events:"), std::string::npos) << message;
  EXPECT_NE(message.find("#3@t=30"), std::string::npos) << message;
  EXPECT_NE(message.find("#18@t=180"), std::string::npos) << message;
  EXPECT_EQ(message.find("#2@t=20"), std::string::npos) << message;
}

TEST(InvariantAuditorTest, ViolationRecordingIsCappedButCountIsExact) {
  InvariantAuditor auditor(EnabledOptions());
  AuditSnapshot s = HealthySnapshot();
  s.supplier_in_use = 9;
  for (int i = 0; i < 100; ++i) auditor.Audit(s);
  EXPECT_EQ(auditor.total_violations(), 100);
  EXPECT_LE(auditor.violations().size(), 32u);
}

TEST(InvariantAuditorTest, CadenceGatesAuditDue) {
  AuditOptions options = EnabledOptions();
  options.every_events = 3;
  InvariantAuditor auditor(options);
  EXPECT_FALSE(auditor.AuditDue());
  auditor.RecordEvent(1.0);
  auditor.RecordEvent(2.0);
  EXPECT_FALSE(auditor.AuditDue());
  auditor.RecordEvent(3.0);
  EXPECT_TRUE(auditor.AuditDue());
  auditor.Audit(HealthySnapshot());
  EXPECT_FALSE(auditor.AuditDue());
}

TEST(BuildMovieAuditBuffersTest, ExpandsLayoutGeometry) {
  const PartitionLayout layout = TestLayout();  // l=120, n=4, B=40
  const auto buffers = BuildMovieAuditBuffers("m", layout);
  EXPECT_EQ(buffers.budget, 40.0);
  ASSERT_EQ(buffers.partitions.size(), 4u);
  for (int k = 0; k < 4; ++k) {
    EXPECT_DOUBLE_EQ(buffers.partitions[k].start, k * 30.0);
    EXPECT_DOUBLE_EQ(buffers.partitions[k].size, 10.0);
  }
}

// ---- live-run integration -------------------------------------------------

TEST(AuditIntegrationTest, HealthySingleMovieRunPassesParanoidAudit) {
  auto layout = PartitionLayout::FromBuffer(120.0, 6, 60.0);
  ASSERT_TRUE(layout.ok());
  SimulationOptions options;
  options.warmup_minutes = 100.0;
  options.measurement_minutes = 2000.0;
  options.seed = 7;
  options.audit.enabled = true;
  options.audit.every_events = 1;  // paranoid: every executed event
  auto report = RunSimulation(*layout, PlaybackRates{}, options);
  ASSERT_TRUE(report.ok()) << report.status().message();
}

TEST(AuditIntegrationTest, HealthyServerRunWithDegradationPassesAudit) {
  auto layout = PartitionLayout::FromBuffer(120.0, 6, 60.0);
  ASSERT_TRUE(layout.ok());
  std::vector<ServerMovieSpec> movies;
  movies.push_back({"a", *layout, 0.5, nullptr, {}});
  movies.push_back({"b", *layout, 0.25, nullptr, {}});
  ServerOptions options;
  options.dynamic_stream_reserve = 20;
  options.warmup_minutes = 100.0;
  options.measurement_minutes = 2000.0;
  options.seed = 11;
  options.faults.enabled = true;
  options.faults.disks = 4;
  options.faults.profile.mtbf_minutes = 400.0;
  options.faults.profile.mttr_minutes = 60.0;
  options.degradation.enabled = true;
  options.audit.enabled = true;
  options.audit.every_events = 1;
  auto report = RunServerSimulation(movies, options);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->resilience_enabled);
}

TEST(AuditIntegrationTest, AuditedRunMatchesUnauditedRunExactly) {
  // The auditor observes; it must never perturb the simulation.
  auto layout = PartitionLayout::FromBuffer(120.0, 6, 60.0);
  ASSERT_TRUE(layout.ok());
  SimulationOptions options;
  options.warmup_minutes = 100.0;
  options.measurement_minutes = 2000.0;
  options.seed = 7;
  auto plain = RunSimulation(*layout, PlaybackRates{}, options);
  options.audit.enabled = true;
  options.audit.every_events = 1;
  auto audited = RunSimulation(*layout, PlaybackRates{}, options);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(audited.ok());
  EXPECT_EQ(plain->ToString(), audited->ToString());
  EXPECT_EQ(plain->hit_probability, audited->hit_probability);
  EXPECT_EQ(plain->total_resumes, audited->total_resumes);
}

TEST(ServerValidationTest, RejectsBadInputsWithOneLineDiagnostics) {
  auto layout = PartitionLayout::FromBuffer(120.0, 4, 40.0);
  ASSERT_TRUE(layout.ok());
  std::vector<ServerMovieSpec> movies;
  movies.push_back({"m", *layout, 0.5, nullptr, {}});
  ServerOptions options;

  EXPECT_TRUE(ValidateServerInputs(movies, options).ok());

  {
    auto bad = movies;
    bad[0].arrival_rate_per_minute = 0.0;
    const Status s = ValidateServerInputs(bad, options);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("arrival rate"), std::string::npos);
  }
  {
    auto bad = movies;
    bad[0].arrival_rate_per_minute =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(ValidateServerInputs(bad, options).ok());
  }
  {
    const Status s = ValidateServerInputs({}, options);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("at least one movie"), std::string::npos);
  }
  {
    auto bad_options = options;
    bad_options.dynamic_stream_reserve = -1;
    EXPECT_FALSE(ValidateServerInputs(movies, bad_options).ok());
  }
  {
    auto bad_options = options;
    bad_options.warmup_minutes = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(ValidateServerInputs(movies, bad_options).ok());
  }
  {
    auto bad_options = options;
    bad_options.audit.enabled = true;
    bad_options.audit.every_events = 0;
    EXPECT_FALSE(ValidateServerInputs(movies, bad_options).ok());
  }
  {
    auto bad_options = options;
    bad_options.obs.metrics_sample_minutes = 1e-300;
    const Status s = ValidateServerInputs(movies, bad_options);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("metrics_sample_minutes"), std::string::npos);
  }
}

}  // namespace
}  // namespace vod
