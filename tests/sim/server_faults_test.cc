// Server-level fault injection and graceful degradation: determinism,
// accounting identities (no viewer outcome goes missing), and convergence to
// the fault-free baseline as the failure model vanishes.

#include <gtest/gtest.h>

#include <limits>

#include "obs/event_log.h"
#include "sim/server.h"
#include "workload/paper_presets.h"

namespace vod {
namespace {

PartitionLayout MakeLayout(double l, int n, double b) {
  auto layout = PartitionLayout::FromBuffer(l, n, b);
  EXPECT_TRUE(layout.ok());
  return *layout;
}

std::vector<ServerMovieSpec> TwoMovies() {
  std::vector<ServerMovieSpec> movies;
  movies.push_back({"alpha", MakeLayout(120.0, 40, 80.0), 0.5, nullptr,
                    paper::Fig7MixedBehavior()});
  movies.push_back({"beta", MakeLayout(90.0, 30, 45.0), 0.25, nullptr,
                    paper::Fig7SingleOpBehavior(VcrOp::kFastForward)});
  return movies;
}

ServerOptions FaultyOptions(int64_t reserve, double mtbf, double mttr) {
  ServerOptions options;
  options.rates = paper::Rates();
  options.dynamic_stream_reserve = reserve;
  options.warmup_minutes = 500.0;
  options.measurement_minutes = 8000.0;
  options.seed = 17;
  options.faults.enabled = true;
  options.faults.disks = 4;
  options.faults.profile.mtbf_minutes = mtbf;
  options.faults.profile.mttr_minutes = mttr;
  options.degradation.enabled = true;
  return options;
}

TEST(ServerFaultsTest, Validation) {
  ServerOptions options = FaultyOptions(50, 2000.0, 200.0);
  options.faults.disks = 0;
  EXPECT_TRUE(RunServerSimulation(TwoMovies(), options)
                  .status()
                  .IsInvalidArgument());
  options = FaultyOptions(50, -1.0, 200.0);
  EXPECT_TRUE(RunServerSimulation(TwoMovies(), options)
                  .status()
                  .IsInvalidArgument());
  options = FaultyOptions(50, 2000.0, 200.0);
  options.degradation.queue_deadline_minutes = -1.0;
  EXPECT_TRUE(RunServerSimulation(TwoMovies(), options)
                  .status()
                  .IsInvalidArgument());
  // Every disk carries at least one reserve stream, so the disk count is
  // bounded before anything sizes a per-disk table by it.
  for (const int disks : {51, std::numeric_limits<int>::max()}) {
    options = FaultyOptions(50, 2000.0, 200.0);
    options.faults.disks = disks;
    EXPECT_TRUE(RunServerSimulation(TwoMovies(), options)
                    .status()
                    .IsInvalidArgument())
        << disks << " disks";
  }
  options = FaultyOptions(50, 2000.0, 200.0);
  options.faults.disks = 50;
  EXPECT_TRUE(ValidateServerInputs(TwoMovies(), options).ok());
  // An empty reserve still stripes over one disk.
  options = FaultyOptions(0, 2000.0, 200.0);
  options.faults.disks = 1;
  EXPECT_TRUE(ValidateServerInputs(TwoMovies(), options).ok());
  options.faults.disks = 2;
  EXPECT_TRUE(ValidateServerInputs(TwoMovies(), options).IsInvalidArgument());
}

TEST(ServerFaultsTest, ByteIdenticalDeterminismWithActiveFaults) {
  const ServerOptions options = FaultyOptions(40, 1500.0, 300.0);
  const auto a = RunServerSimulation(TwoMovies(), options);
  const auto b = RunServerSimulation(TwoMovies(), options);
  ASSERT_TRUE(a.ok() && b.ok());
  // The fault schedule must actually have fired for this to mean anything.
  EXPECT_GT(a->resilience.disk_failures, 0);
  EXPECT_EQ(a->ToString(), b->ToString());
}

TEST(ServerFaultsTest, InfiniteMtbfMatchesFaultFreeBaseline) {
  // With a (practically) infinite MTBF the fault schedule is empty, and
  // because the injector uses its own RNG sub-stream the run must reproduce
  // the fault-free legacy run's per-movie numbers exactly.
  ServerOptions faulty = FaultyOptions(40, 1e15, 10.0);
  faulty.degradation.enabled = false;  // pure legacy semantics
  ServerOptions baseline;
  baseline.rates = faulty.rates;
  baseline.dynamic_stream_reserve = faulty.dynamic_stream_reserve;
  baseline.warmup_minutes = faulty.warmup_minutes;
  baseline.measurement_minutes = faulty.measurement_minutes;
  baseline.seed = faulty.seed;
  const auto a = RunServerSimulation(TwoMovies(), faulty);
  const auto b = RunServerSimulation(TwoMovies(), baseline);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->resilience.disk_failures, 0);
  EXPECT_EQ(a->refused_acquisitions, b->refused_acquisitions);
  EXPECT_EQ(a->granted_acquisitions, b->granted_acquisitions);
  EXPECT_EQ(a->total_blocked_vcr, b->total_blocked_vcr);
  EXPECT_EQ(a->total_stalls, b->total_stalls);
  ASSERT_EQ(a->movies.size(), b->movies.size());
  for (size_t i = 0; i < a->movies.size(); ++i) {
    EXPECT_EQ(a->movies[i].report.total_resumes,
              b->movies[i].report.total_resumes);
    EXPECT_DOUBLE_EQ(a->movies[i].report.hit_probability,
                     b->movies[i].report.hit_probability);
    EXPECT_EQ(a->movies[i].report.blocked_vcr_requests,
              b->movies[i].report.blocked_vcr_requests);
  }
}

TEST(ServerFaultsTest, EveryRefusalAndQueueOutcomeIsAccounted) {
  const auto report =
      RunServerSimulation(TwoMovies(), FaultyOptions(30, 1000.0, 400.0));
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->resilience_enabled);
  const ResilienceReport& rz = report->resilience;
  // Something actually happened under this harsh profile.
  EXPECT_GT(rz.disk_failures, 0);
  EXPECT_GT(rz.disk_repairs, 0);
  EXPECT_LT(rz.min_reserve_capacity, report->reserve_capacity);
  // No queued request vanishes: queued = granted + expired + still waiting.
  EXPECT_EQ(rz.vcr_queued,
            rz.vcr_queue_grants + rz.vcr_queue_expirations +
                rz.vcr_queue_pending);
  // Per-movie queue counts agree with the manager's.
  EXPECT_EQ(report->total_queued_vcr, rz.vcr_queued);
  EXPECT_EQ(report->total_forced_reclaims, rz.forced_reclaims);
  // Every blocked-VCR report is either an outright denial or an expired
  // wait — nothing is silently dropped.
  EXPECT_EQ(report->total_blocked_vcr,
            rz.vcr_denied + rz.vcr_queue_expirations);
  // Ladder time integrates to the horizon.
  double total_time = 0.0;
  for (int i = 0; i < kNumDegradationLevels; ++i) {
    total_time += rz.time_in_level[i];
  }
  EXPECT_NEAR(total_time, 8500.0, 1e-6);
}

TEST(ServerFaultsTest, HarsherFailuresDegradeQoS) {
  // MTTR 10x longer => strictly less healthy time and at least as many
  // stalls/blocks (same fault arrival schedule, longer outages).
  const auto mild =
      RunServerSimulation(TwoMovies(), FaultyOptions(30, 1500.0, 50.0));
  const auto harsh =
      RunServerSimulation(TwoMovies(), FaultyOptions(30, 1500.0, 2000.0));
  ASSERT_TRUE(mild.ok() && harsh.ok());
  const double mild_normal =
      mild->resilience.time_in_level[0] + mild->resilience.time_in_level[1];
  const double harsh_normal =
      harsh->resilience.time_in_level[0] + harsh->resilience.time_in_level[1];
  EXPECT_GT(mild_normal, harsh_normal);
  EXPECT_GE(harsh->total_stalls + harsh->total_blocked_vcr,
            mild->total_stalls + mild->total_blocked_vcr);
}

TEST(ServerFaultsTest, ReclaimedViewersFallBackToBatching) {
  // Deep capacity loss must trigger forced reclaims, and each reclaim shows
  // up as a stall (pure-batching service), not as a lost session.
  const auto report =
      RunServerSimulation(TwoMovies(), FaultyOptions(30, 800.0, 1500.0));
  ASSERT_TRUE(report.ok());
  const ResilienceReport& rz = report->resilience;
  if (rz.forced_reclaims > 0) {
    EXPECT_GT(report->total_stalls, 0);
  }
  // Recovery episodes were observed and have sane durations.
  if (rz.recovery_episodes > 0) {
    EXPECT_GT(rz.mean_recovery_minutes, 0.0);
    EXPECT_GE(rz.max_recovery_minutes, rz.mean_recovery_minutes);
  }
}

TEST(ServerFaultsTest, TraceCarriesEveryLadderTransition) {
  // The reserve puts each transition on the bus as it records it: one
  // kDegradation record per transition, in the log's order, and tracing
  // leaves the report's bytes alone.
  const ServerOptions plain = FaultyOptions(30, 800.0, 120.0);
  EventLog log;
  log.set_mask(CategoryBit(EventCategory::kDegradation));
  VectorSink sink;
  log.AddSink(&sink);
  ServerOptions traced = plain;
  traced.obs.event_log = &log;
  const auto a = RunServerSimulation(TwoMovies(), plain);
  const auto b = RunServerSimulation(TwoMovies(), traced);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ToString(), b->ToString());
  const ResilienceReport& rz = b->resilience;
  ASSERT_GT(rz.total_transitions, 0);
  const std::vector<TraceEvent> records = sink.Take();
  ASSERT_EQ(static_cast<int64_t>(records.size()), rz.total_transitions);
  ASSERT_EQ(rz.transitions.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const DegradationTransition& tr = rz.transitions[i];
    EXPECT_EQ(records[i].time, tr.time) << i;
    EXPECT_EQ(records[i].subtype, static_cast<uint8_t>(tr.to)) << i;
    EXPECT_EQ(records[i].aux, static_cast<uint8_t>(tr.from)) << i;
    EXPECT_EQ(records[i].value, static_cast<double>(tr.capacity)) << i;
    EXPECT_EQ(records[i].movie, -1);
  }
}

TEST(ServerFaultsTest, TraceCarriesTransitionsPastTheStoredLog) {
  // A tight reserve with the ladder on flaps between normal and queueing
  // more often than the stored log holds; the trace still has one record
  // per transition.
  ServerOptions options;
  options.rates = paper::Rates();
  options.dynamic_stream_reserve = 22;
  options.warmup_minutes = 500.0;
  options.measurement_minutes = 60000.0;
  options.seed = 17;
  options.degradation.enabled = true;
  EventLog log;
  log.set_mask(CategoryBit(EventCategory::kDegradation));
  VectorSink sink;
  log.AddSink(&sink);
  options.obs.event_log = &log;
  const auto report = RunServerSimulation(TwoMovies(), options);
  ASSERT_TRUE(report.ok());
  const int64_t total = report->resilience.total_transitions;
  ASSERT_GT(total,
            static_cast<int64_t>(LadderHistory::kMaxStoredTransitions));
  EXPECT_EQ(static_cast<int64_t>(sink.size()), total);
}

TEST(ServerFaultsTest, DegradationWithoutFaultsQueuesInsteadOfRefusing) {
  // A tight reserve with the ladder on but no faults: the queue absorbs
  // some phase-1 refusals, so blocked_vcr is no larger than the legacy
  // run's, and grants are strictly positive under sustained pressure.
  ServerOptions legacy;
  legacy.rates = paper::Rates();
  legacy.dynamic_stream_reserve = 5;
  legacy.warmup_minutes = 500.0;
  legacy.measurement_minutes = 8000.0;
  legacy.seed = 17;
  ServerOptions degraded = legacy;
  degraded.degradation.enabled = true;
  degraded.degradation.queue_deadline_minutes = 5.0;
  const auto a = RunServerSimulation(TwoMovies(), legacy);
  const auto b = RunServerSimulation(TwoMovies(), degraded);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(b->resilience_enabled);
  EXPECT_GT(b->resilience.vcr_queued, 0);
  EXPECT_GT(b->resilience.vcr_queue_grants, 0);
  EXPECT_LE(b->total_blocked_vcr, a->total_blocked_vcr);
  // Queued waits were measured and respect the deadline.
  EXPECT_GT(b->resilience.mean_queued_wait_minutes, 0.0);
  EXPECT_LE(b->resilience.p99_queued_wait_minutes, 5.0 + 1e-9);
}

}  // namespace
}  // namespace vod
