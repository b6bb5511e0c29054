// Controller-level properties enforced end-to-end through the server.
//
// The two contracts this file pins down:
//   * quiescence — with stationary Poisson arrivals, a controller-enabled
//     run must be BYTE-identical to a controller-off run (randomized over
//     seeds): the control plane observes for free until there is drift;
//   * responsiveness — under a flash crowd the controller must actually
//     act (re-plan, migrate) and the audited conservation laws must hold
//     throughout, including the ctrl-* ledger laws. Its alarm is a rate
//     over seeds, held in controller_rate_test.cc.
// Plus direct corruption tests for the ctrl-* audit laws: each builds a
// snapshot with exactly one defect in the controller ledger and asserts
// the named invariant fires, and the abort rule on a scripted host.

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/partition_layout.h"
#include "ctrl/controller.h"
#include "ctrl_fixtures.h"
#include "gtest/gtest.h"
#include "sim/audit.h"
#include "sim/server.h"
#include "workload/paper_presets.h"

namespace vod {
namespace {

// Randomized property: zero drift => controller on/off reports are
// byte-identical, for every seed.
TEST(ControllerPropertyTest, ZeroDriftRunsAreByteIdenticalAcrossSeeds) {
  for (uint64_t seed : {42u, 7u, 123u, 999u, 31337u}) {
    ServerOptions off = BaseOptions(seed);
    ServerOptions on = BaseOptions(seed);
    on.controller.enabled = true;
    on.audit.enabled = true;  // telemetry/audit must not perturb a byte
    const auto report_off = RunServerSimulation(ThreeMovies(), off);
    const auto report_on = RunServerSimulation(ThreeMovies(), on);
    ASSERT_TRUE(report_off.ok()) << report_off.status().ToString();
    ASSERT_TRUE(report_on.ok()) << report_on.status().ToString();
    EXPECT_FALSE(report_on->controller.Active()) << "seed " << seed;
    EXPECT_EQ(report_off->ToString(), report_on->ToString())
        << "seed " << seed;
  }
}

// Under a 4x flash crowd the controller re-plans and migrates under a clean
// audit. That holds at every seed (200 of 200 in controller_rate_test, which
// also holds the alarm rate); one seed keeps the path under the sanitizers.
TEST(ControllerPropertyTest, FlashCrowdActivatesControllerUnderCleanAudit) {
  const auto report = RunFlashCrowd(42);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectControllerActed(report->controller, 42);
}

// -- ctrl-* audit law corruption tests ------------------------------------

AuditOptions ParanoidAudit() {
  AuditOptions options;
  options.enabled = true;
  options.every_events = 1;
  return options;
}

// A healthy snapshot whose controller ledger balances: 30 live + 4 free +
// 2 in-flight == 36 budget (and the same in buffer minutes).
AuditSnapshot BalancedSnapshot() {
  AuditSnapshot s;
  s.time = 50.0;
  s.supplier_in_use = 0;
  s.sum_world_holds = 0;
  s.supplier_capacity = 20;
  s.nominal_capacity = 20;
  auto layout = PartitionLayout::FromBuffer(120.0, 30, 60.0);
  VOD_CHECK_OK(layout.status());
  s.movies.push_back(BuildMovieAuditBuffers("m0", *layout));
  s.controller.enabled = true;
  s.controller.stream_budget = 36;
  s.controller.buffer_budget = 70.0;
  s.controller.sum_live_streams = 30;
  s.controller.sum_live_buffer = 60.0;
  s.controller.free_streams = 4;
  s.controller.free_buffer = 6.0;
  s.controller.inflight_streams = 2;
  s.controller.inflight_buffer = 4.0;
  s.controller.epoch = 3;
  s.controller.steps_planned = 5;
  s.controller.steps_applied = 4;
  return s;
}

bool Fired(const InvariantAuditor& auditor, const std::string& name) {
  for (const AuditViolation& v : auditor.violations()) {
    if (v.invariant == name) return true;
  }
  return false;
}

TEST(ControllerAuditLawTest, BalancedLedgerIsClean) {
  InvariantAuditor auditor(ParanoidAudit());
  auditor.Audit(BalancedSnapshot());
  EXPECT_EQ(auditor.total_violations(), 0);
}

TEST(ControllerAuditLawTest, LeakedStreamFiresCtrlStreamConservation) {
  InvariantAuditor auditor(ParanoidAudit());
  AuditSnapshot s = BalancedSnapshot();
  s.controller.free_streams = 3;  // one stream vanished from the pool
  auditor.Audit(s);
  EXPECT_TRUE(Fired(auditor, "ctrl-stream-conservation"));
}

TEST(ControllerAuditLawTest, LeakedBufferFiresCtrlBufferConservation) {
  InvariantAuditor auditor(ParanoidAudit());
  AuditSnapshot s = BalancedSnapshot();
  s.controller.inflight_buffer += 0.5;  // buffer minutes out of thin air
  auditor.Audit(s);
  EXPECT_TRUE(Fired(auditor, "ctrl-buffer-conservation"));
}

TEST(ControllerAuditLawTest, OverAppliedStepsFireCtrlNoDoubleGrant) {
  InvariantAuditor auditor(ParanoidAudit());
  AuditSnapshot s = BalancedSnapshot();
  s.controller.steps_applied = s.controller.steps_planned + 1;
  auditor.Audit(s);
  EXPECT_TRUE(Fired(auditor, "ctrl-no-double-grant"));
}

TEST(ControllerAuditLawTest, RewoundEpochFiresCtrlEpochMonotonic) {
  InvariantAuditor auditor(ParanoidAudit());
  AuditSnapshot healthy = BalancedSnapshot();
  auditor.Audit(healthy);
  AuditSnapshot rewound = BalancedSnapshot();
  rewound.time = 60.0;
  rewound.controller.epoch = 2;  // the plan epoch moved backwards
  auditor.Audit(rewound);
  EXPECT_TRUE(Fired(auditor, "ctrl-epoch-monotonic"));
}

TEST(ControllerAuditLawTest, DisabledLedgerIsNeverChecked) {
  InvariantAuditor auditor(ParanoidAudit());
  AuditSnapshot s = BalancedSnapshot();
  s.controller.free_streams = -5;  // nonsense, but the plane is off
  s.controller.enabled = false;
  auditor.Audit(s);
  EXPECT_EQ(auditor.total_violations(), 0);
}

// Scripted host for the controller's abort rule: layouts are plain state
// and reclaim blocking is a switch the test flips.
class ScriptedHost final : public ControllerHost {
 public:
  explicit ScriptedHost(std::vector<PartitionLayout> layouts)
      : layouts_(std::move(layouts)) {}

  void CommitLayout(int32_t movie, double /*t*/,
                    const PartitionLayout& layout) override {
    layouts_[static_cast<size_t>(movie)] = layout;
  }
  const PartitionLayout& LiveLayout(int32_t movie) const override {
    return layouts_[static_cast<size_t>(movie)];
  }
  bool ReclaimBlocked() const override { return reclaim_blocked_; }

  void set_reclaim_blocked(bool blocked) { reclaim_blocked_ = blocked; }

 private:
  std::vector<PartitionLayout> layouts_;
  bool reclaim_blocked_ = false;
};

// Feeds ThreeMovies' arrivals on an even grid, movie 0 at 8x its baseline
// rate, waking the controller at its cadence until a migration starts.
// Returns the wakeup time that started it.
double RunUntilMigrationStarts(Controller* controller) {
  const std::vector<ServerMovieSpec> movies = ThreeMovies();
  std::vector<double> next_arrival(movies.size(), 0.0);
  for (double t = kControllerPollMinutes; t < 2000.0;) {
    for (size_t i = 0; i < movies.size(); ++i) {
      const double gap =
          1.0 / (movies[i].arrival_rate_per_minute * (i == 0 ? 8.0 : 1.0));
      for (; next_arrival[i] < t; next_arrival[i] += gap) {
        controller->ObserveArrival(static_cast<int32_t>(i), next_arrival[i]);
      }
    }
    const double next = controller->OnWakeup(t);
    if (controller->Report().migrations_started > 0) return t;
    t = next;
  }
  return -1.0;
}

TEST(ControllerAbortRuleTest, CapacityChangeAbortsOnlyWhileReclaimIsBlocked) {
  for (const bool blocked : {true, false}) {
    std::vector<ControllerMovie> configs;
    std::vector<PartitionLayout> layouts;
    for (const ServerMovieSpec& spec : ThreeMovies()) {
      configs.push_back({spec.layout.movie_length(),
                         spec.arrival_rate_per_minute});
      layouts.push_back(spec.layout);
    }
    ScriptedHost host(layouts);
    Controller controller(ControllerOptions{}, configs, &host,
                          /*log=*/nullptr);
    controller.Start(0.0);
    const double started = RunUntilMigrationStarts(&controller);
    ASSERT_GT(started, 0.0) << "the flash crowd never started a migration";
    ASSERT_TRUE(controller.engine().InFlight());

    host.set_reclaim_blocked(blocked);
    controller.OnCapacityChange(started + 0.5);
    const ControllerReport report = controller.Report();
    EXPECT_EQ(report.migrations_started, 1) << "blocked=" << blocked;
    EXPECT_EQ(report.migrations_committed, 0) << "blocked=" << blocked;
    EXPECT_EQ(report.rollbacks, blocked ? 1 : 0) << "blocked=" << blocked;
    EXPECT_EQ(controller.engine().InFlight(), !blocked)
        << "blocked=" << blocked;
  }
}

}  // namespace
}  // namespace vod
