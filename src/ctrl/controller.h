// The buffer-reallocation control plane.
//
// The paper's (B, n) sizing is computed once, offline, for forecast rates.
// Under popularity drift (flash crowds, new releases, diurnal waves) the
// static allocation decays: hot movies queue while cold movies hold buffer.
// The controller closes the loop online:
//
//   estimate  — per-movie EWMA arrival rates + Page–Hinkley drift detection
//               (ctrl/rate_estimator.h), fed by every offered arrival;
//   re-plan   — on a drift alarm, or when a sustained deviation confirms at
//               the poll cadence, re-solve the constrained allocation with
//               the numerics solvers (ctrl/planner.h) at live rates;
//   migrate   — apply the plan through the bounded-disruption engine
//               (ctrl/migration.h): staged reclaim/grant, never preempting
//               active streams, exponential backoff on blocked steps,
//               rollback to the last committed plan on failure;
//   protect   — a token-bucket traffic policy (ctrl/traffic_policy.h) sheds
//               low-marginal-value arrivals under overload instead of the
//               global degradation ladder.
//
// Quiescence contract: with no drift, the controller is a pure observer.
// Hysteresis thresholds scale with each estimator's noise floor, plans are
// buffer-quantized, and a re-solve that reproduces the committed allocation
// migrates nothing — so a zero-drift run with the controller enabled is
// byte-identical to one with it disabled (enforced by tests).
//
// The controller is a time-explicit state machine with no RNG: the host
// pumps OnWakeup(t) and schedules the returned next time. All coupling to
// the simulation goes through ControllerHost (ctrl/host.h).

#ifndef VOD_CTRL_CONTROLLER_H_
#define VOD_CTRL_CONTROLLER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/partition_layout.h"
#include "ctrl/admission_gate.h"
#include "ctrl/host.h"
#include "ctrl/migration.h"
#include "ctrl/planner.h"
#include "ctrl/rate_estimator.h"
#include "ctrl/traffic_policy.h"
#include "obs/event_log.h"

namespace vod {

/// Control-plane configuration (embedded in ServerOptions).
struct ControllerOptions {
  bool enabled = false;

  /// Decision cadence: triggers are evaluated and the migration engine is
  /// pumped at least this often.
  double poll_interval_minutes = 5.0;

  /// Migration rate limit: a new migration starts at most this often.
  double min_replan_gap_minutes = 30.0;

  Status Validate() const;
};

/// One movie as the controller sees it.
struct ControllerMovie {
  double movie_length = 120.0;
  /// The rate the initial (configured) layout was sized for.
  double baseline_rate = 0.5;
};

/// End-of-run controller statistics (serialized into ServerReport).
struct ControllerReport {
  bool enabled = false;
  int64_t plans_solved = 0;
  int64_t drift_alarms = 0;
  int64_t migrations_started = 0;
  int64_t migrations_committed = 0;
  int64_t rollbacks = 0;
  int64_t steps_planned = 0;
  int64_t steps_applied = 0;
  int64_t blocked_attempts = 0;
  int64_t admission_sheds = 0;
  std::array<int64_t, kNumPriorityClasses> sheds_by_class{};
  int64_t final_epoch = 0;
  /// Simulation time of the last committed plan; -1 = never re-planned.
  double last_commit_time = -1.0;

  /// True when the controller did anything observable. A quiescent
  /// controller (plans solved but none acted on) stays inactive, which is
  /// what keeps zero-drift reports byte-identical to controller-off runs.
  bool Active() const {
    return drift_alarms + migrations_started + rollbacks + admission_sheds +
               steps_applied >
           0;
  }

  std::string ToString() const;
};

/// \brief Online rate estimation + re-planning + migration + shedding.
class Controller final : public AdmissionGate {
 public:
  /// `host` and `log` (optional) must outlive the controller. `movies` is
  /// index-aligned with the host's movie ids.
  Controller(const ControllerOptions& options,
             std::vector<ControllerMovie> movies, ControllerHost* host,
             EventLog* log);

  /// Starts observing at t0. The committed plan is the live configuration;
  /// epoch 0. Call once, before any OnArrival/OnWakeup.
  void Start(double t0);

  /// AdmissionGate: feeds the movie's rate estimator (offered demand,
  /// including arrivals that end up shed), then consults the traffic
  /// policy. Wire as MovieWorldConfig::gate.
  bool OnArrival(int32_t movie, double t) override;

  /// Feeds the movie's rate estimator only, for an arrival another gate
  /// already decided (the sharded barrier's replay): the traffic policy
  /// neither sees it nor counts it as shed.
  void ObserveArrival(int32_t movie, double t);

  /// Decision tick: pumps the migration engine, commits or abandons plans,
  /// evaluates re-plan triggers. Returns the next time it wants to run
  /// (always > t; the host schedules it).
  double OnWakeup(double t);

  /// Capacity changed under the controller (fault / repair). A severe loss
  /// mid-migration aborts and rolls back.
  void OnCapacityChange(double t);

  ControllerReport Report() const;

  // -- Audit accessors ----------------------------------------------------
  const MigrationEngine& engine() const { return *engine_; }
  int64_t epoch() const { return epoch_; }

 private:
  struct MovieState {
    ControllerMovie config;
    std::unique_ptr<RateEstimator> estimator;
    bool alarm_counted = false;  ///< current latch already tallied/emitted
  };

  void EmitEvent(double t, ControllerEvent sub, int32_t movie, int64_t id,
                 double value, uint8_t aux = 0);
  bool ReplanTriggered(double t);
  void Replan(double t);
  void CommitPlan(double t);
  std::vector<PartitionLayout> LiveLayouts() const;

  ControllerOptions options_;
  ControllerHost* host_;
  EventLog* log_;
  std::vector<MovieState> movies_;
  std::unique_ptr<TrafficPolicy> policy_;
  std::unique_ptr<MigrationEngine> engine_;

  bool started_ = false;
  int64_t stream_budget_ = 0;
  double buffer_budget_ = 0.0;
  int64_t epoch_ = 0;
  int64_t plans_solved_ = 0;
  int64_t drift_alarms_ = 0;
  double last_commit_time_ = -1.0;
  double last_migration_start_ = -1e300;

  /// Target of the in-flight migration; becomes committed_ on commit.
  BufferPlan committed_;
  BufferPlan pending_;
  bool pending_valid_ = false;

  /// Sustained-deviation confirmation (armed at a poll that sees a
  /// deviation, fires after kConfirmMinutes of continuous arming).
  bool deviation_armed_ = false;
  double deviation_since_ = 0.0;
};

}  // namespace vod

#endif  // VOD_CTRL_CONTROLLER_H_
