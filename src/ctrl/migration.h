// Bounded-disruption migration from one buffer plan to another.
//
// A re-plan is not applied atomically: buffers and streams move between
// movies in staged steps so that (a) no active viewer stream is ever
// preempted, (b) the system never uses more than its budgets mid-flight,
// and (c) a failure at any point unwinds cleanly to the last committed
// plan. The engine is a time-explicit state machine: the controller pumps
// Advance(t) and schedules the returned wake-up time.
//
// Protocol per migration:
//   1. Steps are built movie-by-movie. A movie shrinking in both
//      dimensions is one reclaim step; growing in both is one grant step;
//      mixed changes decompose through the intermediate layout
//      (min(n_old, n_new), min(B_old, B_new)) — shrink first, grow later.
//   2. All reclaim steps run before any grant step (by movie index), so
//      grants are funded by the freed resources plus configured slack.
//   3. A reclaim commits the smaller layout immediately, but the freed
//      streams/buffer only *land* in the free pool after the old window
//      has drained (old-schedule viewers keep their coverage), modeled as
//      a delay of one old enrollment window plus slack.
//   4. A reclaim attempted while the host reports ReclaimBlocked() (deep
//      degradation) backs off exponentially (capped); exhausting the retry
//      budget rolls the whole migration back. Grants short of resources
//      first wait for in-flight landings; if even those cannot cover (the
//      budget shrank mid-flight), they back off and then roll back.
//   5. Rollback restores the original layout of every applied step in
//      reverse order, ignores ReclaimBlocked (restoring is strictly
//      resource-returning for the movies involved), and starts a cool-down
//      during which the controller must not start another migration.
//
// Conservation invariant (audited by sim/audit): at every instant,
//   sum(live streams) + free streams + in-flight streams == stream budget
// and identically for buffer minutes (within float epsilon).

#ifndef VOD_CTRL_MIGRATION_H_
#define VOD_CTRL_MIGRATION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/partition_layout.h"
#include "ctrl/host.h"
#include "obs/event_log.h"

namespace vod {

/// Migration engine knobs.
struct MigrationOptions {
  /// Extra drain margin added to the old enrollment window before freed
  /// resources land in the pool.
  double drain_slack_minutes = 1.0;
  /// Blocked-step backoff: initial delay, growth factor, cap, and how many
  /// consecutive blocked attempts a single step tolerates before the
  /// migration rolls back.
  double backoff_initial_minutes = 2.0;
  double backoff_factor = 2.0;
  double backoff_max_minutes = 30.0;
  int max_retries = 5;
  /// Quiet period after a rollback before the next migration may start.
  double rollback_cooldown_minutes = 60.0;

  Status Validate() const;
};

/// One staged layout change for one movie.
struct MigrationStep {
  int32_t movie = -1;
  bool reclaim = false;  ///< true: shrinking step; false: growing step
  PartitionLayout from;
  PartitionLayout to;
};

/// \brief Decomposes current -> target into ordered migration steps:
/// reclaims (ascending movie index) then grants. Movies whose layouts
/// already match produce no step. The vectors must be index-aligned.
std::vector<MigrationStep> BuildMigrationSteps(
    const std::vector<PartitionLayout>& current,
    const std::vector<PartitionLayout>& target);

/// \brief Executes one migration at a time against a ControllerHost.
class MigrationEngine {
 public:
  /// How the last migration ended. kNone while one is in flight (or before
  /// the first Begin).
  enum class Outcome : uint8_t { kNone = 0, kCommitted = 1, kRolledBack = 2 };

  /// Budgets are system-wide totals; `free_*` is the slack not held by any
  /// live layout at construction time (budget - sum of initial layouts).
  /// `log` is optional telemetry (kController events) and must outlive the
  /// engine when set.
  MigrationEngine(const MigrationOptions& options, int64_t stream_budget,
                  double buffer_budget, int64_t free_streams,
                  double free_buffer, EventLog* log);

  /// Starts a migration at time t. Returns false (and does nothing) when
  /// `steps` is empty, a migration is already in flight, or the rollback
  /// cool-down has not expired.
  bool Begin(double t, std::vector<MigrationStep> steps, int64_t epoch);

  /// Pumps the state machine at time t: lands matured reclaims, applies as
  /// many steps as possible, arms backoff on a blocked step, rolls back on
  /// retry exhaustion. Returns the next time the engine wants to run, or
  /// +infinity when idle with nothing draining.
  double Advance(double t, ControllerHost* host);

  /// Aborts an in-flight migration (capacity collapsed mid-flight): rolls
  /// back immediately. No-op when idle.
  void Abort(double t, ControllerHost* host);

  bool InFlight() const { return in_flight_; }
  Outcome last_outcome() const { return outcome_; }
  /// Earliest time a new migration may begin (rollback cool-down).
  double cooldown_until() const { return cooldown_until_; }

  // -- Conservation accounting (feeds the audit snapshot) -----------------
  int64_t stream_budget() const { return stream_budget_; }
  double buffer_budget() const { return buffer_budget_; }
  int64_t free_streams() const { return free_streams_; }
  double free_buffer() const { return free_buffer_; }
  int64_t inflight_streams() const;
  double inflight_buffer() const;

  // -- Lifetime counters (report + metrics) -------------------------------
  int64_t migrations_started() const { return migrations_started_; }
  int64_t migrations_committed() const { return migrations_committed_; }
  int64_t rollbacks() const { return rollbacks_; }
  int64_t steps_planned() const { return steps_planned_; }
  int64_t steps_applied() const { return steps_applied_; }
  int64_t blocked_attempts() const { return blocked_attempts_; }

 private:
  /// A reclaim's freed resources, draining until ready_time. Landings
  /// outlive their migration (a re-plan may begin while earlier reclaims
  /// still drain), so each carries the migration that freed it and a
  /// rollback cancels only its own.
  struct Landing {
    int64_t migration;  ///< migrations_started_ when the reclaim committed
    size_t step_index;
    double ready_time;
    int64_t streams;
    double buffer;
  };

  void EmitEvent(double t, ControllerEvent sub, int32_t movie, int64_t id,
                 double value, uint8_t aux = 0);
  void Land(double t);
  double BackoffDelay() const;
  void Rollback(double t, ControllerHost* host);

  MigrationOptions options_;
  int64_t stream_budget_;
  double buffer_budget_;
  int64_t free_streams_;
  double free_buffer_;
  EventLog* log_;

  bool in_flight_ = false;
  Outcome outcome_ = Outcome::kNone;
  int64_t epoch_ = 0;
  std::vector<MigrationStep> steps_;
  std::vector<size_t> applied_;  ///< indices into steps_, application order
  std::vector<Landing> inflight_;
  size_t next_step_ = 0;
  int retries_ = 0;
  double cooldown_until_ = 0.0;

  int64_t migrations_started_ = 0;
  int64_t migrations_committed_ = 0;
  int64_t rollbacks_ = 0;
  int64_t steps_planned_ = 0;
  int64_t steps_applied_ = 0;
  int64_t blocked_attempts_ = 0;
};

}  // namespace vod

#endif  // VOD_CTRL_MIGRATION_H_
