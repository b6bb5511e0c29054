// Runtime invariant auditor for the simulation engines.
//
// Interactive VCR handling plus dynamic buffer/stream bookkeeping is exactly
// where silent state corruption hides: a leaked dedicated stream, a partition
// pair that drifted into overlap, or a degradation transition that skipped a
// recorded rung will not crash the run — it will quietly bias every number in
// the final report. The auditor re-derives the system's conservation laws
// from live state every K executed events (K = 1 in --paranoid mode) and
// reports violations through Status with a tail of recently executed events,
// instead of aborting: a long sweep keeps its completed work and the caller
// decides whether to fail the run.
//
// Invariants checked (names are stable; tests assert on them):
//   stream-conservation   supplier in_use == Σ per-movie dedicated holds
//   negative-streams      no stream counter below zero (double release)
//   capacity-bound        in_use <= capacity unless a fault shrank capacity
//                         below nominal (legal oversubscription drains)
//   capacity-exceeds-nominal  repaired capacity never exceeds nominal
//   partition-overlap     a movie's buffer partitions are pairwise disjoint
//   partition-budget      Σ partition sizes <= the movie's buffer budget B
//   ladder-level-range    degradation level is a real rung
//   ladder-continuity     recorded transitions chain from->to without a
//                         skipped or rewritten step, times non-decreasing,
//                         and end at the current level
//   ctrl-stream-conservation  Σ live layout streams + free + in-flight ==
//                         the controller's stream budget across migrations
//   ctrl-buffer-conservation  same for buffer minutes (within epsilon)
//   ctrl-no-double-grant  applied migration steps never exceed planned ones
//   ctrl-epoch-monotonic  the committed plan epoch never moves backward
//
// Cross-shard laws (checked by the sharded-server coordinator at barriers):
//   shard-reserve-ledger  Σ per-movie (held + credit - debt) == the global
//                         reserve capacity — shard grants never mint or
//                         leak capacity
//   shard-credit-negative no per-movie held/credit/debt counter below zero
//   shard-ladder-rung     the windowed global rung is exactly the pure
//                         StepWindowedLadder function of the previous state
//                         and the summed pressure (no rung invented or
//                         hysteresis skipped)
//   shard-ladder-reclaim  per movie, forced reclaims applied <= quota, and
//                         Σ echoed quotas == the quota the barrier issued
//                         last window (no reclaim minted or lost)
//   shard-ladder-queue    per movie, queued == grants + expirations +
//                         pending across windows (no queued viewer lost)

#ifndef VOD_SIM_AUDIT_H_
#define VOD_SIM_AUDIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/partition_layout.h"
#include "obs/event_log.h"
#include "sim/degradation.h"

namespace vod {

/// Auditing knobs, carried by SimulationOptions / ServerOptions.
struct AuditOptions {
  bool enabled = false;
  /// Executed events between full invariant sweeps; 1 = check after every
  /// event (paranoid mode).
  int64_t every_events = 1024;
  /// Recently executed events kept for the violation diagnostic.
  int trace_tail = 16;

  Status Validate() const;
};

/// One detected invariant violation.
struct AuditViolation {
  double time = 0.0;
  uint64_t event_index = 0;   ///< executed-event count when detected
  std::string invariant;      ///< stable name from the table above
  std::string detail;
};

/// One buffer partition in offset space (start within the restart period).
struct AuditPartition {
  double start = 0.0;
  double size = 0.0;
};

/// \brief Point-in-time view of everything the auditor checks.
///
/// Producers (the simulators) fill this from live state; tests fill it with
/// deliberately corrupted values to prove each invariant fires.
struct AuditSnapshot {
  double time = 0.0;
  /// Streams the supplier believes are handed out.
  int64_t supplier_in_use = 0;
  /// Current reserve capacity; -1 = unlimited supply (single-movie runs).
  int64_t supplier_capacity = -1;
  /// Fault-free capacity; -1 when the supply is unlimited.
  int64_t nominal_capacity = -1;
  /// Σ dedicated streams the movie worlds believe they hold.
  int64_t sum_world_holds = 0;
  /// Current degradation rung, or -1 when no ladder is active.
  int degradation_level = -1;
  /// Recorded ladder transitions (borrowed; may be null).
  const std::vector<DegradationTransition>* transitions = nullptr;
  /// True transition count; the stored log is capped, and the "log ends at
  /// the live level" check only applies while nothing has been dropped.
  /// -1 = the log is complete.
  int64_t total_transitions = -1;

  struct MovieBuffers {
    std::string name;
    double budget = 0.0;  ///< B, in movie-minutes
    std::vector<AuditPartition> partitions;
  };
  std::vector<MovieBuffers> movies;

  /// \brief Control-plane conservation view (ctrl/migration.h ledger).
  ///
  /// Filled when the reallocation controller runs. The migration engine
  /// moves streams and buffer between movies through a free pool and
  /// draining in-flight landings; at every instant the three must sum to
  /// the budget, applied steps can never outrun planned ones, and the plan
  /// epoch only moves forward.
  struct ControllerState {
    bool enabled = false;
    int64_t stream_budget = 0;
    double buffer_budget = 0.0;
    int64_t sum_live_streams = 0;  ///< Σ live layout streams across movies
    double sum_live_buffer = 0.0;  ///< Σ live layout buffer minutes
    int64_t free_streams = 0;
    double free_buffer = 0.0;
    int64_t inflight_streams = 0;
    double inflight_buffer = 0.0;
    int64_t epoch = 0;
    int64_t steps_applied = 0;
    int64_t steps_planned = 0;
  };
  ControllerState controller;

  /// \brief Cross-shard conservation view (sharded server barriers).
  ///
  /// Filled by the sharded-run coordinator at a window barrier from each
  /// movie's state, read in place. Stream reserve is distributed as
  /// per-movie credits: at any barrier Σ(held + credit - debt) over movies
  /// must equal the global capacity, and no counter may go negative.
  struct ShardState {
    bool enabled = false;
    /// Global reserve capacity at this barrier (post-fault).
    int64_t capacity = 0;

    struct MovieLedger {
      int32_t movie = -1;
      int64_t held = 0;    ///< dedicated streams this movie's viewers hold
      int64_t credit = 0;  ///< unspent acquisition credit
      int64_t debt = 0;    ///< retirement owed after a capacity loss
      int64_t entered = 0;  ///< viewers admitted so far (digest term)
      int64_t exited = 0;   ///< viewers departed so far (digest term)
      // Windowed-ladder terms (meaningful when shard.ladder.enabled):
      int64_t vcr_queued = 0;         ///< cumulative measured queue entries
      int64_t queue_grants = 0;       ///< cumulative measured queue grants
      int64_t queue_expirations = 0;  ///< cumulative measured expirations
      int64_t queue_pending = 0;      ///< measured waiters still queued
      int64_t reclaim_quota = 0;      ///< quota applied at last window open
      int64_t reclaim_applied = 0;    ///< streams reclaimed against it
    };
    std::vector<MovieLedger> movies;

    /// \brief Windowed cross-shard ladder view (one decision per barrier).
    ///
    /// The barrier publishes its rung decision here so the auditor can
    /// recompute it from first principles: next == StepWindowedLadder(prev,
    /// pressure, policy, recover_windows), with pressure summed from the
    /// per-movie ledgers above. Quota and queue conservation ride on the
    /// MovieLedger ladder terms.
    struct Ladder {
      bool enabled = false;
      int prev_level = 0;          ///< rung before this barrier's decision
      int64_t prev_streak = 0;     ///< below-streak before the decision
      int next_level = 0;          ///< rung the barrier decided
      int64_t next_streak = 0;     ///< below-streak after the decision
      int64_t nominal_capacity = 0;
      int64_t sum_held = 0;        ///< pressure term the barrier summed
      int64_t sum_queued = 0;      ///< pressure term the barrier summed
      double shed_below_fraction = 0.0;
      double batching_below_fraction = 0.0;
      int64_t recover_windows = 1;
      /// Total forced-reclaim quota the barrier issued at the *previous*
      /// window close (what this window's echoes must sum to).
      int64_t quota_issued_prev = 0;
    };
    Ladder ladder;
  };
  ShardState shard;
};

/// Expands a movie's static partition layout (n windows of B/n minutes, one
/// per restart offset) into the auditor's buffer view.
AuditSnapshot::MovieBuffers BuildMovieAuditBuffers(
    const std::string& name, const PartitionLayout& layout);

/// \brief Cadenced invariant checker with an event-trace tail.
///
/// Not thread-safe; lives on the (single-threaded) event loop of one run.
class InvariantAuditor {
 public:
  explicit InvariantAuditor(const AuditOptions& options);

  /// Called by the event-loop observer after every executed event. Cheap:
  /// one counter bump plus a ring-buffer write.
  void RecordEvent(double t);

  /// True when `every_events` have executed since the last Audit().
  bool AuditDue() const {
    return options_.enabled && events_since_audit_ >= options_.every_events;
  }

  /// Runs every invariant against `snapshot`, recording violations (capped;
  /// the count stays exact) and resetting the cadence counter.
  void Audit(const AuditSnapshot& snapshot);

  int64_t audits_run() const { return audits_run_; }
  int64_t events_seen() const { return events_seen_; }
  int64_t total_violations() const { return total_violations_; }
  const std::vector<AuditViolation>& violations() const { return violations_; }

  /// \brief The event-trace tail, shared with the observability layer.
  ///
  /// The tail is an obs/event_log EventRing of TraceEvent records — the
  /// same record format every other sink uses. RecordEvent appends a kTick
  /// record per executed event; when a run also traces rich categories, the
  /// caller may register this ring as a sink on its EventLog so violation
  /// diagnostics carry admission/resume/fault context too.
  EventRing* trace_ring() { return &recent_; }
  const EventRing& trace_ring() const { return recent_; }

  /// OK when no violation was ever recorded; otherwise Internal carrying the
  /// first violation, the total count, and the event-trace tail.
  Status status() const;

 private:
  void AddViolation(double t, const char* invariant, std::string detail);
  // The law families Audit runs, in order.
  void AuditStreams(const AuditSnapshot& s);
  void AuditPartitions(const AuditSnapshot& s);
  void AuditControllerLedger(const AuditSnapshot& s);
  void AuditShardLedgers(const AuditSnapshot& s);
  void AuditLadder(const AuditSnapshot& s);
  std::string TraceTail() const;

  AuditOptions options_;
  /// Highest controller epoch seen; the monotonicity law compares against
  /// it across Audit() calls.
  int64_t last_controller_epoch_ = -1;
  int64_t events_since_audit_ = 0;
  int64_t events_seen_ = 0;
  int64_t audits_run_ = 0;
  int64_t total_violations_ = 0;
  std::vector<AuditViolation> violations_;  ///< capped at kMaxRecorded
  /// Bounded ring of recently executed events (obs TraceEvent records).
  EventRing recent_;

  static constexpr int64_t kMaxRecorded = 32;
};

}  // namespace vod

#endif  // VOD_SIM_AUDIT_H_
