// Graceful-degradation ladder over the shared dynamic stream reserve.
//
// The seed server reproduced the paper's warning as a hard cliff: a dry
// reserve refuses FF/RW outright and stalls resumes. A production server
// must keep serving under disk failures and overload by *degrading policy*,
// not by dropping viewers. ReserveManager wraps the reserve with
// time-varying capacity (fed by storage/fault_injector.h) and walks a
// declared degradation ladder as capacity erodes:
//
//   L0 kNormal       reserve healthy; requests granted immediately.
//   L1 kQueueing     reserve dry: FF/RW requests queue with a retry
//                    deadline and exponential-backoff re-offers instead of
//                    being refused.
//   L2 kShedVcr      deep capacity loss: new VCR phase-1 requests are
//                    denied outright (queue admission closes).
//   L3 kReclaim      capacity fell below in-use (oversubscribed): post-miss
//                    dedicated streams are forcibly reclaimed — their
//                    viewers fall back to pure-batching service (stall
//                    until the next partition window covers them).
//   L4 kBatchingOnly catastrophic loss: every dedicated stream is
//                    reclaimed and all VCR service is denied; the server
//                    runs as a pure batching system until repairs land.
//
// Every transition is recorded (time, from, to) and the time spent in each
// level is integrated, so a run can account for every refusal, stall, and
// degradation episode — no viewer session is ever silently dropped.

#ifndef VOD_SIM_DEGRADATION_H_
#define VOD_SIM_DEGRADATION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/status.h"
#include "obs/event_log.h"
#include "sim/event_queue.h"
#include "sim/stream_supplier.h"
#include "stats/quantile.h"
#include "stats/summary.h"
#include "stats/time_weighted.h"

namespace vod {

/// Rungs of the degradation ladder, shallow to deep.
enum class DegradationLevel {
  kNormal = 0,
  kQueueing = 1,
  kShedVcr = 2,
  kReclaim = 3,
  kBatchingOnly = 4,
};

inline constexpr int kNumDegradationLevels = 5;

/// Short stable name ("normal", "queueing", ...).
const char* DegradationLevelName(DegradationLevel level);

/// First re-offer delay of a queued FF/RW request, in minutes; subsequent
/// retries back off geometrically by kLadderBackoffFactor.
inline constexpr double kLadderBackoffInitialMinutes = 0.25;
inline constexpr double kLadderBackoffFactor = 2.0;
/// Capacity below this fraction of nominal (fault-free) capacity enters
/// kShedVcr.
inline constexpr double kLadderShedBelowFraction = 0.5;
/// Capacity below this fraction of nominal capacity enters kBatchingOnly.
inline constexpr double kLadderBatchingBelowFraction = 0.2;
/// Consecutive calm windows (raw level below the held rung) before the
/// windowed ladder steps down — hysteresis against rung flapping.
inline constexpr int64_t kLadderRecoverWindows = 2;

/// Knobs of the ladder.
struct DegradationPolicy {
  /// Master switch. Off = the seed's hard-refusal semantics (requests are
  /// never queued, nothing is reclaimed); levels are still tracked for
  /// reporting when capacity varies.
  bool enabled = false;
  /// Longest a queued FF/RW request may wait before it is refused.
  double queue_deadline_minutes = 5.0;

  Status Validate() const;
};

/// One recorded ladder transition.
struct DegradationTransition {
  double time = 0.0;
  DegradationLevel from = DegradationLevel::kNormal;
  DegradationLevel to = DegradationLevel::kNormal;
  int64_t capacity = 0;  ///< reserve capacity when the transition fired
};

/// A ladder's history over a run: the transition log, the time spent at
/// each rung, and the durations of completed excursions out of kNormal.
/// ReserveManager keeps one per server, the sharded barrier one per run;
/// each adds its own time_in_level terms (per excursion or per window).
struct LadderHistory {
  /// Bound on the stored log; total_transitions keeps the true count so
  /// long runs cannot exhaust memory through level flapping.
  static constexpr size_t kMaxStoredTransitions = 10000;

  std::vector<DegradationTransition> transitions;  ///< first (capped)
  int64_t total_transitions = 0;
  double time_in_level[kNumDegradationLevels] = {0, 0, 0, 0, 0};
  double excursion_start = 0.0;  ///< valid while the rung is not kNormal
  RunningStats recovery_times;   ///< completed excursions (time-to-recover)

  /// Logs a rung change at t and closes or opens an excursion.
  void Record(double t, DegradationLevel from, DegradationLevel to,
              int64_t capacity);
};

/// \brief Deadline + exponential-backoff wait queue for FF/RW requests the
/// reserve cannot grant at once (the kQueueing rung).
///
/// ReserveManager and CreditStreamSupplier derive from it. Each owner keeps
/// its "may queue" gate in TryQueueAcquire (EnqueueVcr or DenyVcr), its
/// "may grant" gate (MayGrantQueued), the stream hand-out (GrantQueued) and
/// an optional level hook (OnQueueChanged). A request's deadline event is
/// scheduled before its first retry; every re-offer — any waiter's retry
/// timer or the owner's DrainVcrQueue — serves the longest-waiting request
/// first. Outcome counters cover requests enqueued at or after
/// `measurement_start`, each wait episode classified by its enqueue time,
/// so queued == grants + expirations + pending holds exactly across the
/// warmup boundary.
class VcrWaitQueue {
 public:
  int64_t queue_length() const {
    return static_cast<int64_t>(waiting_.size());
  }
  int64_t vcr_queued() const { return queued_; }
  int64_t vcr_queue_grants() const { return grants_; }
  int64_t vcr_queue_expirations() const { return expirations_; }
  int64_t vcr_denied() const { return denied_; }
  /// Waiters still queued whose request arrived inside the measurement
  /// window (the `pending` term of the queued-accounting identity).
  int64_t measured_queue_pending() const;
  const RunningStats& queued_wait() const { return wait_; }
  const LatencyQuantiles& queued_wait_quantiles() const {
    return wait_quantiles_;
  }

 protected:
  VcrWaitQueue() = default;
  ~VcrWaitQueue() = default;
  // Scheduled retry and deadline events hold the queue's address.
  VcrWaitQueue(const VcrWaitQueue&) = delete;
  VcrWaitQueue& operator=(const VcrWaitQueue&) = delete;

  /// Arms the queue: deadline from `policy`, retry and deadline events on
  /// `events` (which must outlive the owner).
  void ArmVcrQueue(const DegradationPolicy& policy, EventQueue* events,
                   double measurement_start);
  bool vcr_queue_armed() const { return events_ != nullptr; }
  const DegradationPolicy& policy() const { return policy_; }
  bool InMeasurement(double t) const { return t >= measurement_start_; }

  /// Queues a request the owner's "may queue" gate admitted.
  void EnqueueVcr(double t, std::function<void(double, bool)> on_decision);
  /// Counts a request the owner's "may queue" gate turned away.
  void DenyVcr(double t) {
    if (InMeasurement(t)) ++denied_;
  }
  /// Grants to queued waiters, FIFO, while MayGrantQueued holds.
  void DrainVcrQueue(double t);

  /// The owner's "may grant" gate.
  virtual bool MayGrantQueued() const = 0;
  /// Hands one stream to the waiter just taken off the queue.
  virtual void GrantQueued(double t) = 0;
  /// Runs after an enqueue, after each grant (before the waiter's
  /// callback) and after an expiry.
  virtual void OnQueueChanged(double t) { (void)t; }

 private:
  struct Waiter {
    uint64_t id = 0;
    double enqueued = 0.0;
    double deadline = 0.0;
    double backoff = 0.0;
    std::function<void(double, bool)> on_decision;
    EventToken deadline_token = kNoEvent;
    EventToken retry_token = kNoEvent;
  };

  void OnRetry(double t, uint64_t waiter_id);
  void OnDeadline(double t, uint64_t waiter_id);
  std::deque<Waiter>::iterator FindWaiter(uint64_t waiter_id);

  DegradationPolicy policy_;
  EventQueue* events_ = nullptr;
  double measurement_start_ = 0.0;
  std::deque<Waiter> waiting_;
  uint64_t next_waiter_id_ = 0;
  int64_t queued_ = 0;
  int64_t grants_ = 0;
  int64_t expirations_ = 0;
  int64_t denied_ = 0;
  RunningStats wait_;
  LatencyQuantiles wait_quantiles_;
};

// ---- windowed cross-shard ladder -----------------------------------------
//
// The sharded coordinator (sim/sharded_server) cannot run ReserveManager:
// the ladder there is inherently cross-shard-live, but shards only meet at
// window barriers. Instead each shard accumulates pressure locally and the
// barrier folds the per-movie sums into ONE global rung decision per window
// using the pure functions below. ReserveManager computes its live rung
// with the same function over its own state. Both engines' rungs answer to
// the same audit laws (ladder-level-range, ladder-continuity);
// StepWindowedLadder's hysteresis is pinned by its unit tests.

/// Global pressure summed across shards at a window barrier.
struct WindowedPressure {
  int64_t capacity = 0;          ///< current reserve capacity (post-faults)
  int64_t nominal_capacity = 0;  ///< fault-free reserve capacity
  int64_t sum_held = 0;          ///< Σ shard-held dedicated streams
  int64_t sum_queued = 0;        ///< Σ shard queue depth (waiting FF/RW)
};

/// Barrier-owned ladder state. `below_streak` counts consecutive windows
/// whose raw (memoryless) level sat strictly below the held level — the
/// hysteresis that keeps one quiet window from instantly lifting a rung.
struct WindowedLadderState {
  DegradationLevel level = DegradationLevel::kNormal;
  int64_t below_streak = 0;
};

/// Memoryless rung for the pressure: deep capacity loss first, then
/// oversubscription, shedding and queueing.
DegradationLevel ComputeWindowedLevel(const WindowedPressure& pressure);

/// One barrier step of the windowed ladder: degradation (raw above held
/// level) applies immediately; recovery (raw below) must persist for
/// kLadderRecoverWindows consecutive windows before the rung drops to raw.
WindowedLadderState StepWindowedLadder(const WindowedLadderState& state,
                                       const WindowedPressure& pressure);

/// \brief Stream reserve with time-varying capacity and a degradation ladder.
///
/// Implements StreamSupplier so MovieWorld uses it unchanged for the grant
/// path; the queueing path goes through TryQueueAcquire. Reclaim is
/// delegated to a hook the server installs (it knows the movie worlds).
class ReserveManager final : public StreamSupplier, public VcrWaitQueue {
 public:
  /// `queue` must outlive the manager. Counters that pair with per-movie
  /// metrics (queue outcomes, denials, waits) honor `measurement_start`
  /// exactly like SimulationMetrics; raw acquire/refuse counters cover the
  /// whole run.
  ReserveManager(int64_t nominal_capacity, const DegradationPolicy& policy,
                 EventQueue* queue, double measurement_start);

  // ---- StreamSupplier -----------------------------------------------------
  bool TryAcquire(double t) override;
  void Release(double t) override;
  int64_t in_use() const override { return in_use_; }
  bool TryQueueAcquire(
      double t, std::function<void(double, bool)> on_decision) override;

  // ---- fault wiring -------------------------------------------------------
  /// Applies a capacity change (failure or repair). May trigger forced
  /// reclaim through the hook when the pool becomes oversubscribed or the
  /// ladder reaches kBatchingOnly.
  void SetCapacity(double t, int64_t capacity);

  /// Reclaims up to `need` dedicated streams across the movie worlds,
  /// returning how many were actually reclaimed. Installed by the server.
  using ReclaimHook = std::function<int64_t(double t, int64_t need)>;
  void set_reclaim_hook(ReclaimHook hook) { reclaim_hook_ = std::move(hook); }

  /// Puts each ladder transition on `log` (a kDegradation record: sub = to,
  /// aux = from, value = capacity) as it is recorded. Null = no trace.
  void set_event_log(EventLog* log) { event_log_ = log; }

  /// Closes the time-in-level integration at the horizon. Call once, after
  /// the event queue drains.
  void Finalize(double t);

  // ---- state --------------------------------------------------------------
  DegradationLevel level() const { return level_; }
  int64_t capacity() const { return capacity_; }
  int64_t nominal_capacity() const { return nominal_capacity_; }
  int64_t min_capacity_seen() const { return min_capacity_seen_; }
  int64_t oversubscription() const {
    return in_use_ > capacity_ ? in_use_ - capacity_ : 0;
  }
  int64_t max_oversubscription() const { return max_oversubscription_; }

  // ---- whole-run counters -------------------------------------------------
  int64_t refused() const { return refused_; }
  int64_t acquired() const { return acquired_; }
  int64_t peak_in_use() const { return peak_; }
  double MeanInUse(double t_end) const { return usage_.TimeAverage(t_end); }

  // ---- resilience accounting (measurement window only) --------------------
  int64_t forced_reclaims() const { return forced_reclaims_; }

  // ---- ladder accounting (whole run) --------------------------------------
  const LadderHistory& history() const { return history_; }
  const std::vector<DegradationTransition>& transitions() const {
    return history_.transitions;
  }
  int64_t total_transitions() const { return history_.total_transitions; }
  /// Time spent at `level` up to the last Finalize/transition.
  double time_in_level(DegradationLevel level) const {
    return history_.time_in_level[static_cast<int>(level)];
  }
  /// Durations of completed excursions out of kNormal (time-to-recover).
  const RunningStats& recovery_times() const {
    return history_.recovery_times;
  }

 private:
  // ---- VcrWaitQueue -------------------------------------------------------
  bool MayGrantQueued() const override {
    return in_use_ < capacity_ && ComputeLevel() < DegradationLevel::kShedVcr;
  }
  void GrantQueued(double t) override { GrantStream(t); }
  void OnQueueChanged(double t) override { UpdateLevel(t); }

  /// Pure function of (capacity, in_use, queue) → ladder rung.
  DegradationLevel ComputeLevel() const;
  /// Records a level change (if any) at time t and runs entry actions
  /// (reclaim on kReclaim / kBatchingOnly).
  void UpdateLevel(double t);
  void GrantStream(double t);  // raw in_use_++ bookkeeping

  int64_t nominal_capacity_;
  int64_t capacity_;
  /// True when the rung cannot leave kNormal while capacity stays nominal:
  /// the ladder is off, so nothing queues and in_use never passes capacity,
  /// and full capacity sits above both ladder thresholds. UpdateLevel then
  /// returns at once.
  bool normal_at_full_capacity_;

  int64_t in_use_ = 0;
  int64_t peak_ = 0;
  int64_t refused_ = 0;
  int64_t acquired_ = 0;
  int64_t min_capacity_seen_;
  int64_t max_oversubscription_ = 0;
  TimeWeightedValue usage_;

  DegradationLevel level_ = DegradationLevel::kNormal;
  double level_since_ = 0.0;
  LadderHistory history_;
  int64_t forced_reclaims_ = 0;

  ReclaimHook reclaim_hook_;
  bool reclaiming_ = false;  ///< guards against reclaim reentrancy
  EventLog* event_log_ = nullptr;
};

}  // namespace vod

#endif  // VOD_SIM_DEGRADATION_H_
