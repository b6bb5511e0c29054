// One shard of the sharded multi-core server simulation.
//
// A shard owns a subset of the server's movies outright: their event kernel
// (one EventQueue per shard), viewer slabs, per-movie metrics, and per-movie
// stream-credit suppliers. Nothing a shard touches while a window runs is
// visible to any other thread; all cross-movie coupling (the shared disk
// reserve, the controller, faults) is quantized to the window barriers and
// carried by mailbox messages (common/mailbox.h). See sharded_server.h for
// the coordinator protocol and DESIGN.md §12 for the full semantics.
//
// The per-movie decomposition is what makes results independent of the
// shard count: every movie's RNG stream is derived from its *global* index,
// every supplier ledger is per movie, and every mailbox message is keyed by
// movie — so moving a movie between shards relocates computation without
// changing a single number.

#ifndef VOD_SIM_SHARD_H_
#define VOD_SIM_SHARD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/mailbox.h"
#include "common/rng.h"
#include "ctrl/admission_gate.h"
#include "obs/event_log.h"
#include "sim/degradation.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/movie_world.h"
#include "sim/stream_supplier.h"

namespace vod {

/// \brief Per-movie stream source funded by barrier-granted credits.
///
/// The global reserve is distributed to movies as acquisition credits at
/// every window barrier. Within a window a movie spends only its own
/// credit — TryAcquire refuses when it is exhausted — so no cross-shard
/// state is touched on the hot path. Releases repay retirement debt first
/// (owed after a fault shrank capacity below what was already held), then
/// return to local credit. The coordinator's conservation law:
/// Σ over movies of (held + credit - debt) == global capacity, at every
/// barrier (the shard-reserve-ledger audit law).
///
/// When the degradation ladder is enabled (ArmLadder), the supplier also
/// carries the shard-side half of the windowed cross-shard ladder
/// (sim/degradation.h): the coordinator broadcasts a global rung once per
/// window, and within the window the supplier enforces it locally —
/// admission closes at >= kShedVcr, and refused FF/RW requests may queue
/// in the VcrWaitQueue ReserveManager also uses, granted strictly from this
/// movie's own credit. The
/// queue outcome counters feed the barrier's pressure fold and the
/// shard-ladder-queue conservation law. Unarmed (faults-only) sharded runs
/// are bit-for-bit unchanged.
class CreditStreamSupplier final : public StreamSupplier, public VcrWaitQueue {
 public:
  CreditStreamSupplier() { usage_.Reset(0.0, 0.0); }

  bool TryAcquire(double t) override {
    // The declared shedding order: a deep rung closes admission even if
    // credit is available, as in ReserveManager::TryAcquire.
    if ((ladder_armed() && rung_ >= DegradationLevel::kShedVcr) ||
        credit_ <= 0) {
      ++refused_;
      ++window_refused_;
      return false;
    }
    GrantStream(t);
    return true;
  }

  void Release(double t) override {
    --held_;
    if (debt_ > 0) {
      --debt_;  // retire an over-held stream instead of re-lending it
    } else {
      ++credit_;
    }
    usage_.Set(t, static_cast<double>(held_));
  }

  int64_t in_use() const override { return held_; }

  /// Queues a refused FF/RW request for a deadline-bounded wait, exactly
  /// like ReserveManager::TryQueueAcquire but gated by the windowed rung
  /// instead of a live ladder. No-op (refusal) unless the ladder is armed.
  bool TryQueueAcquire(
      double t, std::function<void(double, bool)> on_decision) override {
    if (!ladder_armed()) return false;
    if (policy().queue_deadline_minutes <= 0.0 ||
        rung_ >= DegradationLevel::kShedVcr) {
      DenyVcr(t);
      return false;
    }
    EnqueueVcr(t, std::move(on_decision));
    return true;
  }

  /// Barrier-side ledger rewrite (coordinator redistribution).
  void SetLedger(int64_t credit, int64_t debt) {
    credit_ = credit;
    debt_ = debt;
  }

  // ---- windowed ladder (shard side) ---------------------------------------
  /// Arms the shard-side ladder machinery. `queue` (the owning shard's
  /// event kernel) must outlive the supplier; `measurement_start` scopes the
  /// queue-outcome counters exactly like ReserveManager.
  void ArmLadder(const DegradationPolicy& policy, EventQueue* queue,
                 double measurement_start) {
    ArmVcrQueue(policy, queue, measurement_start);
  }
  bool ladder_armed() const { return vcr_queue_armed(); }

  /// Coordinator rung broadcast, applied at the window open that drains it.
  void SetRung(DegradationLevel rung) { rung_ = rung; }

  /// Records the barrier-issued reclaim quota and how much of it the shard
  /// actually reclaimed at window open (echoed back for the
  /// shard-ladder-reclaim audit law).
  void NoteReclaim(int64_t quota, int64_t applied) {
    window_quota_ = quota;
    window_reclaimed_ = applied;
  }

  /// Window-open hook: re-offers queued requests against the fresh credit
  /// grant and the just-applied rung.
  void OpenWindow(double t) { DrainVcrQueue(t); }

  int64_t held() const { return held_; }
  int64_t credit() const { return credit_; }
  int64_t debt() const { return debt_; }
  int64_t refused() const { return refused_; }
  int64_t acquired() const { return acquired_; }
  double MeanInUse(double t_end) const { return usage_.TimeAverage(t_end); }

  /// Demand observed since the last barrier (refusals + grants); the
  /// coordinator weights next window's credit split by it, then resets.
  int64_t window_refused() const { return window_refused_; }
  int64_t window_acquired() const { return window_acquired_; }
  /// Reclaim quota received / applied at this window's open (echo terms).
  int64_t window_quota() const { return window_quota_; }
  int64_t window_reclaimed() const { return window_reclaimed_; }
  void ResetWindow() {
    window_refused_ = 0;
    window_acquired_ = 0;
    window_quota_ = 0;
    window_reclaimed_ = 0;
  }

 private:
  // ---- VcrWaitQueue: grants spend this movie's own credit ----------------
  bool MayGrantQueued() const override {
    return credit_ > 0 && rung_ < DegradationLevel::kShedVcr;
  }
  void GrantQueued(double t) override { GrantStream(t); }

  void GrantStream(double t) {
    --credit_;
    ++held_;
    ++acquired_;
    ++window_acquired_;
    usage_.Set(t, static_cast<double>(held_));
  }

  int64_t credit_ = 0;
  int64_t held_ = 0;
  int64_t debt_ = 0;
  int64_t refused_ = 0;
  int64_t acquired_ = 0;
  int64_t window_refused_ = 0;
  int64_t window_acquired_ = 0;
  TimeWeightedValue usage_{};

  // Windowed-ladder state; inert until ArmLadder.
  DegradationLevel rung_ = DegradationLevel::kNormal;
  int64_t window_quota_ = 0;
  int64_t window_reclaimed_ = 0;
};

/// \brief Admission gate that records offered arrivals instead of deciding.
///
/// In sharded mode the controller lives above the barrier and cannot be
/// consulted per arrival. Every arrival is admitted shard-side, and the
/// (time, movie) record is replayed into the controller's rate estimators
/// at the next barrier. Pressure-driven shedding still happens — but
/// through the windowed rung the barrier broadcasts to every supplier
/// (admission closes at >= kShedVcr), not per arrival; the decision lags
/// live pressure by at most one window.
class RecordingGate final : public AdmissionGate {
 public:
  struct Offered {
    double t = 0.0;
    int32_t movie = -1;
  };

  bool OnArrival(int32_t movie, double t) override {
    offered_.push_back(Offered{t, movie});
    return true;
  }

  /// Coordinator-side: moves out everything recorded this window.
  std::vector<Offered> TakeOffered() {
    std::vector<Offered> out;
    out.swap(offered_);
    return out;
  }

 private:
  std::vector<Offered> offered_;
};

/// Message kinds on the shard <-> coordinator mailboxes. Every message is
/// keyed by global movie index, so for a fixed configuration the per-movie
/// message stream is identical for every shard count.
enum ShardMessageKind : uint32_t {
  /// shard -> coordinator, one per movie per window:
  /// a=held, b=credit, c=debt, x=window_refused, y=window_acquired.
  kShardMsgLedger = 1,
  /// shard -> coordinator, one per movie per window:
  /// a=entered, b=exited, c=live.
  kShardMsgViewers = 2,
  /// coordinator -> shard: a=credit, b=debt.
  kShardMsgCreditSet = 3,
  /// coordinator -> shard: a=streams, x=movie_length, y=buffer_minutes
  /// (a controller layout commit, applied at the next window start).
  kShardMsgLayout = 4,
  /// shard -> coordinator, one per movie per window when the ladder is
  /// armed: a=queue_length, b=vcr_queued, c=vcr_queue_grants,
  /// x=vcr_queue_expirations, y=measured_queue_pending. (The double fields
  /// carry integer counts; they are exact well past any feasible count.)
  kShardMsgLadderPressure = 5,
  /// shard -> coordinator, one per movie per window when the ladder is
  /// armed: a=reclaim quota received at window open, b=streams actually
  /// reclaimed against it.
  kShardMsgReclaimEcho = 6,
  /// coordinator -> shard, one per movie per window when the ladder is
  /// armed: a=global rung, b=this movie's forced-reclaim quota.
  kShardMsgRung = 7,
};

/// \brief One shard: a private event kernel plus the movies it owns.
///
/// Single-threaded within a window; the coordinator guarantees at most one
/// thread runs a shard at a time and reads its state only between windows.
class ServerShard {
 public:
  /// One movie assigned to this shard.
  struct MovieSlot {
    int32_t global_index = -1;
    std::unique_ptr<CreditStreamSupplier> supplier;
    std::unique_ptr<SimulationMetrics> metrics;
    std::unique_ptr<MovieWorld> world;
    /// Reclaim quota from the latest rung message, consumed at window open.
    int64_t pending_reclaim = 0;
  };

  ServerShard(int shard_index, ShardMailbox* inbox, ShardMailbox* outbox)
      : shard_index_(shard_index), inbox_(inbox), outbox_(outbox) {}

  ServerShard(const ServerShard&) = delete;
  ServerShard& operator=(const ServerShard&) = delete;

  EventQueue& queue() { return queue_; }
  RecordingGate& gate() { return gate_; }
  int shard_index() const { return shard_index_; }

  /// \brief The shard's private telemetry lane (DESIGN.md §14).
  ///
  /// Movie worlds on this shard emit into the lane instead of the main bus;
  /// with no sinks attached every emission site costs one branch, so a dark
  /// run pays nothing. The coordinator arms the lane before the run (mask +
  /// buffer/ring sinks) and drains lane_buffer() at each barrier for the
  /// deterministic (window, shard, local-seq) merge into the main bus. Lane
  /// payloads are deterministic by contract — never wall clock.
  EventLog& lane() { return lane_; }
  VectorSink& lane_buffer() { return lane_buffer_; }

  std::vector<MovieSlot>& movies() { return movies_; }
  const std::vector<MovieSlot>& movies() const { return movies_; }

  void AddMovie(MovieSlot slot) { movies_.push_back(std::move(slot)); }

  /// Schedules every owned movie's first arrival.
  void Start() {
    for (MovieSlot& m : movies_) m.world->Start();
  }

  /// \brief Runs one window: drains the inbox (credit grants, layout
  /// commits, rung broadcasts), applies rung entry actions (forced reclaim
  /// against the barrier quota, queued-request re-offers), executes all
  /// events up to and including `t_end`, then posts one ledger and one
  /// viewer summary — plus ladder pressure and reclaim-echo messages when
  /// the ladder is armed — per owned movie.
  ///
  /// `t_start` is the barrier time the drained messages were posted at;
  /// layout commits re-anchor there (never in this window's past).
  void RunWindow(double t_start, double t_end);

 private:
  int shard_index_;
  ShardMailbox* inbox_;   ///< coordinator -> this shard
  ShardMailbox* outbox_;  ///< this shard -> coordinator
  EventQueue queue_;
  RecordingGate gate_;
  EventLog lane_;
  VectorSink lane_buffer_;
  std::vector<MovieSlot> movies_;
};

}  // namespace vod

#endif  // VOD_SIM_SHARD_H_
