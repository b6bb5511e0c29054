// One shard of the sharded multi-core server simulation.
//
// A shard owns a subset of the server's movies outright: each movie's event
// kernel (one EventQueue per movie), viewer slab, metrics and stream-credit
// supplier. Nothing a movie touches while a window runs is visible to any
// other movie, let alone another thread, so a shard runs its movies one
// after another, each to the barrier on its own kernel, with the movie's
// pending events and slab cache-resident while it runs. All cross-movie
// coupling (the shared disk reserve, the controller, faults) is quantized to
// the window barriers. There the single-threaded coordinator reads each
// movie's supplier, world and slot in place and writes the next window's
// credit, debt, rung and reclaim quota straight back into them: the
// ThreadPool::ParallelFor join orders every shard write before the
// coordinator's reads, and the next window's dispatch orders the
// coordinator's writes before the shard's. See sharded_server.h
// for the coordinator protocol and DESIGN.md §12 for the full semantics.
//
// The per-movie decomposition is what makes results independent of the
// shard count: every movie's RNG stream is derived from its *global* index,
// every supplier ledger is per movie, and the coordinator visits movies in
// global index order — so moving a movie between shards relocates
// computation without changing a single number.

#ifndef VOD_SIM_SHARD_H_
#define VOD_SIM_SHARD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
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
/// return to local credit. Each grant or release moves one unit between
/// held and credit or debt, so Σ over movies of (held + credit - debt)
/// stays at the capacity lent at the last barrier; the shard-reserve-ledger
/// audit law checks it on the rows the barrier reads, before it re-lends.
///
/// When the degradation ladder is enabled (ArmLadder), the supplier also
/// carries the shard-side half of the windowed cross-shard ladder
/// (sim/degradation.h): the coordinator writes a global rung once per
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
  /// Arms the shard-side ladder machinery. `queue` (the movie's event
  /// kernel) must outlive the supplier; `measurement_start` scopes the
  /// queue-outcome counters exactly like ReserveManager.
  void ArmLadder(const DegradationPolicy& policy, EventQueue* queue,
                 double measurement_start) {
    ArmVcrQueue(policy, queue, measurement_start);
  }
  bool ladder_armed() const { return vcr_queue_armed(); }

  /// Barrier-side rung write, in force from the next window open.
  void SetRung(DegradationLevel rung) { rung_ = rung; }

  /// Window-open hook: re-offers queued requests against the fresh credit
  /// grant and the just-applied rung.
  void OpenWindow(double t) { DrainVcrQueue(t); }

  int64_t held() const { return held_; }
  int64_t credit() const { return credit_; }
  int64_t debt() const { return debt_; }
  /// Cumulative refusals and grants; the coordinator weights next window's
  /// credit split by their change since the last barrier.
  int64_t refused() const { return refused_; }
  int64_t acquired() const { return acquired_; }
  double MeanInUse(double t_end) const { return usage_.TimeAverage(t_end); }

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
    usage_.Set(t, static_cast<double>(held_));
  }

  int64_t credit_ = 0;
  int64_t held_ = 0;
  int64_t debt_ = 0;
  int64_t refused_ = 0;
  int64_t acquired_ = 0;
  TimeWeightedValue usage_{};

  // Windowed-ladder state; inert until ArmLadder.
  DegradationLevel rung_ = DegradationLevel::kNormal;
};

/// \brief One shard: the movies it owns, each with a private event kernel.
///
/// Single-threaded within a window; the coordinator guarantees at most one
/// thread runs a shard at a time and reads or writes its state only between
/// windows.
class ServerShard {
 public:
  /// One movie assigned to this shard.
  struct MovieSlot {
    int32_t global_index = -1;
    /// The movie's event kernel: its world, its supplier's ladder timers
    /// and its window-open re-offers all schedule here. Declared before
    /// the members that point to it, so it is destroyed after them.
    std::unique_ptr<EventQueue> queue;
    std::unique_ptr<CreditStreamSupplier> supplier;
    std::unique_ptr<SimulationMetrics> metrics;
    std::unique_ptr<MovieWorld> world;
    /// Forced-reclaim quota the barrier wrote for the next window open, and
    /// the streams reclaimed against it there; the next barrier reads both
    /// for the shard-ladder-reclaim law. Used only with the ladder armed.
    int64_t reclaim_quota = 0;
    int64_t reclaim_applied = 0;
  };

  explicit ServerShard(int shard_index) : shard_index_(shard_index) {}

  ServerShard(const ServerShard&) = delete;
  ServerShard& operator=(const ServerShard&) = delete;

  /// Events executed so far, summed over the shard's movies.
  uint64_t executed() const;

  /// \brief The shard's private telemetry lane (DESIGN.md §14).
  ///
  /// Movie worlds on this shard emit into the lane instead of the main bus;
  /// with no sinks attached every emission site costs one branch, so a dark
  /// run pays nothing. The coordinator lights the lane before the run
  /// (ArmLane) and takes each window's records at the barrier for the
  /// deterministic (window, shard, time, movie) merge into the main bus.
  /// Lane payloads are deterministic by contract — never wall clock.
  EventLog& lane() { return lane_; }

  /// Lights the lane for the `mask` categories. Records collect in the
  /// window buffer; `ring` (the shard's flight-recorder ring) receives each
  /// window's records in the order the barrier takes them.
  void ArmLane(uint32_t mask, EventRing* ring) {
    lane_.set_mask(mask);
    lane_.AddSink(&lane_buffer_);
    ring_ = ring;
  }

  /// Coordinator-side: moves out the records of the windows run since the
  /// last call, each window time-ordered (see RunWindow).
  std::vector<TraceEvent> TakeLaneRecords() { return lane_buffer_.Take(); }

  std::vector<MovieSlot>& movies() { return movies_; }
  const std::vector<MovieSlot>& movies() const { return movies_; }

  void AddMovie(MovieSlot slot) { movies_.push_back(std::move(slot)); }

  /// Schedules every owned movie's first arrival.
  void Start() {
    for (MovieSlot& m : movies_) m.world->Start();
  }

  /// \brief Runs one window: applies every movie's rung entry actions at
  /// `t_start` (forced reclaim against its barrier quota, then
  /// queued-request re-offers against the fresh credit), then runs each
  /// movie's kernel through `t_end` inclusive, in slot order, and brackets
  /// the window with kShard lane records. Movies emit their records in
  /// turn, so before the close record the window's records are
  /// stable-sorted by time and renumbered: ties across movies fall in
  /// global movie order.
  void RunWindow(double t_start, double t_end);

 private:
  int shard_index_;
  EventLog lane_;
  VectorSink lane_buffer_;
  EventRing* ring_ = nullptr;
  std::vector<MovieSlot> movies_;
};

}  // namespace vod

#endif  // VOD_SIM_SHARD_H_
