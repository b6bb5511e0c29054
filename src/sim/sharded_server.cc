#include "sim/sharded_server.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/serialize.h"
#include "common/thread_pool.h"
#include "obs/flight_recorder.h"
#include "sim/server_driver.h"
#include "sim/shard.h"

namespace vod {

namespace {

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Barrier windows of ledger history the flight recorder retains.
constexpr size_t kPostmortemWindows = 16;
/// Trace events each shard's flight-recorder ring retains. The rings only
/// fill while the shard telemetry lanes are lit — tracing enabled or a
/// postmortem path set — so a dark run pays nothing per event.
constexpr size_t kPostmortemEventsPerShard = 256;

uint64_t FingerprintConfig(const std::vector<ServerMovieSpec>& movies,
                           const ShardedServerOptions& options) {
  // A guard against resuming a checkpoint under a different configuration,
  // not a cryptographic identity. Everything that shapes the trajectory and
  // is cheaply describable goes in; the digest chain catches the rest. The
  // ladder's constants, the controller's poll cadence and the stationary
  // start ("stationary=1") keep their places in the description, which
  // seeds every run's ledger digest.
  std::ostringstream os;
  os << std::setprecision(17);
  const ServerOptions& b = options.base;
  os << "seed=" << b.seed << " reserve=" << b.dynamic_stream_reserve
     << " warmup=" << b.warmup_minutes << " measure=" << b.measurement_minutes
     << " window=" << options.window_minutes << " stationary=1"
     << " piggyback=" << b.piggyback.enabled
     << " faults=" << b.faults.enabled << ":" << b.faults.disks << ":"
     << b.faults.profile.mtbf_minutes << ":" << b.faults.profile.mttr_minutes
     << " controller=" << b.controller.enabled << ":"
     << kControllerPollMinutes
     << " ladder=" << b.degradation.enabled << ":"
     << b.degradation.queue_deadline_minutes << ":"
     << kLadderBackoffInitialMinutes << ":" << kLadderBackoffFactor << ":"
     << kLadderShedBelowFraction << ":" << kLadderBatchingBelowFraction << ":"
     << kLadderRecoverWindows;
  for (const ServerMovieSpec& spec : movies) {
    os << " movie=" << spec.name << ":" << spec.layout.movie_length() << ":"
       << spec.layout.buffer_minutes() << ":" << spec.layout.streams() << ":"
       << spec.arrival_rate_per_minute;
  }
  const std::string desc = os.str();
  uint64_t h = 1469598103934665603ULL;
  for (char c : desc) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

struct ShardedCheckpointState {
  uint64_t fingerprint = 0;
  uint32_t shards = 0;
  int64_t windows_done = 0;
  uint64_t digest = 0;
};

Status WriteShardedCheckpoint(const std::string& path,
                              const ShardedCheckpointState& st) {
  ByteWriter w;
  w.PutU64(st.fingerprint);
  w.PutU32(st.shards);
  w.PutI64(st.windows_done);
  w.PutU64(st.digest);
  return WriteSnapshotFile(path, SnapshotPayload::kShardedRun, w.bytes());
}

Result<ShardedCheckpointState> ReadShardedCheckpoint(const std::string& path) {
  auto payload = ReadSnapshotFile(path, SnapshotPayload::kShardedRun);
  VOD_RETURN_IF_ERROR(payload.status());
  ByteReader r(payload.value());
  ShardedCheckpointState st;
  VOD_RETURN_IF_ERROR(r.ReadU64(&st.fingerprint));
  VOD_RETURN_IF_ERROR(r.ReadU32(&st.shards));
  VOD_RETURN_IF_ERROR(r.ReadI64(&st.windows_done));
  VOD_RETURN_IF_ERROR(r.ReadU64(&st.digest));
  return st;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

// The controller's window onto a sharded run. The controller runs only at
// barriers, when no shard thread is live, so it reads and commits each
// movie's layout on the owning world directly. A commit re-anchors the
// schedule at the barrier time, never in the replayed window's past: the
// world has already run to the barrier. Reclaim is blocked by the windowed
// degradation rung the barrier publishes after each decision (kNormal when
// the ladder is off); the controller replay at barrier w therefore sees the
// rung that was in effect during window w.
class ShardedControllerHost final : public ControllerHost {
 public:
  explicit ShardedControllerHost(std::vector<MovieWorld*> worlds)
      : worlds_(std::move(worlds)) {}

  void CommitLayout(int32_t movie, double t,
                    const PartitionLayout& layout) override {
    (void)t;
    worlds_[static_cast<size_t>(movie)]->ApplyLayout(barrier_time_, layout);
  }
  const PartitionLayout& LiveLayout(int32_t movie) const override {
    return worlds_[static_cast<size_t>(movie)]->layout();
  }
  bool ReclaimBlocked() const override {
    return rung_ >= DegradationLevel::kReclaim;
  }

  /// Barrier-side: the time commits anchor at during this barrier's replay.
  void set_barrier_time(double t) { barrier_time_ = t; }
  /// Barrier-side: publishes the windowed rung decided for the next window.
  void set_rung(DegradationLevel rung) { rung_ = rung; }

 private:
  std::vector<MovieWorld*> worlds_;  ///< global movie index -> world
  double barrier_time_ = 0.0;
  DegradationLevel rung_ = DegradationLevel::kNormal;
};

/// Largest-remainder apportionment of `amount` over `weights` (all
/// non-negative; zero-weight entries get nothing). Returns
/// per-entry shares summing to `amount` exactly; deterministic in the
/// inputs alone.
std::vector<int64_t> Apportion(int64_t amount,
                               const std::vector<int64_t>& weights) {
  const size_t n = weights.size();
  std::vector<int64_t> share(n, 0);
  if (amount <= 0) return share;
  int64_t total_weight = 0;
  for (int64_t w : weights) total_weight += w;
  if (total_weight <= 0) return share;
  int64_t assigned = 0;
  std::vector<std::pair<int64_t, size_t>> remainders;  // (-remainder, index)
  remainders.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t num = amount * weights[i];
    share[i] = num / total_weight;
    assigned += share[i];
    remainders.emplace_back(-(num % total_weight), i);
  }
  std::sort(remainders.begin(), remainders.end());
  for (int64_t left = amount - assigned, k = 0; left > 0; --left, ++k) {
    share[remainders[static_cast<size_t>(k)].second] += 1;
  }
  return share;
}

/// One movie's row of the barrier ledger, as read from its supplier, world
/// and slot: the fields the auditor checks (the ladder ones read only when
/// the ladder is armed) plus the ones the coordinator alone uses.
struct MovieBarrier : AuditSnapshot::ShardState::MovieLedger {
  int64_t demand = 0;       ///< refusals + grants since the last barrier
  int64_t demand_seen = 0;  ///< cumulative refusals + grants at that barrier
  int64_t queue_len = 0;    ///< waiters queued at the barrier
};

/// Executed-event spread across shards in one window (lane fold output).
struct WindowLoad {
  int64_t max_events = 0;
  int64_t min_events = 0;
  int critical_shard = 0;
};

/// The ledger sums after redistribution: Σ held, and the credit and debt
/// lent for the next window.
struct LedgerSums {
  int64_t held = 0;
  int64_t credit = 0;
  int64_t debt = 0;
};

/// The ladder step's input rung and the queue pressure it folded.
struct LadderStep {
  DegradationLevel prev_level = DegradationLevel::kNormal;
  int64_t sum_queued = 0;
};

/// Coordinator-side instruments; all null without a metrics registry.
struct BarrierGauges {
  ReserveGauges reserve;
  Gauge* shard_max = nullptr;
  Gauge* shard_min = nullptr;
  Gauge* shard_critical = nullptr;
  Gauge* credit_granted = nullptr;
  Gauge* debt_assigned = nullptr;
};

/// \brief The state of one sharded run, owned by the single-threaded
/// coordinator.
///
/// Build() wires the shards, the control plane, the auditor and the
/// telemetry; RunShards() is a window's parallel phase; each barrier step is
/// one member function, and RunShardedServerSimulation calls them in order.
/// Every step iterates movies in global index order, so nothing it computes
/// depends on shard placement.
class ShardedRun {
 public:
  ShardedRun(const std::vector<ServerMovieSpec>& movies,
             const ShardedServerOptions& options)
      : movies_(movies),
        options_(options),
        base_(options.base),
        shard_count_(options.shards),
        horizon_(base_.warmup_minutes + base_.measurement_minutes),
        total_windows_(std::max<int64_t>(
            1, static_cast<int64_t>(
                   std::ceil(horizon_ / options.window_minutes)))),
        fingerprint_(FingerprintConfig(movies, options)),
        ladder_on_(base_.degradation.enabled),
        base_rng_(base_.seed),
        capacity_(base_.dynamic_stream_reserve),
        min_capacity_seen_(capacity_),
        digest_(Fnv1a(1469598103934665603ULL, fingerprint_)),
        ctrl_next_wakeup_(kControllerPollMinutes),
        ledger_(movies.size()),
        reclaim_quota_(movies.size(), 0),
        recorder_(shard_count_, kPostmortemWindows,
                  kPostmortemEventsPerShard),
        shard_executed_prev_(static_cast<size_t>(shard_count_), 0),
        shard_window_events_(static_cast<size_t>(shard_count_), 0),
        work_begin_us_(static_cast<size_t>(shard_count_), 0.0),
        work_end_us_(static_cast<size_t>(shard_count_), 0.0),
        worker_of_(static_cast<size_t>(shard_count_)),
        // ParallelFor never runs more than one shard per worker.
        pool_(std::min(options.threads, options.shards)) {}
  // Shards, the controller host and pool workers hold addresses inside the
  // run.
  ShardedRun(const ShardedRun&) = delete;
  ShardedRun& operator=(const ShardedRun&) = delete;

  int64_t total_windows() const { return total_windows_; }

  /// Window w's span (1-based): (t_start, t_end], the last one clipped to
  /// the horizon.
  double WindowStart(int64_t w) const {
    return options_.window_minutes * static_cast<double>(w - 1);
  }
  double WindowEnd(int64_t w) const {
    return std::min(horizon_,
                    options_.window_minutes * static_cast<double>(w));
  }

  /// Whether the stop_after_windows test hook ends the run at window w.
  bool Stopping(int64_t w) const {
    return options_.checkpoint.stop_after_windows > 0 &&
           w >= options_.checkpoint.stop_after_windows && w < total_windows_;
  }

  /// Wires the shards, worlds, control plane, auditor and telemetry, writes
  /// the pre-run credit grant and schedules every world's first arrival.
  Status Build() {
    VOD_RETURN_IF_ERROR(ReadResumePoint());
    shards_.reserve(static_cast<size_t>(shard_count_));
    for (int s = 0; s < shard_count_; ++s) {
      shards_.push_back(std::make_unique<ServerShard>(s));
    }
    VOD_RETURN_IF_ERROR(BuildWorlds());
    if (base_.controller.enabled) {
      std::vector<MovieWorld*> worlds;
      worlds.reserve(slots_.size());
      for (ServerShard::MovieSlot* slot : slots_) {
        worlds.push_back(slot->world.get());
      }
      ctrl_host_ = std::make_unique<ShardedControllerHost>(worlds);
      controller_ = std::make_unique<Controller>(
          base_.controller, ControllerMovies(movies_), ctrl_host_.get(),
          /*log=*/nullptr);
      controller_->Start(0.0);
      arrival_feed_ =
          std::make_unique<ArrivalFeed>(std::move(worlds), controller_.get());
    }
    fault_schedule_ = ServerFaultSchedule(base_, base_rng_, horizon_);
    if (base_.audit.enabled) {
      auditor_ = std::make_unique<InvariantAuditor>(base_.audit);
      AuditSnapshot& s = audit_snapshot_;
      for (const ServerMovieSpec& spec : movies_) {
        s.movies.push_back(BuildMovieAuditBuffers(spec.name, spec.layout));
      }
      s.nominal_capacity = base_.dynamic_stream_reserve;
      s.shard.enabled = true;
      s.shard.ladder = ladder_on_;
      if (ladder_on_) s.transitions = &ladder_.transitions;
    }
    ArmTelemetry();

    // Initial credit grant: the whole reserve, split evenly (no demand yet),
    // written by the same step every barrier runs, so shard 0's path is
    // identical to the N-shard path. With the ladder on, an initial kNormal
    // rung (quota 0) is written with it.
    const std::vector<int64_t> credits =
        Apportion(capacity_, std::vector<int64_t>(movies_.size(), 1));
    for (size_t i = 0; i < movies_.size(); ++i) {
      ledger_[i].movie = static_cast<int32_t>(i);
      ledger_[i].credit = credits[i];
    }
    WriteLedger();
    for (auto& shard : shards_) shard->Start();
    return Status::OK();
  }

  /// The parallel phase: every shard runs its movies' kernels to t_end. Each
  /// worker writes only its own shards' work_begin/end and worker slots, so
  /// the instrumented lambda stays race-free; spans are recorded after the
  /// join to keep the profiler mutex out of the parallel phase. Returns the
  /// join time on the profiler clock (0 without a profiler).
  double RunShards(double t_start, double t_end) {
    pool_.ParallelFor(shard_count_, [&](int64_t s) {
      const double begin_us =
          profiler_ != nullptr ? profiler_->NowMicros() : 0.0;
      shards_[static_cast<size_t>(s)]->RunWindow(t_start, t_end);
      if (profiler_ != nullptr) {
        work_begin_us_[static_cast<size_t>(s)] = begin_us;
        work_end_us_[static_cast<size_t>(s)] = profiler_->NowMicros();
        worker_of_[static_cast<size_t>(s)] = std::this_thread::get_id();
      }
    });
    if (profiler_ == nullptr) return 0.0;
    const double barrier_us = profiler_->NowMicros();
    // A worker waits at the barrier from its last shard's finish to the
    // join. A shard queued behind its worker's other shards was not waiting,
    // so the wait is recorded once per worker, on its last shard's lane.
    std::unordered_map<std::thread::id, size_t> last_on_worker;
    for (size_t s = 0; s < shards_.size(); ++s) {
      const auto [it, first] = last_on_worker.emplace(worker_of_[s], s);
      if (!first && work_end_us_[s] >= work_end_us_[it->second]) {
        it->second = s;
      }
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      profiler_->RecordSpanOnLane(shard_lanes_[s], "shard_work",
                                  work_begin_us_[s], work_end_us_[s]);
      if (last_on_worker[worker_of_[s]] == s) {
        profiler_->RecordSpanOnLane(shard_lanes_[s], "barrier_wait",
                                    work_end_us_[s], barrier_us);
      }
    }
    return barrier_us;
  }

  /// Lane fold: merges the per-shard telemetry lanes into the main bus in
  /// shard-index order and takes each shard's executed-event delta for the
  /// imbalance gauges. Each shard time-sorted its window's records and Emit
  /// restamps the global seq, so merged traces are ordered (window, shard,
  /// time, movie) for any thread count; the main bus mask re-filters every
  /// record. A lane lit only for the flight recorder is drained and dropped.
  WindowLoad FoldLanes() {
    WindowLoad load;
    for (int s = 0; s < shard_count_; ++s) {
      ServerShard& shard = *shards_[static_cast<size_t>(s)];
      const uint64_t executed = shard.executed();
      const auto delta = static_cast<int64_t>(
          executed - shard_executed_prev_[static_cast<size_t>(s)]);
      shard_executed_prev_[static_cast<size_t>(s)] = executed;
      shard_window_events_[static_cast<size_t>(s)] = delta;
      if (s == 0 || delta > load.max_events) {
        load.max_events = delta;
        load.critical_shard = s;
      }
      if (s == 0 || delta < load.min_events) load.min_events = delta;
      const std::vector<TraceEvent> records = shard.TakeLaneRecords();
      if (tracing_) {
        for (const TraceEvent& event : records) event_log_->Emit(event);
      }
    }
    return load;
  }

  /// Ledger read: each movie's row from its supplier, world and slot, in
  /// global movie order, so shard layout cannot reorder anything. An audited
  /// run takes the shard section of its snapshot here, before faults and
  /// redistribution rewrite the rows, against the capacity the last barrier
  /// lent: the cross-shard laws then check the suppliers' own accounting.
  void ReadLedger() {
    for (size_t i = 0; i < ledger_.size(); ++i) {
      const ServerShard::MovieSlot& slot = *slots_[i];
      const CreditStreamSupplier& supplier = *slot.supplier;
      MovieBarrier& mb = ledger_[i];
      mb.held = supplier.held();
      mb.credit = supplier.credit();
      mb.debt = supplier.debt();
      const int64_t seen = supplier.refused() + supplier.acquired();
      mb.demand = seen - mb.demand_seen;
      mb.demand_seen = seen;
      mb.entered = slot.world->viewers_entered();
      mb.exited = slot.world->viewers_exited();
      if (!ladder_on_) continue;
      mb.queue_len = supplier.queue_length();
      mb.vcr_queued = supplier.vcr_queued();
      mb.queue_grants = supplier.vcr_queue_grants();
      mb.queue_expirations = supplier.vcr_queue_expirations();
      mb.queue_pending = supplier.measured_queue_pending();
      mb.reclaim_quota = slot.reclaim_quota;
      mb.reclaim_applied = slot.reclaim_applied;
    }
    if (auditor_ == nullptr) return;
    audit_snapshot_.shard.capacity = capacity_;
    audit_snapshot_.shard.movies.assign(ledger_.begin(), ledger_.end());
  }

  /// Faults: applies every fault event in (t_prev, t_end] — capacity changes
  /// are quantized to window barriers. Returns whether capacity changed.
  bool ApplyFaults(double t_end) {
    bool capacity_changed = false;
    while (fault_idx_ < fault_schedule_.size() &&
           fault_schedule_[fault_idx_].time <= t_end) {
      const FaultEvent& ev = fault_schedule_[fault_idx_++];
      faults_.Count(ev, event_log_);
      capacity_ = ev.capacity_after;
      min_capacity_seen_ = std::min(min_capacity_seen_, capacity_);
      capacity_changed = true;
    }
    return capacity_changed;
  }

  /// Controller replay: the controller's decision wakeups still due by
  /// this barrier, each after every movie's logged arrivals before it; then
  /// the arrivals after the last wakeup. An arrival at a wakeup's time is
  /// observed after it. The window's arrivals are read from each world's
  /// arrival log in place (ArrivalFeed). Re-plans run here, so it gets its
  /// own span inside the fold.
  void ReplayController(double t_end, bool capacity_changed) {
    if (controller_ == nullptr) return;
    ctrl_host_->set_barrier_time(t_end);
    const double start_us =
        profiler_ != nullptr ? profiler_->NowMicros() : 0.0;
    while (ctrl_next_wakeup_ <= t_end && ctrl_next_wakeup_ < horizon_) {
      const double at = ctrl_next_wakeup_;
      arrival_feed_->ObserveBefore(at);
      ctrl_next_wakeup_ = controller_->OnWakeup(at);
    }
    arrival_feed_->Drain();
    if (capacity_changed) controller_->OnCapacityChange(t_end);
    if (profiler_ != nullptr) {
      profiler_->RecordSpanOnLane(coordinator_lane_, "controller_replay",
                                  start_us, profiler_->NowMicros());
    }
  }

  /// Redistribution: sums holds; a surplus becomes credit, split by window
  /// demand; a deficit becomes retirement debt, split by holdings. Either way
  /// Σ(held + credit − debt) == capacity by construction; the ledger law
  /// checks at the next barrier that the shards kept it.
  LedgerSums Redistribute() {
    LedgerSums sums;
    for (const MovieBarrier& mb : ledger_) sums.held += mb.held;
    peak_reserve_ = std::max(peak_reserve_, sums.held);
    max_oversubscription_ =
        std::max(max_oversubscription_, sums.held - capacity_);
    const size_t movie_count = ledger_.size();
    const int64_t free_streams = capacity_ - sums.held;
    std::vector<int64_t> weights(movie_count, 0);
    if (free_streams >= 0) {
      for (size_t i = 0; i < movie_count; ++i) {
        weights[i] = 1 + ledger_[i].demand;
      }
      const std::vector<int64_t> credits = Apportion(free_streams, weights);
      for (size_t i = 0; i < movie_count; ++i) {
        ledger_[i].credit = credits[i];
        ledger_[i].debt = 0;
      }
    } else {
      for (size_t i = 0; i < movie_count; ++i) weights[i] = ledger_[i].held;
      const std::vector<int64_t> debts = Apportion(-free_streams, weights);
      for (size_t i = 0; i < movie_count; ++i) {
        ledger_[i].credit = 0;
        ledger_[i].debt = debts[i];
      }
    }
    for (const MovieBarrier& mb : ledger_) {
      sums.credit += mb.credit;
      sums.debt += mb.debt;
    }
    return sums;
  }

  /// Ladder: folds the summed pressure into one global rung (pure function +
  /// hysteresis), records the change in the history the ladder laws audit,
  /// integrates the time the *outgoing* rung governed, and sizes next
  /// window's forced-reclaim quotas by holdings. The controller host is
  /// updated after stepping, so its replay at the next barrier sees the rung
  /// in effect during that window.
  LadderStep StepLadder(double t_start, double t_end, int64_t sum_held) {
    LadderStep step;
    step.prev_level = ladder_state_.level;
    if (!ladder_on_) return step;
    for (const MovieBarrier& mb : ledger_) step.sum_queued += mb.queue_len;
    ladder_.time_in_level[static_cast<int>(ladder_state_.level)] +=
        t_end - t_start;
    WindowedPressure pressure;
    pressure.capacity = capacity_;
    pressure.nominal_capacity = base_.dynamic_stream_reserve;
    pressure.sum_held = sum_held;
    pressure.sum_queued = step.sum_queued;
    ladder_state_ = StepWindowedLadder(ladder_state_, pressure);
    if (ladder_state_.level != step.prev_level) {
      ladder_.Record(t_end, step.prev_level, ladder_state_.level, capacity_);
      if (ObsEnabled(event_log_, EventCategory::kDegradation)) {
        event_log_->Emit(t_end, EventCategory::kDegradation,
                         static_cast<uint8_t>(ladder_state_.level),
                         /*movie=*/-1, /*id=*/-1,
                         static_cast<double>(capacity_),
                         static_cast<uint8_t>(step.prev_level));
      }
    }
    std::fill(reclaim_quota_.begin(), reclaim_quota_.end(), 0);
    int64_t need = 0;
    if (ladder_state_.level == DegradationLevel::kBatchingOnly) {
      need = sum_held;  // shed everything: pure batching until repairs
    } else if (ladder_state_.level == DegradationLevel::kReclaim) {
      need = std::max<int64_t>(0, sum_held - capacity_);
    }
    if (need > 0) {
      std::vector<int64_t> holds(ledger_.size(), 0);
      for (size_t i = 0; i < ledger_.size(); ++i) holds[i] = ledger_[i].held;
      reclaim_quota_ = Apportion(need, holds);
    }
    if (ctrl_host_ != nullptr) ctrl_host_->set_rung(ladder_state_.level);
    return step;
  }

  /// Telemetry: the barrier record and the coordinator gauges.
  void EmitTelemetry(int64_t w, double t_end, const WindowLoad& load,
                     const LedgerSums& sums, DegradationLevel prev_level) {
    if (ObsEnabled(event_log_, EventCategory::kBarrier)) {
      event_log_->Emit(t_end, EventCategory::kBarrier,
                       static_cast<uint8_t>(ladder_state_.level),
                       /*movie=*/-1, /*id=*/w, static_cast<double>(capacity_),
                       static_cast<uint8_t>(prev_level));
    }
    if (registry_ == nullptr) return;
    const ReserveGauges& reserve = gauges_.reserve;
    reserve.in_use->Set(static_cast<double>(sums.held));
    if (reserve.capacity != nullptr) {
      reserve.capacity->Set(static_cast<double>(capacity_));
    }
    if (reserve.level != nullptr) {
      reserve.level->Set(static_cast<double>(ladder_state_.level));
    }
    gauges_.shard_max->Set(static_cast<double>(load.max_events));
    gauges_.shard_min->Set(static_cast<double>(load.min_events));
    gauges_.shard_critical->Set(static_cast<double>(load.critical_shard));
    gauges_.credit_granted->Set(static_cast<double>(sums.credit));
    gauges_.debt_assigned->Set(static_cast<double>(sums.debt));
    registry_->MaybeSample(t_end);
  }

  /// Audit: the stream and ladder laws the serial engine checks, read live
  /// after faults and the rung step; the cross-shard laws on the rows
  /// ReadLedger took; and (when the controller is live) its resource ledger
  /// and the live partition geometry. Returns whether this barrier produced
  /// the run's first violation.
  bool AuditBarrier(int64_t w, double t_end) {
    if (auditor_ == nullptr) return false;
    AuditSnapshot& s = audit_snapshot_;
    s.time = t_end;
    s.supplier_in_use = 0;
    s.sum_world_holds = 0;
    for (const ServerShard::MovieSlot* slot : slots_) {
      s.supplier_in_use += slot->supplier->held();
      s.sum_world_holds += slot->world->dedicated_streams_held();
    }
    s.supplier_capacity = capacity_;
    if (ladder_on_) {
      s.degradation_level = static_cast<int>(ladder_state_.level);
      s.total_transitions = ladder_.total_transitions;
    }
    if (controller_ != nullptr) {
      FillControllerAudit(*controller_, *ctrl_host_, movies_, &s);
    }
    if (options_.corrupt_audit_window == w && !s.shard.movies.empty()) {
      // Test hook: misstate movie 0's held count in the *snapshot copy*
      // only — the simulation trajectory is untouched, but the
      // shard-reserve-ledger law fires, exercising the flight-recorder
      // dump path end to end.
      s.shard.movies[0].held += 1;
    }
    const int64_t violations_before = auditor_->total_violations();
    auditor_->Audit(s);
    return violations_before == 0 && auditor_->total_violations() > 0;
  }

  /// Digest: extends the trajectory chain with this barrier's ledger (and, with
  /// the ladder on, its rung decision — replay-verify then covers the whole
  /// control surface).
  void ExtendDigest(int64_t w, int64_t sum_queued) {
    digest_ = Fnv1a(digest_, static_cast<uint64_t>(w));
    digest_ = Fnv1a(digest_, static_cast<uint64_t>(capacity_));
    for (const MovieBarrier& mb : ledger_) {
      digest_ = Fnv1a(digest_, static_cast<uint64_t>(mb.held));
      digest_ = Fnv1a(digest_, static_cast<uint64_t>(mb.credit));
      digest_ = Fnv1a(digest_, static_cast<uint64_t>(mb.debt));
      digest_ = Fnv1a(digest_, static_cast<uint64_t>(mb.entered));
      digest_ = Fnv1a(digest_, static_cast<uint64_t>(mb.exited));
    }
    if (ladder_on_) {
      digest_ = Fnv1a(digest_, static_cast<uint64_t>(ladder_state_.level));
      digest_ =
          Fnv1a(digest_, static_cast<uint64_t>(ladder_state_.below_streak));
      digest_ = Fnv1a(digest_, static_cast<uint64_t>(sum_queued));
      for (const int64_t quota : reclaim_quota_) {
        digest_ = Fnv1a(digest_, static_cast<uint64_t>(quota));
      }
    }
  }

  /// Flight record: runs after the digest so the retained record carries this
  /// window's chain value, and before any failure return so a dumped bundle
  /// always ends at the violating window.
  void RecordFlight(int64_t w, double t_end, const LedgerSums& sums,
                    int64_t sum_queued, bool audit_tripped) {
    FlightWindowRecord fr;
    fr.window = w;
    fr.t_end = t_end;
    fr.capacity = capacity_;
    fr.rung = static_cast<int>(ladder_state_.level);
    fr.digest = digest_;
    fr.sum_held = sums.held;
    fr.sum_credit = sums.credit;
    fr.sum_debt = sums.debt;
    fr.sum_queued = sum_queued;
    fr.quota_issued = quota_issued_prev_;
    fr.shard_events = shard_window_events_;
    recorder_.RecordWindow(std::move(fr));
    if (audit_tripped && !options_.postmortem_path.empty()) {
      // The run still finishes (the report returns the auditor's status);
      // the bundle is on disk either way.
      (void)recorder_.Dump(options_.postmortem_path,
                           auditor_->status().message());
    }
  }

  /// Replay-verify: a resumed run must retrace the checkpointed trajectory
  /// exactly.
  Status VerifyReplay(int64_t w) {
    if (w != verify_window_ || digest_ == expected_digest_) return Status::OK();
    const std::string why =
        "sharded resume diverged from the checkpointed trajectory at window " +
        std::to_string(w) +
        " (ledger digest mismatch); the checkpoint does not describe "
        "this binary/configuration";
    if (!options_.postmortem_path.empty()) {
      (void)recorder_.Dump(options_.postmortem_path, why);
    }
    return Status::Internal(why);
  }

  /// Checkpoint at the cadence, and at the final or stopping barrier.
  Status Checkpoint(int64_t w, bool stopping) {
    if (options_.checkpoint.path.empty() ||
        !(w % options_.checkpoint.every_windows == 0 || w == total_windows_ ||
          stopping)) {
      return Status::OK();
    }
    ShardedCheckpointState st;
    st.fingerprint = fingerprint_;
    st.shards = static_cast<uint32_t>(shard_count_);
    st.windows_done = w;
    st.digest = digest_;
    const Status written = WriteShardedCheckpoint(options_.checkpoint.path, st);
    if (!written.ok() && !options_.postmortem_path.empty()) {
      (void)recorder_.Dump(options_.postmortem_path, written.message());
    }
    return written;
  }

  /// Write-back: next window's credit and debt into every supplier and,
  /// with the ladder on, the rung and the forced-reclaim quota the shard
  /// applies at window open.
  void WriteLedger() {
    quota_issued_prev_ = 0;
    for (size_t i = 0; i < ledger_.size(); ++i) {
      ServerShard::MovieSlot& slot = *slots_[i];
      slot.supplier->SetLedger(ledger_[i].credit, ledger_[i].debt);
      if (!ladder_on_) continue;
      slot.supplier->SetRung(ladder_state_.level);
      slot.reclaim_quota = reclaim_quota_[i];
      quota_issued_prev_ += reclaim_quota_[i];
    }
  }

  /// Everything from the join to the write-back is the coordinator's fold; one
  /// span per window on its named lane.
  void RecordFold(double barrier_us) {
    if (profiler_ != nullptr) {
      profiler_->RecordSpanOnLane(coordinator_lane_, "coordinator_fold",
                                  barrier_us, profiler_->NowMicros());
    }
  }

  /// Report assembly, in global movie order throughout.
  Result<ShardedServerReport> Report(int64_t windows, bool complete) {
    if (auditor_ != nullptr && auditor_->total_violations() > 0) {
      return auditor_->status();
    }
    ShardedServerReport report;
    report.window_minutes = options_.window_minutes;
    report.shards = shard_count_;
    report.threads = std::max(1, pool_.num_threads());
    report.windows = windows;
    report.complete = complete;
    ServerReport& server = report.server;
    server.reserve_capacity = base_.dynamic_stream_reserve;
    int64_t refused = 0;
    int64_t granted = 0;
    for (const ServerShard::MovieSlot* slot : slots_) {
      server.mean_reserve_in_use += slot->supplier->MeanInUse(horizon_);
      refused += slot->supplier->refused();
      granted += slot->supplier->acquired();
    }
    // Barrier-sampled: the max over barriers of Σ held. In-window excursions
    // between barriers are invisible by design (no cross-shard counter
    // exists mid-window); per-movie peaks remain exact in the movie reports.
    server.peak_reserve_in_use = peak_reserve_;
    SetAcquisitions(refused, granted, &server);

    SimulationMetrics aggregate_metrics(base_.warmup_minutes);
    for (size_t i = 0; i < movies_.size(); ++i) {
      const ServerShard::MovieSlot& slot = *slots_[i];
      AddMovieReport(movies_[i].name, *slot.metrics, *slot.world, horizon_,
                     &server);
      VOD_RETURN_IF_ERROR(aggregate_metrics.MergeFrom(*slot.metrics));
    }
    FillReportFromMetrics(aggregate_metrics, horizon_, &report.aggregate);

    if (base_.faults.enabled || ladder_on_) {
      server.resilience_enabled = true;
      ResilienceReport& rz = server.resilience;
      rz.disk_failures = faults_.failures;
      rz.disk_repairs = faults_.repairs;
      rz.min_reserve_capacity = min_capacity_seen_;
      rz.max_oversubscription = std::max<int64_t>(0, max_oversubscription_);
      if (ladder_on_) {
        FillLadderReport(ladder_, ladder_state_.level, &rz);
        std::vector<const VcrWaitQueue*> queues;
        for (const ServerShard::MovieSlot* slot : slots_) {
          queues.push_back(slot->supplier.get());
        }
        FillQueueReport(queues, &rz);
        rz.forced_reclaims = server.total_forced_reclaims;
      } else {
        // Faults without the ladder: capacity erodes but no policy reacts, so
        // the run spends its whole horizon at the (only) normal rung.
        rz.final_level = DegradationLevel::kNormal;
        rz.time_in_level[0] = horizon_;
      }
    }
    if (controller_ != nullptr) {
      server.controller_enabled = true;
      server.controller = controller_->Report();
    }
    for (auto& shard : shards_) report.executed_events += shard->executed();
    report.ledger_digest = digest_;
    return report;
  }

 private:
  Status ReadResumePoint() {
    if (!options_.checkpoint.resume || options_.checkpoint.path.empty() ||
        !FileExists(options_.checkpoint.path)) {
      return Status::OK();
    }
    auto st = ReadShardedCheckpoint(options_.checkpoint.path);
    VOD_RETURN_IF_ERROR(st.status());
    if (static_cast<int>(st.value().shards) != shard_count_) {
      return Status::InvalidArgument(
          "sharded resume: checkpoint was taken with " +
          std::to_string(st.value().shards) + " shards but this run has " +
          std::to_string(shard_count_) +
          "; the shard count cannot change across a resume");
    }
    if (st.value().fingerprint != fingerprint_) {
      return Status::InvalidArgument(
          "sharded resume: checkpoint belongs to a different configuration "
          "(fingerprint mismatch); refusing to resume");
    }
    verify_window_ = st.value().windows_done;
    expected_digest_ = st.value().digest;
    return Status::OK();
  }

  Status BuildWorlds() {
    for (size_t i = 0; i < movies_.size(); ++i) {
      const ServerMovieSpec& spec = movies_[i];
      const size_t s = i % static_cast<size_t>(shard_count_);
      ServerShard* shard = shards_[s].get();

      ServerShard::MovieSlot slot;
      MovieWorldConfig config = ServerMovieConfig(spec, base_, i);
      config.log_arrivals = base_.controller.enabled;
      // Per-event telemetry goes to the owning shard's private lane, never
      // the shared bus; with no sinks armed the lane is one dead branch.
      config.event_log = &shard->lane();
      VOD_RETURN_IF_ERROR(ValidateMovieWorldInputs(base_.rates, config));

      // Each movie gets its own kernel; it and the viewer slab grow to the
      // movie's own population.
      slot.global_index = static_cast<int32_t>(i);
      slot.queue = std::make_unique<EventQueue>();
      slot.supplier = std::make_unique<CreditStreamSupplier>();
      if (ladder_on_) {
        slot.supplier->ArmLadder(base_.degradation, slot.queue.get(),
                                 base_.warmup_minutes);
      }
      slot.metrics = std::make_unique<SimulationMetrics>(base_.warmup_minutes);
      slot.world = std::make_unique<MovieWorld>(
          spec.layout, base_.rates, config,
          base_rng_.MakeChild(kMovieWorldStream, i), slot.queue.get(),
          slot.supplier.get(), slot.metrics.get());
      shard->AddMovie(std::move(slot));
    }
    slots_.assign(movies_.size(), nullptr);
    for (auto& shard : shards_) {
      for (ServerShard::MovieSlot& slot : shard->movies()) {
        slots_[static_cast<size_t>(slot.global_index)] = &slot;
      }
    }
    return Status::OK();
  }

  // Two tiers of telemetry. Coordinator-side records (faults, barrier/rung
  // records, ladder transitions, reserve + imbalance gauges) are emitted from
  // the single-threaded barrier directly onto the shared buses. Per-event
  // shard-side records (admissions, VCR ops, kShard window records) go to each
  // shard's *private* lane while the window runs in parallel; the shard
  // time-sorts each window's records, and the lane fold merges the lane
  // buffers into the main bus at the barrier in shard-index order — the
  // merged trace is therefore ordered by (window, shard, time, movie),
  // independent of thread count, and Emit's seq restamp keeps global
  // sequence numbers dense. Lane payloads carry deterministic values only
  // (never wall clock); wall-clock spans go to the profiler's named lanes
  // instead.
  void ArmTelemetry() {
    event_log_ = base_.obs.event_log;
    registry_ = base_.obs.metrics;
    profiler_ = base_.obs.profiler;
    tracing_ = event_log_ != nullptr && event_log_->has_sinks();
    // The flight recorder's window-record deque is always on; the per-shard
    // event rings fill only while the lanes are lit, so a dark run pays
    // nothing per event.
    const bool lanes_lit = tracing_ || !options_.postmortem_path.empty();
    if (lanes_lit) {
      // Traced lanes see the user's category mask plus kShard (the imbalance
      // timeline needs the window records); the merge re-filters through
      // the main bus mask, so --trace_categories still governs the file.
      const uint32_t shard_bit = CategoryBit(EventCategory::kShard);
      const uint32_t mask =
          tracing_ ? event_log_->mask() | shard_bit : shard_bit;
      for (int s = 0; s < shard_count_; ++s) {
        shards_[static_cast<size_t>(s)]->ArmLane(mask,
                                                 recorder_.shard_ring(s));
      }
    }
    if (profiler_ != nullptr) {
      // Named lanes make Perfetto traces attributable to shard ids even
      // though pool workers migrate between shards across windows.
      for (int s = 0; s < shard_count_; ++s) {
        shard_lanes_.push_back(
            profiler_->RegisterLane("shard " + std::to_string(s)));
      }
      coordinator_lane_ = profiler_->RegisterLane("coordinator");
    }
    if (registry_ == nullptr) return;
    BarrierGauges& g = gauges_;
    // Without the ladder the windowed rung never leaves kNormal.
    g.reserve =
        RegisterReserveGauges(base_.obs, base_.faults.enabled, ladder_on_);
    g.shard_max = registry_->AddGauge(
        "shard_window_events_max",
        "events executed by the busiest shard in the last window");
    g.shard_min = registry_->AddGauge(
        "shard_window_events_min",
        "events executed by the idlest shard in the last window");
    g.shard_critical = registry_->AddGauge(
        "shard_critical_path",
        "shard id holding the window's critical path (max events)");
    g.credit_granted = registry_->AddGauge(
        "shard_credit_granted", "acquisition credits lent for next window");
    g.debt_assigned = registry_->AddGauge(
        "shard_debt_assigned", "retirement debt outstanding at the barrier");
  }

  const std::vector<ServerMovieSpec>& movies_;
  const ShardedServerOptions& options_;
  const ServerOptions& base_;
  const int shard_count_;
  const double horizon_;
  const int64_t total_windows_;
  const uint64_t fingerprint_;
  const bool ladder_on_;
  const Rng base_rng_;

  // Replay-verify target of a resumed run (see the header); -1 = fresh run.
  int64_t verify_window_ = -1;
  uint64_t expected_digest_ = 0;

  std::vector<std::unique_ptr<ServerShard>> shards_;
  /// Global movie index -> owning slot (supplier, world, metrics; the RNG
  /// stream is keyed by the *global* index), so placement is invisible.
  std::vector<ServerShard::MovieSlot*> slots_;
  // The control plane runs above the barrier.
  std::unique_ptr<ShardedControllerHost> ctrl_host_;
  std::unique_ptr<Controller> controller_;
  std::unique_ptr<ArrivalFeed> arrival_feed_;
  std::vector<FaultEvent> fault_schedule_;  // applied at barriers
  size_t fault_idx_ = 0;
  std::unique_ptr<InvariantAuditor> auditor_;
  AuditSnapshot audit_snapshot_;

  // Barrier ledger.
  int64_t capacity_;
  int64_t min_capacity_seen_;
  FaultCounts faults_;
  int64_t max_oversubscription_ = 0;
  int64_t peak_reserve_ = 0;
  uint64_t digest_;
  double ctrl_next_wakeup_;
  std::vector<MovieBarrier> ledger_;

  // Windowed ladder (every run opens at kNormal).
  WindowedLadderState ladder_state_;
  LadderHistory ladder_;
  int64_t quota_issued_prev_ = 0;  ///< Σ quotas written at the last barrier
  std::vector<int64_t> reclaim_quota_;

  // Observability (DESIGN.md §14).
  EventLog* event_log_ = nullptr;
  MetricsRegistry* registry_ = nullptr;
  PhaseProfiler* profiler_ = nullptr;
  bool tracing_ = false;
  FlightRecorder recorder_;
  std::vector<int> shard_lanes_;
  int coordinator_lane_ = -1;
  BarrierGauges gauges_;
  // Per-window imbalance working state, overwritten every window.
  std::vector<uint64_t> shard_executed_prev_;
  std::vector<int64_t> shard_window_events_;
  std::vector<double> work_begin_us_;
  std::vector<double> work_end_us_;
  std::vector<std::thread::id> worker_of_;  ///< the worker that ran shard s

  ThreadPool pool_;
};

}  // namespace

std::string ShardedServerReport::ToString() const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "ShardedServerReport{windows=" << windows
     << " window_minutes=" << window_minutes
     << " ledger_digest=" << ledger_digest << "\n";
  os << server.ToString() << "\n";
  os << "aggregate: " << aggregate.ToString() << "\n";
  os << "}";
  return os.str();
}

Status ValidateShardedInputs(const std::vector<ServerMovieSpec>& movies,
                             const ShardedServerOptions& options) {
  VOD_RETURN_IF_ERROR(ValidateServerInputs(movies, options.base));
  if (options.shards < 1 || options.shards > kMaxShards) {
    return Status::InvalidArgument(
        "sharded run needs shards in [1, " + std::to_string(kMaxShards) +
        "], got " + std::to_string(options.shards));
  }
  if (options.threads < 1) {
    return Status::InvalidArgument("sharded run needs threads >= 1, got " +
                                   std::to_string(options.threads));
  }
  if (!std::isfinite(options.window_minutes) ||
      !(options.window_minutes > 0.0)) {
    return Status::InvalidArgument(
        "sharded run needs a finite positive window_minutes, got " +
        std::to_string(options.window_minutes));
  }
  const double windows = std::ceil(
      (options.base.warmup_minutes + options.base.measurement_minutes) /
      options.window_minutes);
  if (!(windows <= static_cast<double>(kMaxWindows))) {
    std::ostringstream os;
    os << "window_minutes=" << options.window_minutes << " asks for "
       << windows << " barrier windows; a sharded run allows at most "
       << kMaxWindows;
    return Status::InvalidArgument(os.str());
  }
  if (!options.checkpoint.path.empty() &&
      options.checkpoint.every_windows < 1) {
    return Status::InvalidArgument(
        "sharded checkpointing needs every_windows >= 1, got " +
        std::to_string(options.checkpoint.every_windows));
  }
  if (options.corrupt_audit_window > 0 && !options.base.audit.enabled) {
    return Status::InvalidArgument(
        "corrupt_audit_window is an audit-injection hook; it requires "
        "base.audit.enabled");
  }
  return Status::OK();
}

Result<ShardedServerReport> RunShardedServerSimulation(
    const std::vector<ServerMovieSpec>& movies,
    const ShardedServerOptions& options) {
  VOD_RETURN_IF_ERROR(ValidateShardedInputs(movies, options));
  ShardedRun run(movies, options);
  VOD_RETURN_IF_ERROR(run.Build());

  int64_t windows = 0;
  bool stopping = false;
  while (windows < run.total_windows() && !stopping) {
    const int64_t w = ++windows;
    const double t_start = run.WindowStart(w);
    const double t_end = run.WindowEnd(w);
    const double barrier_us = run.RunShards(t_start, t_end);

    // ---- barrier: the single-threaded coordinator's steps, in order -------
    const WindowLoad load = run.FoldLanes();
    run.ReadLedger();
    const bool capacity_changed = run.ApplyFaults(t_end);
    run.ReplayController(t_end, capacity_changed);
    const LedgerSums sums = run.Redistribute();
    const LadderStep ladder = run.StepLadder(t_start, t_end, sums.held);
    run.EmitTelemetry(w, t_end, load, sums, ladder.prev_level);
    const bool audit_tripped = run.AuditBarrier(w, t_end);
    run.ExtendDigest(w, ladder.sum_queued);
    run.RecordFlight(w, t_end, sums, ladder.sum_queued, audit_tripped);
    VOD_RETURN_IF_ERROR(run.VerifyReplay(w));
    stopping = run.Stopping(w);
    VOD_RETURN_IF_ERROR(run.Checkpoint(w, stopping));
    // Skipped after the last barrier: no window runs on what it writes.
    if (!stopping && w < run.total_windows()) run.WriteLedger();
    run.RecordFold(barrier_us);
  }
  return run.Report(windows, /*complete=*/!stopping);
}

}  // namespace vod
