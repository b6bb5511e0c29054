#include "sim/sharded_server.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <memory>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/mailbox.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "obs/flight_recorder.h"
#include "sim/shard.h"

namespace vod {

namespace {

// Same stream-class tags as server.cc: a movie's RNG stream depends only on
// its global index, so shard placement can never perturb it.
constexpr uint64_t kMovieWorldStream = 3;
constexpr uint64_t kFaultStream = 4;

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t FingerprintConfig(const std::vector<ServerMovieSpec>& movies,
                           const ShardedServerOptions& options) {
  // A guard against resuming a checkpoint under a different configuration,
  // not a cryptographic identity. Everything that shapes the trajectory and
  // is cheaply describable goes in; the digest chain catches the rest.
  std::ostringstream os;
  os << std::setprecision(17);
  const ServerOptions& b = options.base;
  os << "seed=" << b.seed << " reserve=" << b.dynamic_stream_reserve
     << " warmup=" << b.warmup_minutes << " measure=" << b.measurement_minutes
     << " window=" << options.window_minutes
     << " stationary=" << b.stationary_start
     << " piggyback=" << b.piggyback.enabled
     << " faults=" << b.faults.enabled << ":" << b.faults.disks << ":"
     << b.faults.profile.mtbf_minutes << ":" << b.faults.profile.mttr_minutes
     << " controller=" << b.controller.enabled << ":"
     << b.controller.poll_interval_minutes
     << " ladder=" << b.degradation.enabled << ":"
     << b.degradation.queue_deadline_minutes << ":"
     << b.degradation.backoff_initial_minutes << ":"
     << b.degradation.backoff_factor << ":"
     << b.degradation.shed_below_fraction << ":"
     << b.degradation.batching_below_fraction << ":"
     << options.ladder_recover_windows;
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

// The controller's window onto a sharded run. Layout commits cannot touch
// the worlds directly (they live on other threads between barriers), so the
// host keeps its own authoritative layout copies — they ARE the live
// layouts as far as the control plane is concerned — and queues each commit
// for mailbox delivery; the owning shard applies it at the next window
// start. Reclaim pressure comes from the windowed degradation rung the
// barrier publishes after each decision (zero, i.e. admit-everything, when
// the ladder is off — consistent with the shards' record-and-admit gates);
// the controller replay at barrier w therefore sees the rung that was in
// effect during window w.
class ShardedControllerHost final : public ControllerHost {
 public:
  explicit ShardedControllerHost(std::vector<PartitionLayout> layouts)
      : layouts_(std::move(layouts)) {}

  void CommitLayout(int32_t movie, double t,
                    const PartitionLayout& layout) override {
    (void)t;
    layouts_[static_cast<size_t>(movie)] = layout;
    pending_commits_.push_back(movie);
  }
  const PartitionLayout& LiveLayout(int32_t movie) const override {
    return layouts_[static_cast<size_t>(movie)];
  }
  bool ReclaimBlocked() const override {
    return rung_ >= DegradationLevel::kReclaim;
  }
  int PressureLevel() const override {
    if (rung_ >= DegradationLevel::kReclaim) return 2;
    if (rung_ >= DegradationLevel::kShedVcr) return 1;
    return 0;
  }

  /// Barrier-side: publishes the windowed rung decided for the next window.
  void set_rung(DegradationLevel rung) { rung_ = rung; }

  const std::vector<PartitionLayout>& layouts() const { return layouts_; }
  std::vector<int32_t> TakePendingCommits() {
    std::vector<int32_t> out;
    out.swap(pending_commits_);
    return out;
  }

 private:
  std::vector<PartitionLayout> layouts_;
  std::vector<int32_t> pending_commits_;  ///< movies with uncommitted posts
  DegradationLevel rung_ = DegradationLevel::kNormal;
};

/// Demand-weighted largest-remainder apportionment of `amount` over
/// `weights` (all non-negative; zero-weight entries get nothing). Returns
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

}  // namespace

std::string ShardedServerReport::ToString() const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "ShardedServerReport{windows=" << windows
     << " window_minutes=" << window_minutes
     << " messages_posted=" << messages_posted
     << " messages_drained=" << messages_drained
     << " ledger_digest=" << ledger_digest << "\n";
  os << server.ToString() << "\n";
  os << "aggregate: " << aggregate.ToString() << "\n";
  os << "}";
  return os.str();
}

Status ValidateShardedInputs(const std::vector<ServerMovieSpec>& movies,
                             const ShardedServerOptions& options) {
  VOD_RETURN_IF_ERROR(ValidateServerInputs(movies, options.base));
  if (options.shards < 1) {
    return Status::InvalidArgument("sharded run needs shards >= 1, got " +
                                   std::to_string(options.shards));
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
  if (options.base.degradation.enabled && options.ladder_recover_windows < 1) {
    return Status::InvalidArgument(
        "the windowed degradation ladder needs ladder_recover_windows >= 1, "
        "got " +
        std::to_string(options.ladder_recover_windows));
  }
  if (!options.checkpoint.path.empty() &&
      options.checkpoint.every_windows < 1) {
    return Status::InvalidArgument(
        "sharded checkpointing needs every_windows >= 1, got " +
        std::to_string(options.checkpoint.every_windows));
  }
  if (options.postmortem.windows < 1) {
    return Status::InvalidArgument(
        "the flight recorder needs postmortem.windows >= 1, got " +
        std::to_string(options.postmortem.windows));
  }
  if (options.postmortem.events_per_shard < 0) {
    return Status::InvalidArgument(
        "the flight recorder needs postmortem.events_per_shard >= 0, got " +
        std::to_string(options.postmortem.events_per_shard));
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

  const ServerOptions& base = options.base;
  const int shard_count = options.shards;
  const size_t movie_count = movies.size();
  const double horizon = base.warmup_minutes + base.measurement_minutes;
  const int64_t total_windows = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(horizon / options.window_minutes)));
  const uint64_t fingerprint = FingerprintConfig(movies, options);

  // ---- resume bookkeeping (replay-verify; see header) ---------------------
  int64_t verify_window = -1;
  uint64_t expected_digest = 0;
  if (options.checkpoint.resume && !options.checkpoint.path.empty() &&
      FileExists(options.checkpoint.path)) {
    auto st = ReadShardedCheckpoint(options.checkpoint.path);
    VOD_RETURN_IF_ERROR(st.status());
    if (static_cast<int>(st.value().shards) != shard_count) {
      return Status::InvalidArgument(
          "sharded resume: checkpoint was taken with " +
          std::to_string(st.value().shards) + " shards but this run has " +
          std::to_string(shard_count) +
          "; the shard count cannot change across a resume");
    }
    if (st.value().fingerprint != fingerprint) {
      return Status::InvalidArgument(
          "sharded resume: checkpoint belongs to a different configuration "
          "(fingerprint mismatch); refusing to resume");
    }
    verify_window = st.value().windows_done;
    expected_digest = st.value().digest;
  }

  // ---- build shards -------------------------------------------------------
  const Rng base_rng(base.seed);
  MailboxRouter router(shard_count);
  std::vector<std::unique_ptr<ServerShard>> shards;
  shards.reserve(static_cast<size_t>(shard_count));
  for (int s = 0; s < shard_count; ++s) {
    shards.push_back(std::make_unique<ServerShard>(
        s, &router.to_shard(s), &router.to_coordinator(s)));
  }

  // The control plane runs above the barrier. It must exist before the
  // worlds so the shards' gates know whether to record arrivals.
  std::unique_ptr<ShardedControllerHost> ctrl_host;
  std::unique_ptr<Controller> controller;
  if (base.controller.enabled) {
    std::vector<PartitionLayout> layouts;
    std::vector<ControllerMovie> ctrl_movies;
    layouts.reserve(movie_count);
    ctrl_movies.reserve(movie_count);
    for (const ServerMovieSpec& spec : movies) {
      layouts.push_back(spec.layout);
      ControllerMovie cm;
      cm.movie_length = spec.layout.movie_length();
      cm.baseline_rate = spec.arrival_rate_per_minute;
      ctrl_movies.push_back(cm);
    }
    ctrl_host = std::make_unique<ShardedControllerHost>(std::move(layouts));
    controller = std::make_unique<Controller>(base.controller,
                                              std::move(ctrl_movies),
                                              ctrl_host.get(),
                                              /*log=*/nullptr);
  }

  // movie -> owning shard, with per-movie everything (supplier, metrics,
  // RNG stream keyed by the *global* index) so placement is invisible.
  struct MovieRef {
    ServerShard* shard = nullptr;
    ServerShard::MovieSlot* slot = nullptr;
  };
  std::vector<MovieRef> refs;
  std::vector<double> shard_population(static_cast<size_t>(shard_count),
                                       64.0);
  for (size_t i = 0; i < movie_count; ++i) {
    const ServerMovieSpec& spec = movies[i];
    ServerShard* shard = shards[i % static_cast<size_t>(shard_count)].get();

    MovieWorldConfig config;
    config.mean_interarrival_minutes = 1.0 / spec.arrival_rate_per_minute;
    config.arrivals = spec.arrivals;
    config.behavior = spec.behavior;
    config.stationary_start = base.stationary_start;
    config.piggyback = base.piggyback;
    config.movie_id = static_cast<int32_t>(i);
    config.gate = controller != nullptr ? &shard->gate() : nullptr;
    // Per-event telemetry goes to the owning shard's private lane, never
    // the shared bus; with no sinks armed the lane is one dead branch.
    config.event_log = &shard->lane();
    VOD_RETURN_IF_ERROR(ValidateMovieWorldInputs(base.rates, config));

    ServerShard::MovieSlot slot;
    slot.global_index = static_cast<int32_t>(i);
    slot.supplier = std::make_unique<CreditStreamSupplier>();
    if (base.degradation.enabled) {
      slot.supplier->ArmLadder(base.degradation, &shard->queue(),
                               base.warmup_minutes);
    }
    slot.metrics = std::make_unique<SimulationMetrics>(base.warmup_minutes);
    slot.world = std::make_unique<MovieWorld>(
        spec.layout, base.rates, config,
        base_rng.MakeChild(kMovieWorldStream, i), &shard->queue(),
        slot.supplier.get(), slot.metrics.get());
    shard->AddMovie(std::move(slot));

    shard_population[i % static_cast<size_t>(shard_count)] +=
        spec.arrival_rate_per_minute * spec.layout.movie_length();
  }
  for (int s = 0; s < shard_count; ++s) {
    shards[static_cast<size_t>(s)]->queue().Reserve(static_cast<size_t>(
        std::clamp(shard_population[static_cast<size_t>(s)], 64.0, 1.0e6)));
  }
  refs.assign(movie_count, MovieRef{});
  for (auto& shard : shards) {
    for (ServerShard::MovieSlot& slot : shard->movies()) {
      refs[static_cast<size_t>(slot.global_index)] =
          MovieRef{shard.get(), &slot};
    }
  }
  if (controller != nullptr) controller->Start(0.0);

  // ---- fault schedule (applied at barriers) -------------------------------
  std::vector<FaultEvent> fault_schedule;
  if (base.faults.enabled) {
    FaultInjector injector(
        FaultInjector::SplitCapacity(base.dynamic_stream_reserve,
                                     base.faults.disks),
        base.faults.profile, base_rng.MakeChild(kFaultStream, 0));
    fault_schedule = injector.Schedule(horizon);
  }

  // ---- auditor ------------------------------------------------------------
  std::unique_ptr<InvariantAuditor> auditor;
  AuditSnapshot audit_snapshot;
  if (base.audit.enabled) {
    auditor = std::make_unique<InvariantAuditor>(base.audit);
    for (const ServerMovieSpec& spec : movies) {
      audit_snapshot.movies.push_back(
          BuildMovieAuditBuffers(spec.name, spec.layout));
    }
  }

  // ---- barrier ledger state ----------------------------------------------
  int64_t capacity = base.dynamic_stream_reserve;
  int64_t min_capacity_seen = capacity;
  int64_t disk_failures = 0;
  int64_t disk_repairs = 0;
  int64_t max_oversubscription = 0;
  int64_t peak_reserve = 0;
  uint64_t digest = Fnv1a(1469598103934665603ULL, fingerprint);
  size_t fault_idx = 0;
  double ctrl_next_wakeup = base.controller.poll_interval_minutes;

  // ---- windowed-ladder state (coordinator side) ---------------------------
  const bool ladder_on = base.degradation.enabled;
  WindowedLadderState ladder_state;  // every run opens at kNormal
  double ladder_time_in_level[kNumDegradationLevels] = {0, 0, 0, 0, 0};
  std::vector<DegradationTransition> ladder_transitions;
  int64_t ladder_total_transitions = 0;
  double ladder_excursion_start = 0.0;  ///< valid while level != kNormal
  RunningStats ladder_recovery_times;
  int64_t quota_issued_prev = 0;  ///< Σ quotas broadcast at the last barrier
  std::vector<int64_t> reclaim_quota(movie_count, 0);
  constexpr size_t kMaxStoredLadderTransitions = 10000;

  // ---- observability (DESIGN.md §14) --------------------------------------
  // Two tiers. Coordinator-side telemetry (faults, barrier/rung records,
  // ladder transitions, reserve + imbalance gauges) is emitted from the
  // single-threaded barrier directly onto the shared buses. Per-event
  // shard-side telemetry (admissions, VCR ops, kShard window records) goes
  // to each shard's *private* lane while the window runs in parallel, and
  // the coordinator folds the lane buffers into the main bus at the barrier
  // in shard-index order — the merged trace is therefore ordered by
  // (window, shard, local seq), independent of thread count, and Emit's
  // seq restamp keeps global sequence numbers dense. Lane payloads carry
  // deterministic values only (never wall clock); wall-clock spans go to
  // the profiler's named lanes instead.
  EventLog* event_log = base.obs.event_log;
  MetricsRegistry* registry = base.obs.metrics;
  PhaseProfiler* profiler = base.obs.profiler;
  const bool tracing = event_log != nullptr && event_log->has_sinks();
  // The flight recorder itself (bounded window-record deque) is always on;
  // the per-shard event rings fill only while the lanes are lit, so a dark
  // run pays nothing per event.
  FlightRecorder recorder(shard_count,
                          static_cast<size_t>(options.postmortem.windows),
                          static_cast<size_t>(
                              options.postmortem.events_per_shard));
  const bool lanes_lit = tracing || !options.postmortem.path.empty();
  for (int s = 0; s < shard_count; ++s) {
    ServerShard& shard = *shards[static_cast<size_t>(s)];
    if (tracing) {
      // Lanes see the user's category mask plus kShard (the imbalance
      // timeline needs the window records); the merge re-filters through
      // the main bus mask, so --trace_categories still governs the file.
      shard.lane().set_mask(event_log->mask() |
                            CategoryBit(EventCategory::kShard));
      shard.lane().AddSink(&shard.lane_buffer());
    } else if (lanes_lit) {
      shard.lane().set_mask(CategoryBit(EventCategory::kShard));
    }
    if (lanes_lit) shard.lane().AddSink(recorder.shard_ring(s));
  }
  std::vector<int> shard_lanes;
  int coordinator_lane = -1;
  if (profiler != nullptr) {
    // Named lanes make Perfetto traces attributable to shard ids even
    // though pool workers migrate between shards across windows.
    for (int s = 0; s < shard_count; ++s) {
      shard_lanes.push_back(
          profiler->RegisterLane("shard " + std::to_string(s)));
    }
    coordinator_lane = profiler->RegisterLane("coordinator");
  }
  Gauge* g_in_use = nullptr;
  Gauge* g_capacity = nullptr;
  Gauge* g_level = nullptr;
  Gauge* g_shard_max = nullptr;
  Gauge* g_shard_min = nullptr;
  Gauge* g_shard_critical = nullptr;
  Gauge* g_mailbox_depth = nullptr;
  Gauge* g_credit_granted = nullptr;
  Gauge* g_debt_assigned = nullptr;
  Counter* c_mailbox_messages = nullptr;
  if (registry != nullptr) {
    if (base.obs.metrics_sample_minutes > 0.0) {
      registry->set_sample_every(base.obs.metrics_sample_minutes);
    }
    g_in_use = registry->AddGauge("server_reserve_in_use",
                                  "dynamic reserve streams handed out");
    g_capacity = registry->AddGauge(
        "server_reserve_capacity", "current reserve capacity under faults");
    g_level = registry->AddGauge("server_degradation_level",
                                 "degradation ladder rung (0 = normal)");
    g_shard_max = registry->AddGauge(
        "shard_window_events_max",
        "events executed by the busiest shard in the last window");
    g_shard_min = registry->AddGauge(
        "shard_window_events_min",
        "events executed by the idlest shard in the last window");
    g_shard_critical = registry->AddGauge(
        "shard_critical_path",
        "shard id holding the window's critical path (max events)");
    g_mailbox_depth = registry->AddGauge(
        "shard_mailbox_peak_depth",
        "deepest any mailbox has been since the run started");
    g_credit_granted = registry->AddGauge(
        "shard_credit_granted", "acquisition credits lent for next window");
    g_debt_assigned = registry->AddGauge(
        "shard_debt_assigned", "retirement debt outstanding at the barrier");
    c_mailbox_messages = registry->AddCounter(
        "shard_mailbox_messages", "shard->coordinator messages drained");
  }
  // Per-window imbalance working state (coordinator-only, reset implicitly
  // each window by overwriting).
  std::vector<uint64_t> shard_executed_prev(
      static_cast<size_t>(shard_count), 0);
  std::vector<int64_t> shard_window_events(
      static_cast<size_t>(shard_count), 0);
  std::vector<int64_t> shard_window_msgs(
      static_cast<size_t>(shard_count), 0);
  std::vector<double> work_begin_us(static_cast<size_t>(shard_count), 0.0);
  std::vector<double> work_end_us(static_cast<size_t>(shard_count), 0.0);

  struct MovieBarrier {
    int64_t held = 0;
    int64_t credit = 0;
    int64_t debt = 0;
    int64_t entered = 0;
    int64_t exited = 0;
    int64_t live = 0;
    int64_t demand = 0;  ///< window refusals + grants
    // Ladder terms (posted only when the ladder is armed):
    int64_t queue_len = 0;           ///< waiters queued at the barrier
    int64_t vcr_queued = 0;          ///< cumulative measured queue entries
    int64_t queue_grants = 0;        ///< cumulative measured grants
    int64_t queue_expirations = 0;   ///< cumulative measured expirations
    int64_t queue_pending = 0;       ///< measured waiters still queued
    int64_t echo_quota = 0;          ///< reclaim quota echoed this window
    int64_t echo_applied = 0;        ///< reclaims applied against it
  };
  std::vector<MovieBarrier> ledger(movie_count);

  // Initial credit grant: the whole reserve, split evenly (no demand yet),
  // posted before the first window so shard 0's path is identical to the
  // N-shard path. With the ladder on, an initial kNormal rung (quota 0)
  // rides along so every window drains a uniform per-movie message set.
  {
    const std::vector<int64_t> weights(movie_count, 1);
    const std::vector<int64_t> credits = Apportion(capacity, weights);
    for (size_t i = 0; i < movie_count; ++i) {
      ShardMessage m;
      m.kind = kShardMsgCreditSet;
      m.movie = static_cast<int32_t>(i);
      m.a = credits[i];
      m.b = 0;
      router.to_shard(refs[i].shard->shard_index()).Post(m);
      ledger[i].credit = credits[i];
      if (ladder_on) {
        ShardMessage rung;
        rung.kind = kShardMsgRung;
        rung.movie = static_cast<int32_t>(i);
        rung.a = static_cast<int64_t>(DegradationLevel::kNormal);
        rung.b = 0;
        router.to_shard(refs[i].shard->shard_index()).Post(rung);
      }
    }
  }

  ThreadPool pool(options.threads);
  for (auto& shard : shards) shard->Start();

  ShardedServerReport report;
  report.window_minutes = options.window_minutes;
  report.shards = shard_count;
  report.threads = options.threads;

  Status checkpoint_status = Status::OK();
  for (int64_t w = 1; w <= total_windows; ++w) {
    const double t_start = options.window_minutes * static_cast<double>(w - 1);
    const double t_end =
        std::min(horizon, options.window_minutes * static_cast<double>(w));

    // ---- parallel phase: every shard runs its private kernel -------------
    // Each worker writes only its own work_begin/end slot, so the
    // instrumented lambda stays race-free; spans are recorded after the
    // join to keep the profiler mutex out of the parallel phase.
    pool.ParallelFor(shard_count, [&](int64_t s) {
      const double begin_us = profiler != nullptr ? profiler->NowMicros() : 0.0;
      shards[static_cast<size_t>(s)]->RunWindow(t_start, t_end);
      if (profiler != nullptr) {
        work_begin_us[static_cast<size_t>(s)] = begin_us;
        work_end_us[static_cast<size_t>(s)] = profiler->NowMicros();
      }
    });
    const double barrier_us =
        profiler != nullptr ? profiler->NowMicros() : 0.0;
    if (profiler != nullptr) {
      for (int s = 0; s < shard_count; ++s) {
        const auto lane = shard_lanes[static_cast<size_t>(s)];
        profiler->RecordSpanOnLane(lane, "shard_work",
                                   work_begin_us[static_cast<size_t>(s)],
                                   work_end_us[static_cast<size_t>(s)]);
        // A shard's barrier wait runs from its own finish to the join.
        profiler->RecordSpanOnLane(lane, "barrier_wait",
                                   work_end_us[static_cast<size_t>(s)],
                                   barrier_us);
      }
    }

    // ---- barrier: single-threaded coordinator ----------------------------
    // 0. Fold the per-shard telemetry lanes into the main bus, shard-index
    //    order, and take each shard's executed-event delta for the
    //    imbalance gauges. Emit restamps the global seq, so merged traces
    //    are ordered (window, shard, local seq) for any thread count; the
    //    main bus mask re-filters every record.
    int64_t max_events = 0;
    int64_t min_events = 0;
    int critical_shard = 0;
    for (int s = 0; s < shard_count; ++s) {
      ServerShard& shard = *shards[static_cast<size_t>(s)];
      const uint64_t executed = shard.queue().executed();
      const auto delta = static_cast<int64_t>(
          executed - shard_executed_prev[static_cast<size_t>(s)]);
      shard_executed_prev[static_cast<size_t>(s)] = executed;
      shard_window_events[static_cast<size_t>(s)] = delta;
      if (s == 0 || delta > max_events) {
        max_events = delta;
        critical_shard = s;
      }
      if (s == 0 || delta < min_events) min_events = delta;
      if (tracing) {
        for (const TraceEvent& event : shard.lane_buffer().Take()) {
          event_log->Emit(event);
        }
      }
    }

    // 1. Drain summaries into the per-movie ledger (global movie order is
    //    restored by indexing, so shard layout cannot reorder anything).
    for (int s = 0; s < shard_count; ++s) {
      const std::vector<ShardMessage> msgs = router.to_coordinator(s).Drain();
      shard_window_msgs[static_cast<size_t>(s)] =
          static_cast<int64_t>(msgs.size());
      for (const ShardMessage& msg : msgs) {
        MovieBarrier& mb = ledger[static_cast<size_t>(msg.movie)];
        switch (msg.kind) {
          case kShardMsgLedger:
            mb.held = msg.a;
            mb.credit = msg.b;
            mb.debt = msg.c;
            mb.demand = static_cast<int64_t>(msg.x + msg.y);
            break;
          case kShardMsgViewers:
            mb.entered = msg.a;
            mb.exited = msg.b;
            mb.live = msg.c;
            break;
          case kShardMsgLadderPressure:
            mb.queue_len = msg.a;
            mb.vcr_queued = msg.b;
            mb.queue_grants = msg.c;
            mb.queue_expirations = static_cast<int64_t>(msg.x);
            mb.queue_pending = static_cast<int64_t>(msg.y);
            break;
          case kShardMsgReclaimEcho:
            mb.echo_quota = msg.a;
            mb.echo_applied = msg.b;
            break;
          default:
            VOD_CHECK_MSG(false, "unknown shard->coordinator message kind");
        }
      }
    }
    if (ObsEnabled(event_log, EventCategory::kShard)) {
      // Pressure report: one record per shard with its barrier-mailbox
      // traffic. Message counts are shard-layout products, so these live
      // under kShard (filterable) rather than the invariant categories.
      for (int s = 0; s < shard_count; ++s) {
        event_log->Emit(t_end, EventCategory::kShard,
                        static_cast<uint8_t>(ShardEvent::kPressure),
                        /*movie=*/-1, /*id=*/s,
                        static_cast<double>(
                            shard_window_msgs[static_cast<size_t>(s)]));
      }
    }

    // 2. Apply every fault event in (t_prev, t_end] — capacity changes are
    //    quantized to window barriers.
    bool capacity_changed = false;
    while (fault_idx < fault_schedule.size() &&
           fault_schedule[fault_idx].time <= t_end) {
      const FaultEvent& ev = fault_schedule[fault_idx++];
      if (ev.failure) {
        ++disk_failures;
      } else {
        ++disk_repairs;
      }
      if (ObsEnabled(event_log, EventCategory::kFault)) {
        event_log->Emit(ev.time, EventCategory::kFault,
                        /*subtype=*/ev.failure ? 0 : 1, /*movie=*/-1,
                        /*id=*/ev.disk,
                        static_cast<double>(ev.capacity_after));
      }
      capacity = ev.capacity_after;
      min_capacity_seen = std::min(min_capacity_seen, capacity);
      capacity_changed = true;
    }

    // 3. Replay offered arrivals into the controller in (time, movie)
    //    order, interleaved with its decision wakeups; then pump remaining
    //    wakeups due by this barrier. Order is derived from values only —
    //    never from shard layout.
    if (controller != nullptr) {
      std::vector<RecordingGate::Offered> offered;
      for (auto& shard : shards) {
        std::vector<RecordingGate::Offered> part =
            shard->gate().TakeOffered();
        offered.insert(offered.end(), part.begin(), part.end());
      }
      std::sort(offered.begin(), offered.end(),
                [](const RecordingGate::Offered& a,
                   const RecordingGate::Offered& b) {
                  if (a.t != b.t) return a.t < b.t;
                  return a.movie < b.movie;
                });
      for (const RecordingGate::Offered& arrival : offered) {
        while (ctrl_next_wakeup <= arrival.t && ctrl_next_wakeup < horizon) {
          const double at = ctrl_next_wakeup;
          ctrl_next_wakeup = controller->OnWakeup(at);
        }
        controller->OnArrival(arrival.movie, arrival.t);
      }
      while (ctrl_next_wakeup <= t_end && ctrl_next_wakeup < horizon) {
        const double at = ctrl_next_wakeup;
        ctrl_next_wakeup = controller->OnWakeup(at);
      }
      if (capacity_changed) controller->OnCapacityChange(t_end);
    }

    // 4. Redistribute the reserve. Sum holds; a surplus becomes credit,
    //    split by window demand; a deficit becomes retirement debt, split
    //    by holdings. Either way the ledger law holds by construction:
    //    Σ(held + credit − debt) == capacity.
    int64_t sum_held = 0;
    for (const MovieBarrier& mb : ledger) sum_held += mb.held;
    peak_reserve = std::max(peak_reserve, sum_held);
    max_oversubscription =
        std::max(max_oversubscription, sum_held - capacity);
    const int64_t free_streams = capacity - sum_held;
    std::vector<int64_t> weights(movie_count, 0);
    if (free_streams >= 0) {
      for (size_t i = 0; i < movie_count; ++i) {
        weights[i] = 1 + ledger[i].demand;
      }
      const std::vector<int64_t> credits = Apportion(free_streams, weights);
      for (size_t i = 0; i < movie_count; ++i) {
        ledger[i].credit = credits[i];
        ledger[i].debt = 0;
      }
    } else {
      for (size_t i = 0; i < movie_count; ++i) weights[i] = ledger[i].held;
      const std::vector<int64_t> debts = Apportion(-free_streams, weights);
      for (size_t i = 0; i < movie_count; ++i) {
        ledger[i].credit = 0;
        ledger[i].debt = debts[i];
      }
    }

    // 4b. Windowed ladder decision. Fold the summed pressure into one
    //     global rung (pure function + hysteresis — the auditor recomputes
    //     it), integrate the time the *outgoing* rung governed, and size
    //     next window's forced-reclaim quotas by holdings. The controller
    //     host is updated after stepping, so its replay at the next barrier
    //     sees the rung that is actually in effect during that window.
    const WindowedLadderState ladder_prev = ladder_state;
    int64_t sum_queued = 0;
    if (ladder_on) {
      for (const MovieBarrier& mb : ledger) sum_queued += mb.queue_len;
      ladder_time_in_level[static_cast<int>(ladder_state.level)] +=
          t_end - t_start;
      WindowedPressure pressure;
      pressure.capacity = capacity;
      pressure.nominal_capacity = base.dynamic_stream_reserve;
      pressure.sum_held = sum_held;
      pressure.sum_queued = sum_queued;
      ladder_state = StepWindowedLadder(ladder_prev, pressure,
                                        base.degradation,
                                        options.ladder_recover_windows);
      if (ladder_state.level != ladder_prev.level) {
        if (ladder_transitions.size() < kMaxStoredLadderTransitions) {
          ladder_transitions.push_back(
              {t_end, ladder_prev.level, ladder_state.level, capacity});
        }
        ++ladder_total_transitions;
        if (ladder_prev.level == DegradationLevel::kNormal) {
          ladder_excursion_start = t_end;
        } else if (ladder_state.level == DegradationLevel::kNormal) {
          ladder_recovery_times.Add(t_end - ladder_excursion_start);
        }
        if (ObsEnabled(event_log, EventCategory::kDegradation)) {
          event_log->Emit(t_end, EventCategory::kDegradation,
                          static_cast<uint8_t>(ladder_state.level),
                          /*movie=*/-1, /*id=*/-1,
                          static_cast<double>(capacity),
                          static_cast<uint8_t>(ladder_prev.level));
        }
      }
      std::fill(reclaim_quota.begin(), reclaim_quota.end(), 0);
      int64_t need = 0;
      if (ladder_state.level == DegradationLevel::kBatchingOnly) {
        need = sum_held;  // shed everything: pure batching until repairs
      } else if (ladder_state.level == DegradationLevel::kReclaim) {
        need = std::max<int64_t>(0, sum_held - capacity);
      }
      if (need > 0) {
        std::vector<int64_t> holds(movie_count, 0);
        for (size_t i = 0; i < movie_count; ++i) holds[i] = ledger[i].held;
        reclaim_quota = Apportion(need, holds);
      }
      if (ctrl_host != nullptr) ctrl_host->set_rung(ladder_state.level);
    }
    if (ObsEnabled(event_log, EventCategory::kBarrier)) {
      event_log->Emit(t_end, EventCategory::kBarrier,
                      static_cast<uint8_t>(ladder_state.level),
                      /*movie=*/-1, /*id=*/w, static_cast<double>(capacity),
                      static_cast<uint8_t>(ladder_prev.level));
    }
    if (registry != nullptr) {
      g_in_use->Set(static_cast<double>(sum_held));
      g_capacity->Set(static_cast<double>(capacity));
      g_level->Set(static_cast<double>(ladder_state.level));
      g_shard_max->Set(static_cast<double>(max_events));
      g_shard_min->Set(static_cast<double>(min_events));
      g_shard_critical->Set(static_cast<double>(critical_shard));
      g_mailbox_depth->Set(static_cast<double>(router.max_peak_depth()));
      int64_t credit_granted = 0;
      int64_t debt_assigned = 0;
      for (const MovieBarrier& mb : ledger) {
        credit_granted += mb.credit;
        debt_assigned += mb.debt;
      }
      g_credit_granted->Set(static_cast<double>(credit_granted));
      g_debt_assigned->Set(static_cast<double>(debt_assigned));
      int64_t window_msgs = 0;
      for (const int64_t n : shard_window_msgs) window_msgs += n;
      c_mailbox_messages->Add(window_msgs);
      registry->MaybeSample(t_end);
    }

    // 5. Audit the barrier: cross-shard laws plus (when the controller is
    //    live) its resource ledger and the live partition geometry.
    bool audit_tripped = false;
    if (auditor != nullptr) {
      audit_snapshot.time = t_end;
      auto& sh = audit_snapshot.shard;
      sh.enabled = true;
      sh.capacity = capacity;
      sh.movies.clear();
      for (size_t i = 0; i < movie_count; ++i) {
        AuditSnapshot::ShardState::MovieLedger ml;
        ml.movie = static_cast<int32_t>(i);
        ml.held = ledger[i].held;
        ml.credit = ledger[i].credit;
        ml.debt = ledger[i].debt;
        ml.entered = ledger[i].entered;
        ml.exited = ledger[i].exited;
        ml.live = ledger[i].live;
        if (ladder_on) {
          ml.vcr_queued = ledger[i].vcr_queued;
          ml.queue_grants = ledger[i].queue_grants;
          ml.queue_expirations = ledger[i].queue_expirations;
          ml.queue_pending = ledger[i].queue_pending;
          ml.reclaim_quota = ledger[i].echo_quota;
          ml.reclaim_applied = ledger[i].echo_applied;
        }
        sh.movies.push_back(ml);
      }
      sh.messages_posted = router.total_posted();
      sh.messages_drained = router.total_drained();
      sh.sequence_gaps = router.total_sequence_gaps();
      if (ladder_on) {
        auto& ld = sh.ladder;
        ld.enabled = true;
        ld.prev_level = static_cast<int>(ladder_prev.level);
        ld.prev_streak = ladder_prev.below_streak;
        ld.next_level = static_cast<int>(ladder_state.level);
        ld.next_streak = ladder_state.below_streak;
        ld.nominal_capacity = base.dynamic_stream_reserve;
        ld.sum_held = sum_held;
        ld.sum_queued = sum_queued;
        ld.shed_below_fraction = base.degradation.shed_below_fraction;
        ld.batching_below_fraction = base.degradation.batching_below_fraction;
        ld.recover_windows = options.ladder_recover_windows;
        ld.quota_issued_prev = quota_issued_prev;
      }
      if (controller != nullptr) {
        auto& cs = audit_snapshot.controller;
        cs.enabled = true;
        cs.sum_live_streams = 0;
        cs.sum_live_buffer = 0.0;
        for (size_t i = 0; i < movie_count; ++i) {
          const PartitionLayout& live =
              ctrl_host->layouts()[i];
          cs.sum_live_streams += live.streams();
          cs.sum_live_buffer += live.buffer_minutes();
          audit_snapshot.movies[i] =
              BuildMovieAuditBuffers(movies[i].name, live);
        }
        const MigrationEngine& engine = controller->engine();
        cs.stream_budget = engine.stream_budget();
        cs.buffer_budget = engine.buffer_budget();
        cs.free_streams = engine.free_streams();
        cs.free_buffer = engine.free_buffer();
        cs.inflight_streams = engine.inflight_streams();
        cs.inflight_buffer = engine.inflight_buffer();
        cs.epoch = controller->epoch();
        cs.steps_applied = engine.steps_applied();
        cs.steps_planned = engine.steps_planned();
      }
      if (options.corrupt_audit_window == w && !sh.movies.empty()) {
        // Test hook: misstate movie 0's held count in the *snapshot copy*
        // only — the simulation trajectory is untouched, but the
        // shard-reserve-ledger law fires, exercising the flight-recorder
        // dump path end to end.
        sh.movies[0].held += 1;
      }
      const int64_t violations_before = auditor->total_violations();
      auditor->Audit(audit_snapshot);
      audit_tripped =
          violations_before == 0 && auditor->total_violations() > 0;
    }

    // 6. Extend the trajectory digest with this barrier's ledger (and, with
    //    the ladder on, its rung decision — replay-verify then covers the
    //    whole control surface).
    digest = Fnv1a(digest, static_cast<uint64_t>(w));
    digest = Fnv1a(digest, static_cast<uint64_t>(capacity));
    for (const MovieBarrier& mb : ledger) {
      digest = Fnv1a(digest, static_cast<uint64_t>(mb.held));
      digest = Fnv1a(digest, static_cast<uint64_t>(mb.credit));
      digest = Fnv1a(digest, static_cast<uint64_t>(mb.debt));
      digest = Fnv1a(digest, static_cast<uint64_t>(mb.entered));
      digest = Fnv1a(digest, static_cast<uint64_t>(mb.exited));
    }
    if (ladder_on) {
      digest = Fnv1a(digest, static_cast<uint64_t>(ladder_state.level));
      digest = Fnv1a(digest, static_cast<uint64_t>(ladder_state.below_streak));
      digest = Fnv1a(digest, static_cast<uint64_t>(sum_queued));
      for (size_t i = 0; i < movie_count; ++i) {
        digest = Fnv1a(digest, static_cast<uint64_t>(reclaim_quota[i]));
      }
    }

    // 6b. Feed the flight recorder — after the digest so the retained
    //     record carries this window's chain value, and before any failure
    //     return so a dumped bundle always ends at the violating window.
    {
      FlightWindowRecord fr;
      fr.window = w;
      fr.t_end = t_end;
      fr.capacity = capacity;
      fr.rung = static_cast<int>(ladder_state.level);
      fr.digest = digest;
      fr.sum_held = sum_held;
      for (const MovieBarrier& mb : ledger) {
        fr.sum_credit += mb.credit;
        fr.sum_debt += mb.debt;
      }
      fr.sum_queued = sum_queued;
      fr.quota_issued = quota_issued_prev;
      fr.messages_posted = router.total_posted();
      fr.messages_drained = router.total_drained();
      fr.shard_events = shard_window_events;
      recorder.RecordWindow(std::move(fr));
    }
    if (audit_tripped && !options.postmortem.path.empty()) {
      // The run still finishes (the post-loop check returns the auditor's
      // status); the bundle is on disk either way.
      (void)recorder.Dump(options.postmortem.path,
                          auditor->status().message());
    }

    // 7. Replay verification: a resumed run must retrace the checkpointed
    //    trajectory exactly.
    if (w == verify_window && digest != expected_digest) {
      const std::string why =
          "sharded resume diverged from the checkpointed trajectory at "
          "window " +
          std::to_string(w) +
          " (ledger digest mismatch); the checkpoint does not describe "
          "this binary/configuration";
      if (!options.postmortem.path.empty()) {
        (void)recorder.Dump(options.postmortem.path, why);
      }
      return Status::Internal(why);
    }

    const bool stopping = options.checkpoint.stop_after_windows > 0 &&
                          w >= options.checkpoint.stop_after_windows &&
                          w < total_windows;

    // 8. Checkpoint at the cadence (and at the final / stopping barrier).
    if (!options.checkpoint.path.empty() &&
        (w % options.checkpoint.every_windows == 0 || w == total_windows ||
         stopping)) {
      ShardedCheckpointState st;
      st.fingerprint = fingerprint;
      st.shards = static_cast<uint32_t>(shard_count);
      st.windows_done = w;
      st.digest = digest;
      checkpoint_status = WriteShardedCheckpoint(options.checkpoint.path, st);
      if (!checkpoint_status.ok() && !options.postmortem.path.empty()) {
        (void)recorder.Dump(options.postmortem.path,
                            checkpoint_status.message());
      }
      VOD_RETURN_IF_ERROR(checkpoint_status);
    }

    // Everything from the join to here (plus the credit release below) is
    // the coordinator's fold; one span per window on its named lane.
    const auto record_fold = [&] {
      if (profiler != nullptr) {
        profiler->RecordSpanOnLane(coordinator_lane, "coordinator_fold",
                                   barrier_us, profiler->NowMicros());
      }
    };

    report.windows = w;
    if (stopping) {
      report.complete = false;
      record_fold();
      break;
    }

    // 9. Release next window's credits — and, with the ladder on, the rung
    //    decision plus per-movie reclaim quotas — (skipped after the last
    //    barrier so every posted message is drained when the run ends).
    quota_issued_prev = 0;
    if (w < total_windows) {
      for (size_t i = 0; i < movie_count; ++i) {
        ShardMessage m;
        m.kind = kShardMsgCreditSet;
        m.movie = static_cast<int32_t>(i);
        m.a = ledger[i].credit;
        m.b = ledger[i].debt;
        router.to_shard(refs[i].shard->shard_index()).Post(m);
        if (ladder_on) {
          ShardMessage rung;
          rung.kind = kShardMsgRung;
          rung.movie = static_cast<int32_t>(i);
          rung.a = static_cast<int64_t>(ladder_state.level);
          rung.b = reclaim_quota[i];
          router.to_shard(refs[i].shard->shard_index()).Post(rung);
          quota_issued_prev += reclaim_quota[i];
        }
      }
      if (ctrl_host != nullptr) {
        for (int32_t movie : ctrl_host->TakePendingCommits()) {
          const PartitionLayout& layout =
              ctrl_host->layouts()[static_cast<size_t>(movie)];
          ShardMessage m;
          m.kind = kShardMsgLayout;
          m.movie = movie;
          m.a = layout.streams();
          m.x = layout.movie_length();
          m.y = layout.buffer_minutes();
          router.to_shard(refs[static_cast<size_t>(movie)].shard
                              ->shard_index())
              .Post(m);
        }
      }
    }
    record_fold();
  }

  if (auditor != nullptr && auditor->total_violations() > 0) {
    return auditor->status();
  }

  // ---- report assembly (global movie order throughout) --------------------
  ServerReport& server = report.server;
  server.reserve_capacity = base.dynamic_stream_reserve;
  double mean_in_use = 0.0;
  for (size_t i = 0; i < movie_count; ++i) {
    const CreditStreamSupplier& supplier = *refs[i].slot->supplier;
    mean_in_use += supplier.MeanInUse(horizon);
    server.refused_acquisitions += supplier.refused();
    server.granted_acquisitions += supplier.acquired();
  }
  server.mean_reserve_in_use = mean_in_use;
  // Barrier-sampled: the max over barriers of Σ held. In-window excursions
  // between barriers are invisible by design (no cross-shard counter
  // exists mid-window); per-movie peaks remain exact in the movie reports.
  server.peak_reserve_in_use = peak_reserve;
  const int64_t attempts =
      server.refused_acquisitions + server.granted_acquisitions;
  server.refusal_probability =
      attempts > 0
          ? static_cast<double>(server.refused_acquisitions) / attempts
          : 0.0;

  SimulationMetrics aggregate_metrics(base.warmup_minutes);
  for (size_t i = 0; i < movie_count; ++i) {
    ServerReport::PerMovie per_movie;
    per_movie.name = movies[i].name;
    const ServerShard::MovieSlot& slot = *refs[i].slot;
    FillReportFromMetrics(*slot.metrics, horizon, &per_movie.report);
    per_movie.report.max_wait_minutes = slot.world->max_wait_seen();
    per_movie.report.abandonments = slot.world->abandonments();
    server.total_blocked_vcr += per_movie.report.blocked_vcr_requests;
    server.total_stalls += per_movie.report.stalled_resumes;
    server.total_resumes += per_movie.report.total_resumes;
    server.total_queued_vcr += per_movie.report.queued_vcr_requests;
    server.total_forced_reclaims += per_movie.report.forced_reclaims;
    server.movies.push_back(std::move(per_movie));
    VOD_RETURN_IF_ERROR(aggregate_metrics.MergeFrom(*slot.metrics));
  }
  FillReportFromMetrics(aggregate_metrics, horizon, &report.aggregate);

  if (base.faults.enabled || ladder_on) {
    server.resilience_enabled = true;
    ResilienceReport& rz = server.resilience;
    rz.disk_failures = disk_failures;
    rz.disk_repairs = disk_repairs;
    rz.min_reserve_capacity = min_capacity_seen;
    rz.max_oversubscription = std::max<int64_t>(0, max_oversubscription);
    if (ladder_on) {
      rz.final_level = ladder_state.level;
      for (int i = 0; i < kNumDegradationLevels; ++i) {
        rz.time_in_level[i] = ladder_time_in_level[i];
      }
      rz.total_transitions = ladder_total_transitions;
      rz.transitions = ladder_transitions;
      // Queue outcomes merge across movies in global order; the P2
      // quantile marker merge keeps pooled tails deterministic.
      RunningStats queued_wait;
      LatencyQuantiles queued_wait_quantiles;
      for (size_t i = 0; i < movie_count; ++i) {
        const CreditStreamSupplier& supplier = *refs[i].slot->supplier;
        rz.vcr_queued += supplier.vcr_queued();
        rz.vcr_queue_grants += supplier.vcr_queue_grants();
        rz.vcr_queue_expirations += supplier.vcr_queue_expirations();
        rz.vcr_queue_pending += supplier.measured_queue_pending();
        rz.vcr_denied += supplier.vcr_denied();
        queued_wait.Merge(supplier.queued_wait());
        queued_wait_quantiles.Merge(supplier.queued_wait_quantiles());
      }
      rz.mean_queued_wait_minutes = queued_wait.mean();
      if (queued_wait_quantiles.count() > 0) {
        rz.p50_queued_wait_minutes = queued_wait_quantiles.p50();
        rz.p90_queued_wait_minutes = queued_wait_quantiles.p90();
        rz.p99_queued_wait_minutes = queued_wait_quantiles.p99();
      }
      rz.forced_reclaims = server.total_forced_reclaims;
      rz.recovery_episodes = ladder_recovery_times.count();
      rz.mean_recovery_minutes = ladder_recovery_times.mean();
      rz.max_recovery_minutes = rz.recovery_episodes > 0
                                    ? ladder_recovery_times.max()
                                    : 0.0;
    } else {
      // Faults without the ladder: capacity erodes but no policy reacts, so
      // the run spends its whole horizon at the (only) normal rung.
      rz.final_level = DegradationLevel::kNormal;
      rz.time_in_level[0] = horizon;
    }
  }
  if (controller != nullptr) {
    server.controller_enabled = true;
    server.controller = controller->Report();
  }

  for (auto& shard : shards) {
    report.executed_events += shard->queue().executed();
  }
  report.messages_posted = router.total_posted();
  report.messages_drained = router.total_drained();
  report.ledger_digest = digest;
  return report;
}

}  // namespace vod
