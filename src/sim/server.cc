#include "sim/server.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iomanip>
#include <memory>
#include <sstream>

#include "common/check.h"
#include "sim/event_queue.h"
#include "sim/run_loop.h"
#include "sim/stream_supplier.h"

namespace vod {

namespace {
// Stream-class tags for deriving independent child RNGs from the base seed.
// The fault schedule gets its own tag so enabling fault injection leaves
// every movie world's random streams untouched.
constexpr uint64_t kMovieWorldStream = 3;
constexpr uint64_t kFaultStream = 4;

// The controller's window onto the running server: layout commits go
// through MovieWorld::ApplyLayout (re-anchor, never preempt), and overload
// pressure is derived from the degradation ladder rung. Without a ladder
// (manager == nullptr) the server never reports pressure, so the traffic
// policy admits everything.
class WorldControllerHost final : public ControllerHost {
 public:
  WorldControllerHost(std::vector<std::unique_ptr<MovieWorld>>* worlds,
                      const ReserveManager* manager)
      : worlds_(worlds), manager_(manager) {}

  void CommitLayout(int32_t movie, double t,
                    const PartitionLayout& layout) override {
    (*worlds_)[static_cast<size_t>(movie)]->ApplyLayout(t, layout);
  }
  const PartitionLayout& LiveLayout(int32_t movie) const override {
    return (*worlds_)[static_cast<size_t>(movie)]->layout();
  }
  bool ReclaimBlocked() const override {
    return manager_ != nullptr &&
           manager_->level() >= DegradationLevel::kReclaim;
  }
  int PressureLevel() const override {
    if (manager_ == nullptr) return 0;
    if (manager_->level() >= DegradationLevel::kReclaim) return 2;
    if (manager_->level() >= DegradationLevel::kShedVcr) return 1;
    return 0;
  }

 private:
  std::vector<std::unique_ptr<MovieWorld>>* worlds_;
  const ReserveManager* manager_;
};

/// Everything the per-event observer touches, gathered into one POD so the
/// specialized instantiations below share a single context pointer
/// (DESIGN.md §15). Mutable emission state (the transition cursor) lives
/// here too, not in a capturing closure.
struct ServerObserverCtx {
  InvariantAuditor* auditor = nullptr;
  AuditSnapshot* audit_snapshot = nullptr;
  StreamSupplier* supplier = nullptr;
  ReserveManager* manager = nullptr;
  FiniteStreamSupplier* finite = nullptr;
  std::vector<std::unique_ptr<MovieWorld>>* worlds = nullptr;
  const std::vector<ServerMovieSpec>* movies = nullptr;
  Controller* controller = nullptr;
  EventLog* event_log = nullptr;
  size_t emitted_transitions = 0;
  DegradationLevel last_emitted_level = DegradationLevel::kNormal;
  MetricsRegistry* registry = nullptr;
  Gauge* g_in_use = nullptr;
  Gauge* g_capacity = nullptr;
  Gauge* g_level = nullptr;
  Gauge* g_ctrl_epoch = nullptr;
  Gauge* g_ctrl_plan_age = nullptr;
  Gauge* g_ctrl_migrations = nullptr;
  Gauge* g_ctrl_rollbacks = nullptr;
  Gauge* g_ctrl_alarms = nullptr;
  Gauge* g_ctrl_sheds = nullptr;
};

/// One observer instantiation per RunLoopVariant: the audit and telemetry
/// code is baked in or out at compile time; the kPlain variant installs no
/// observer, so the kernel runs its unobserved loop.
template <bool kAudit, bool kTraced>
void ServerObserveTick(void* raw, double t) {
  auto* ctx = static_cast<ServerObserverCtx*>(raw);
  if constexpr (kAudit) {
    InvariantAuditor* auditor = ctx->auditor;
    auditor->RecordEvent(t);
    if (auditor->AuditDue()) {
      AuditSnapshot& snapshot = *ctx->audit_snapshot;
      snapshot.time = t;
      snapshot.supplier_in_use = ctx->supplier->in_use();
      if (ctx->manager != nullptr) {
        snapshot.supplier_capacity = ctx->manager->capacity();
        snapshot.nominal_capacity = ctx->manager->nominal_capacity();
        snapshot.degradation_level = static_cast<int>(ctx->manager->level());
        snapshot.transitions = &ctx->manager->transitions();
        snapshot.total_transitions = ctx->manager->total_transitions();
      } else {
        snapshot.supplier_capacity = ctx->finite->capacity();
        snapshot.nominal_capacity = ctx->finite->capacity();
      }
      int64_t holds = 0;
      for (const auto& world : *ctx->worlds) {
        holds += world->dedicated_streams_held();
      }
      snapshot.sum_world_holds = holds;
      if (ctx->controller != nullptr) {
        // Migrations move partition geometry at runtime: refresh the
        // buffer view from the live layouts and fill the resource
        // ledger for the conservation laws.
        auto& cs = snapshot.controller;
        cs.enabled = true;
        cs.sum_live_streams = 0;
        cs.sum_live_buffer = 0.0;
        for (size_t i = 0; i < ctx->worlds->size(); ++i) {
          const PartitionLayout& live = (*ctx->worlds)[i]->layout();
          cs.sum_live_streams += live.streams();
          cs.sum_live_buffer += live.buffer_minutes();
          snapshot.movies[i] =
              BuildMovieAuditBuffers((*ctx->movies)[i].name, live);
        }
        const MigrationEngine& engine = ctx->controller->engine();
        cs.stream_budget = engine.stream_budget();
        cs.buffer_budget = engine.buffer_budget();
        cs.free_streams = engine.free_streams();
        cs.free_buffer = engine.free_buffer();
        cs.inflight_streams = engine.inflight_streams();
        cs.inflight_buffer = engine.inflight_buffer();
        cs.epoch = ctx->controller->epoch();
        cs.steps_applied = engine.steps_applied();
        cs.steps_planned = engine.steps_planned();
      }
      auditor->Audit(snapshot);
    }
  }
  if constexpr (kTraced) {
    EventLog* event_log = ctx->event_log;
    ReserveManager* manager = ctx->manager;
    if (manager != nullptr &&
        ObsEnabled(event_log, EventCategory::kDegradation)) {
      const auto& trs = manager->transitions();
      if (ctx->emitted_transitions < trs.size()) {
        while (ctx->emitted_transitions < trs.size()) {
          const DegradationTransition& tr = trs[ctx->emitted_transitions++];
          event_log->Emit(tr.time, EventCategory::kDegradation,
                          static_cast<uint8_t>(tr.to), /*movie=*/-1,
                          /*id=*/-1, static_cast<double>(tr.capacity),
                          static_cast<uint8_t>(tr.from));
          ctx->last_emitted_level = tr.to;
        }
      } else if (manager->total_transitions() >
                     static_cast<int64_t>(trs.size()) &&
                 manager->level() != ctx->last_emitted_level) {
        event_log->Emit(t, EventCategory::kDegradation,
                        static_cast<uint8_t>(manager->level()), /*movie=*/-1,
                        /*id=*/-1, static_cast<double>(manager->capacity()),
                        static_cast<uint8_t>(ctx->last_emitted_level));
        ctx->last_emitted_level = manager->level();
      }
    }
    MetricsRegistry* registry = ctx->registry;
    if (registry != nullptr) {
      ctx->g_in_use->Set(static_cast<double>(ctx->supplier->in_use()));
      if (manager != nullptr) {
        ctx->g_capacity->Set(static_cast<double>(manager->capacity()));
        ctx->g_level->Set(static_cast<double>(manager->level()));
      } else {
        ctx->g_capacity->Set(static_cast<double>(ctx->finite->capacity()));
      }
      if (ctx->controller != nullptr) {
        const ControllerReport cr = ctx->controller->Report();
        ctx->g_ctrl_epoch->Set(static_cast<double>(cr.final_epoch));
        ctx->g_ctrl_plan_age->Set(
            cr.last_commit_time >= 0.0 ? t - cr.last_commit_time : t);
        ctx->g_ctrl_migrations->Set(
            static_cast<double>(cr.migrations_started));
        ctx->g_ctrl_rollbacks->Set(static_cast<double>(cr.rollbacks));
        ctx->g_ctrl_alarms->Set(static_cast<double>(cr.drift_alarms));
        ctx->g_ctrl_sheds->Set(static_cast<double>(cr.admission_sheds));
      }
      registry->MaybeSample(t);
    }
  }
}

void InstallServerObserver(EventQueue& queue, RunLoopVariant variant,
                           ServerObserverCtx* ctx) {
  switch (variant) {
    case RunLoopVariant::kPlain:
      break;  // no observer: the kernel's unobserved loop runs
    case RunLoopVariant::kAudited:
      queue.set_observer(&ServerObserveTick<true, false>, ctx);
      break;
    case RunLoopVariant::kTraced:
      queue.set_observer(&ServerObserveTick<false, true>, ctx);
      break;
    case RunLoopVariant::kAuditedTraced:
      queue.set_observer(&ServerObserveTick<true, true>, ctx);
      break;
  }
}
}  // namespace

std::string ServerReport::ToString() const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "ServerReport{reserve=" << reserve_capacity
     << " mean_in_use=" << mean_reserve_in_use
     << " peak_in_use=" << peak_reserve_in_use
     << " refused=" << refused_acquisitions
     << " granted=" << granted_acquisitions
     << " p_refuse=" << refusal_probability
     << " blocked_vcr=" << total_blocked_vcr << " stalls=" << total_stalls
     << " resumes=" << total_resumes << " queued_vcr=" << total_queued_vcr
     << " reclaims=" << total_forced_reclaims << "\n";
  for (const PerMovie& m : movies) {
    const SimulationReport& r = m.report;
    os << "  movie " << m.name << ": p_hit=" << r.hit_probability
       << " resumes=" << r.total_resumes << " (within=" << r.hits_within
       << " jump=" << r.hits_jump << " end=" << r.end_releases
       << " miss=" << r.misses << ")"
       << " admissions=" << r.admissions << " type2=" << r.type2_admissions
       << " completions=" << r.completions
       << " mean_wait=" << r.mean_wait_minutes
       << " max_wait=" << r.max_wait_minutes
       << " mean_dedicated=" << r.mean_dedicated_streams
       << " blocked=" << r.blocked_vcr_requests
       << " stalls=" << r.stalled_resumes
       << " queued=" << r.queued_vcr_requests
       << " reclaims=" << r.forced_reclaims
       << " merges=" << r.piggyback_merges << "\n";
  }
  if (resilience_enabled) {
    const ResilienceReport& rz = resilience;
    os << "  resilience: failures=" << rz.disk_failures
       << " repairs=" << rz.disk_repairs
       << " min_capacity=" << rz.min_reserve_capacity
       << " max_oversub=" << rz.max_oversubscription
       << " final_level=" << DegradationLevelName(rz.final_level) << "\n";
    os << "  time_in_level:";
    for (int i = 0; i < kNumDegradationLevels; ++i) {
      os << " " << DegradationLevelName(static_cast<DegradationLevel>(i))
         << "=" << rz.time_in_level[i];
    }
    os << "\n";
    os << "  queue: queued=" << rz.vcr_queued
       << " grants=" << rz.vcr_queue_grants
       << " expired=" << rz.vcr_queue_expirations
       << " pending=" << rz.vcr_queue_pending << " denied=" << rz.vcr_denied
       << " mean_wait=" << rz.mean_queued_wait_minutes
       << " p50=" << rz.p50_queued_wait_minutes
       << " p90=" << rz.p90_queued_wait_minutes
       << " p99=" << rz.p99_queued_wait_minutes
       << " reclaims=" << rz.forced_reclaims << "\n";
    os << "  recovery: episodes=" << rz.recovery_episodes
       << " mean=" << rz.mean_recovery_minutes
       << " max=" << rz.max_recovery_minutes
       << " transitions=" << rz.total_transitions << "\n";
    for (const DegradationTransition& tr : rz.transitions) {
      os << "    t=" << tr.time << " " << DegradationLevelName(tr.from)
         << "->" << DegradationLevelName(tr.to)
         << " capacity=" << tr.capacity << "\n";
    }
  }
  if (controller_enabled && controller.Active()) {
    os << "  controller: " << controller.ToString() << "\n";
  }
  os << "}";
  return os.str();
}

Status ValidateServerInputs(const std::vector<ServerMovieSpec>& movies,
                            const ServerOptions& options) {
  if (movies.empty()) {
    return Status::InvalidArgument("server needs at least one movie");
  }
  for (const ServerMovieSpec& spec : movies) {
    const std::string who =
        "movie '" + (spec.name.empty() ? std::string("<unnamed>") : spec.name) +
        "'";
    const double l = spec.layout.movie_length();
    const double b = spec.layout.buffer_minutes();
    const double w = spec.layout.max_wait();
    if (!std::isfinite(l) || l <= 0.0) {
      return Status::InvalidArgument(who + ": movie length l must be a " +
                                     "finite positive number of minutes, got " +
                                     std::to_string(l));
    }
    if (spec.layout.streams() < 1) {
      return Status::InvalidArgument(
          who + ": needs at least one stream, got " +
          std::to_string(spec.layout.streams()));
    }
    if (!std::isfinite(b) || b < 0.0 || b > l) {
      return Status::InvalidArgument(who + ": buffer B must be finite in " +
                                     "[0, l], got " + std::to_string(b));
    }
    if (!std::isfinite(w) || w < 0.0) {
      return Status::InvalidArgument(who + ": implied max wait w = (l-B)/n " +
                                     "must be finite and non-negative, got " +
                                     std::to_string(w));
    }
    if (!std::isfinite(spec.arrival_rate_per_minute) ||
        !(spec.arrival_rate_per_minute > 0.0)) {
      return Status::InvalidArgument(
          who + ": needs a finite positive arrival rate, got " +
          std::to_string(spec.arrival_rate_per_minute));
    }
  }
  if (options.dynamic_stream_reserve < 0) {
    return Status::InvalidArgument("reserve must be non-negative");
  }
  if (!std::isfinite(options.warmup_minutes) ||
      !std::isfinite(options.measurement_minutes) ||
      options.warmup_minutes < 0.0 || !(options.measurement_minutes > 0.0)) {
    return Status::InvalidArgument(
        "warmup must be >= 0 and measurement span positive (and both finite)");
  }
  VOD_RETURN_IF_ERROR(options.degradation.Validate());
  if (options.faults.enabled) {
    if (options.faults.disks < 1) {
      return Status::InvalidArgument("fault injection needs >= 1 disk");
    }
    VOD_RETURN_IF_ERROR(options.faults.profile.Validate());
  }
  VOD_RETURN_IF_ERROR(options.audit.Validate());
  if (options.controller.enabled) {
    VOD_RETURN_IF_ERROR(options.controller.Validate());
  }
  return Status::OK();
}

Result<ServerReport> RunServerSimulation(
    const std::vector<ServerMovieSpec>& movies, const ServerOptions& options) {
  VOD_RETURN_IF_ERROR(ValidateServerInputs(movies, options));

  EventQueue queue;
  // Pre-size the kernel for the steady-state population across all movies
  // (Little's law per movie), plus slack for arrival clocks and the fault
  // schedule.
  double est_population = 64.0;
  for (const ServerMovieSpec& spec : movies) {
    est_population += spec.arrival_rate_per_minute * spec.layout.movie_length();
  }
  queue.Reserve(
      static_cast<size_t>(std::clamp(est_population, 64.0, 1.0e6)));
  const Rng base_rng(options.seed);

  // The seed's hard-refusal supplier stays in place unless faults or the
  // degradation ladder are requested, preserving legacy runs bit-for-bit.
  const bool manager_mode =
      options.faults.enabled || options.degradation.enabled;
  std::unique_ptr<FiniteStreamSupplier> finite;
  std::unique_ptr<ReserveManager> manager;
  StreamSupplier* supplier = nullptr;
  if (manager_mode) {
    manager = std::make_unique<ReserveManager>(
        options.dynamic_stream_reserve, options.degradation, &queue,
        options.warmup_minutes);
    supplier = manager.get();
  } else {
    finite =
        std::make_unique<FiniteStreamSupplier>(options.dynamic_stream_reserve);
    supplier = finite.get();
  }

  std::vector<std::unique_ptr<SimulationMetrics>> metrics;
  std::vector<std::unique_ptr<MovieWorld>> worlds;
  metrics.reserve(movies.size());
  worlds.reserve(movies.size());

  // The control plane is created before the worlds so it can be wired in
  // as their admission gate; its host reads `worlds` only after they exist.
  std::unique_ptr<WorldControllerHost> ctrl_host;
  std::unique_ptr<Controller> controller;
  if (options.controller.enabled) {
    ctrl_host = std::make_unique<WorldControllerHost>(&worlds, manager.get());
    std::vector<ControllerMovie> ctrl_movies;
    ctrl_movies.reserve(movies.size());
    for (const ServerMovieSpec& spec : movies) {
      ControllerMovie cm;
      cm.movie_length = spec.layout.movie_length();
      cm.baseline_rate = spec.arrival_rate_per_minute;
      ctrl_movies.push_back(cm);
    }
    controller = std::make_unique<Controller>(options.controller,
                                              std::move(ctrl_movies),
                                              ctrl_host.get(),
                                              options.obs.event_log);
  }

  for (size_t i = 0; i < movies.size(); ++i) {
    const ServerMovieSpec& spec = movies[i];
    MovieWorldConfig config;
    config.mean_interarrival_minutes = 1.0 / spec.arrival_rate_per_minute;
    config.arrivals = spec.arrivals;
    config.behavior = spec.behavior;
    config.stationary_start = options.stationary_start;
    config.piggyback = options.piggyback;
    config.event_log = options.obs.event_log;
    config.movie_id = static_cast<int32_t>(i);
    config.gate = controller.get();
    VOD_RETURN_IF_ERROR(ValidateMovieWorldInputs(options.rates, config));

    metrics.push_back(
        std::make_unique<SimulationMetrics>(options.warmup_minutes));
    worlds.push_back(std::make_unique<MovieWorld>(
        spec.layout, options.rates, config,
        base_rng.MakeChild(kMovieWorldStream, i), &queue, supplier,
        metrics.back().get()));
  }
  if (controller != nullptr) controller->Start(0.0);

  // Forced reclaim sweeps the worlds round-robin, one stream at a time, so
  // no single movie absorbs the whole loss.
  if (manager != nullptr) {
    manager->set_reclaim_hook([&worlds](double t, int64_t need) {
      int64_t got = 0;
      bool progress = true;
      while (got < need && progress) {
        progress = false;
        for (auto& world : worlds) {
          if (got >= need) break;
          if (world->ReclaimDedicated(t, 1) > 0) {
            ++got;
            progress = true;
          }
        }
      }
      return got;
    });
  }

  // The auditor re-derives the conservation laws from live state at its
  // cadence; the movie partition geometry is static, so it is expanded once.
  std::unique_ptr<InvariantAuditor> auditor;
  AuditSnapshot audit_snapshot;
  if (options.audit.enabled) {
    auditor = std::make_unique<InvariantAuditor>(options.audit);
    for (const ServerMovieSpec& spec : movies) {
      audit_snapshot.movies.push_back(
          BuildMovieAuditBuffers(spec.name, spec.layout));
    }
  }

  // Live instruments sampled on the simulation clock (telemetry-only).
  MetricsRegistry* registry = options.obs.metrics;
  Gauge* g_in_use = nullptr;
  Gauge* g_capacity = nullptr;
  Gauge* g_level = nullptr;
  if (registry != nullptr) {
    if (options.obs.metrics_sample_minutes > 0.0) {
      registry->set_sample_every(options.obs.metrics_sample_minutes);
    }
    g_in_use = registry->AddGauge("server_reserve_in_use",
                                  "dynamic reserve streams handed out");
    g_capacity = registry->AddGauge(
        "server_reserve_capacity", "current reserve capacity under faults");
    g_level = registry->AddGauge("server_degradation_level",
                                 "degradation ladder rung (0 = normal)");
  }
  Gauge* g_ctrl_epoch = nullptr;
  Gauge* g_ctrl_plan_age = nullptr;
  Gauge* g_ctrl_migrations = nullptr;
  Gauge* g_ctrl_rollbacks = nullptr;
  Gauge* g_ctrl_alarms = nullptr;
  Gauge* g_ctrl_sheds = nullptr;
  if (registry != nullptr && controller != nullptr) {
    g_ctrl_epoch = registry->AddGauge("controller_epoch",
                                      "committed buffer-plan epoch");
    g_ctrl_plan_age = registry->AddGauge(
        "controller_plan_age", "minutes since the last committed re-plan");
    g_ctrl_migrations = registry->AddGauge(
        "controller_migrations", "migrations started over the run");
    g_ctrl_rollbacks = registry->AddGauge("controller_rollbacks",
                                          "migrations rolled back");
    g_ctrl_alarms = registry->AddGauge("controller_drift_alarms",
                                       "Page-Hinkley drift alarms latched");
    g_ctrl_sheds = registry->AddGauge(
        "controller_sheds", "arrivals shed by the admission policy");
  }

  // Ladder transitions surface on the event bus as they are recorded. Once
  // the stored transition log caps, fall back to diffing the live rung.
  EventLog* event_log = options.obs.event_log;

  // With audit + tracing both on, the auditor's tail ring joins the bus so
  // violation diagnostics carry admission/fault/ladder context.
  ScopedEventSink lend_ring(
      event_log, auditor != nullptr ? auditor->trace_ring() : nullptr);

  // Select the observer instantiation once per run (DESIGN.md §15): the
  // audited/traced axes are baked in at compile time instead of being
  // re-branched on every event. kPlain installs no observer at all.
  ServerObserverCtx observer_ctx;
  observer_ctx.auditor = auditor.get();
  observer_ctx.audit_snapshot = &audit_snapshot;
  observer_ctx.supplier = supplier;
  observer_ctx.manager = manager.get();
  observer_ctx.finite = finite.get();
  observer_ctx.worlds = &worlds;
  observer_ctx.movies = &movies;
  observer_ctx.controller = controller.get();
  observer_ctx.event_log = event_log;
  observer_ctx.registry = registry;
  observer_ctx.g_in_use = g_in_use;
  observer_ctx.g_capacity = g_capacity;
  observer_ctx.g_level = g_level;
  observer_ctx.g_ctrl_epoch = g_ctrl_epoch;
  observer_ctx.g_ctrl_plan_age = g_ctrl_plan_age;
  observer_ctx.g_ctrl_migrations = g_ctrl_migrations;
  observer_ctx.g_ctrl_rollbacks = g_ctrl_rollbacks;
  observer_ctx.g_ctrl_alarms = g_ctrl_alarms;
  observer_ctx.g_ctrl_sheds = g_ctrl_sheds;
  InstallServerObserver(
      queue,
      ComposeRunLoopVariant(auditor != nullptr,
                            registry != nullptr || event_log != nullptr),
      &observer_ctx);

  const double horizon = options.warmup_minutes + options.measurement_minutes;

  // Pre-schedule the disk failure/repair trajectory. Scheduling before the
  // worlds start keeps the (time, insertion-seq) order deterministic.
  int64_t disk_failures = 0;
  int64_t disk_repairs = 0;
  if (options.faults.enabled) {
    FaultInjector injector(
        FaultInjector::SplitCapacity(options.dynamic_stream_reserve,
                                     options.faults.disks),
        options.faults.profile, base_rng.MakeChild(kFaultStream, 0));
    ReserveManager* mgr = manager.get();
    Controller* ctrl = controller.get();
    for (const FaultEvent& ev : injector.Schedule(horizon)) {
      queue.Schedule(ev.time,
                     [mgr, ctrl, ev, &disk_failures, &disk_repairs,
                      event_log] {
                       if (ev.failure) {
                         ++disk_failures;
                       } else {
                         ++disk_repairs;
                       }
                       if (ObsEnabled(event_log, EventCategory::kFault)) {
                         event_log->Emit(
                             ev.time, EventCategory::kFault,
                             /*subtype=*/ev.failure ? 0 : 1, /*movie=*/-1,
                             /*id=*/ev.disk,
                             static_cast<double>(ev.capacity_after));
                       }
                       mgr->SetCapacity(ev.time, ev.capacity_after);
                       // A capacity collapse mid-migration aborts it; the
                       // controller checks the ladder after the change.
                       if (ctrl != nullptr) ctrl->OnCapacityChange(ev.time);
                     });
    }
  }

  // The controller's decision clock: a self-rescheduling wake-up. OnWakeup
  // returns the next time it needs (poll cadence, a migration backoff, or
  // a drain landing — always > t), so the chain never busy-loops.
  std::function<void(double)> controller_pump;
  if (controller != nullptr) {
    Controller* ctrl = controller.get();
    controller_pump = [&queue, &controller_pump, ctrl, horizon](double t) {
      const double next = ctrl->OnWakeup(t);
      if (next < horizon) {
        queue.Schedule(next, [&controller_pump, next] {
          controller_pump(next);
        });
      }
    };
    const double first = options.controller.poll_interval_minutes;
    if (first < horizon) {
      queue.Schedule(first,
                     [&controller_pump, first] { controller_pump(first); });
    }
  }

  for (auto& world : worlds) world->Start();
  queue.RunUntil(horizon);
  if (manager != nullptr) manager->Finalize(horizon);
  if (registry != nullptr) registry->SampleAt(horizon);
  if (auditor != nullptr && auditor->total_violations() > 0) {
    return auditor->status();
  }

  ServerReport report;
  if (manager != nullptr) {
    report.reserve_capacity = manager->nominal_capacity();
    report.mean_reserve_in_use = manager->MeanInUse(horizon);
    report.peak_reserve_in_use = manager->peak_in_use();
    report.refused_acquisitions = manager->refused();
    report.granted_acquisitions = manager->acquired();
  } else {
    report.reserve_capacity = finite->capacity();
    report.mean_reserve_in_use = finite->MeanInUse(horizon);
    report.peak_reserve_in_use = finite->peak_in_use();
    report.refused_acquisitions = finite->refused();
    report.granted_acquisitions = finite->acquired();
  }
  const int64_t attempts =
      report.refused_acquisitions + report.granted_acquisitions;
  report.refusal_probability =
      attempts > 0
          ? static_cast<double>(report.refused_acquisitions) / attempts
          : 0.0;
  for (size_t i = 0; i < movies.size(); ++i) {
    ServerReport::PerMovie per_movie;
    per_movie.name = movies[i].name;
    FillReportFromMetrics(*metrics[i], horizon, &per_movie.report);
    per_movie.report.max_wait_minutes = worlds[i]->max_wait_seen();
    per_movie.report.abandonments = worlds[i]->abandonments();
    report.total_blocked_vcr += per_movie.report.blocked_vcr_requests;
    report.total_stalls += per_movie.report.stalled_resumes;
    report.total_resumes += per_movie.report.total_resumes;
    report.total_queued_vcr += per_movie.report.queued_vcr_requests;
    report.total_forced_reclaims += per_movie.report.forced_reclaims;
    report.movies.push_back(std::move(per_movie));
  }

  if (manager != nullptr) {
    report.resilience_enabled = true;
    ResilienceReport& rz = report.resilience;
    rz.disk_failures = disk_failures;
    rz.disk_repairs = disk_repairs;
    rz.min_reserve_capacity = manager->min_capacity_seen();
    rz.max_oversubscription = manager->max_oversubscription();
    rz.final_level = manager->level();
    for (int i = 0; i < kNumDegradationLevels; ++i) {
      rz.time_in_level[i] =
          manager->time_in_level(static_cast<DegradationLevel>(i));
    }
    rz.total_transitions = manager->total_transitions();
    rz.transitions = manager->transitions();
    rz.vcr_queued = manager->vcr_queued();
    rz.vcr_queue_grants = manager->vcr_queue_grants();
    rz.vcr_queue_expirations = manager->vcr_queue_expirations();
    rz.vcr_queue_pending = manager->measured_queue_pending();
    rz.vcr_denied = manager->vcr_denied();
    rz.mean_queued_wait_minutes = manager->queued_wait().mean();
    if (manager->queued_wait_quantiles().count() > 0) {
      rz.p50_queued_wait_minutes = manager->queued_wait_quantiles().p50();
      rz.p90_queued_wait_minutes = manager->queued_wait_quantiles().p90();
      rz.p99_queued_wait_minutes = manager->queued_wait_quantiles().p99();
    }
    rz.forced_reclaims = manager->forced_reclaims();
    rz.recovery_episodes = manager->recovery_times().count();
    rz.mean_recovery_minutes = manager->recovery_times().mean();
    rz.max_recovery_minutes =
        rz.recovery_episodes > 0 ? manager->recovery_times().max() : 0.0;
  }
  if (controller != nullptr) {
    report.controller_enabled = true;
    report.controller = controller->Report();
  }
  return report;
}

}  // namespace vod
