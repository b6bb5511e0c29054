#include "sim/server.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iomanip>
#include <memory>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "sim/event_queue.h"
#include "sim/server_driver.h"

namespace vod {

namespace {

using Worlds = std::vector<std::unique_ptr<MovieWorld>>;

// The controller's window onto the running server: layout commits go
// through MovieWorld::ApplyLayout (re-anchor, never preempt), and overload
// pressure is derived from the degradation ladder rung. Without faults or
// the ladder the rung stays kNormal, so the traffic policy admits
// everything.
class WorldControllerHost final : public ControllerHost {
 public:
  WorldControllerHost(Worlds* worlds, const ReserveManager* manager)
      : worlds_(worlds), manager_(manager) {}

  void CommitLayout(int32_t movie, double t,
                    const PartitionLayout& layout) override {
    (*worlds_)[static_cast<size_t>(movie)]->ApplyLayout(t, layout);
  }
  const PartitionLayout& LiveLayout(int32_t movie) const override {
    return (*worlds_)[static_cast<size_t>(movie)]->layout();
  }
  bool ReclaimBlocked() const override {
    return rung() >= DegradationLevel::kReclaim;
  }
  int PressureLevel() const override { return ControllerPressure(rung()); }

 private:
  DegradationLevel rung() const { return manager_->level(); }

  Worlds* worlds_;
  const ReserveManager* manager_;
};

/// The run's wiring: everything the per-event observer and the report
/// read, behind the kernel's raw observer pointer.
struct ServerRun {
  InvariantAuditor* auditor = nullptr;
  AuditSnapshot* audit_snapshot = nullptr;
  ReserveManager* manager = nullptr;
  const Worlds* worlds = nullptr;
  const std::vector<ServerMovieSpec>* movies = nullptr;
  Controller* controller = nullptr;
  const ControllerHost* ctrl_host = nullptr;
  MetricsRegistry* registry = nullptr;
  ReserveGauges reserve_gauges;
  Gauge* g_ctrl_epoch = nullptr;
  Gauge* g_ctrl_plan_age = nullptr;
  Gauge* g_ctrl_migrations = nullptr;
  Gauge* g_ctrl_rollbacks = nullptr;
  Gauge* g_ctrl_alarms = nullptr;
  Gauge* g_ctrl_sheds = nullptr;
};

void AuditServer(ServerRun* ctx, double t) {
  InvariantAuditor* auditor = ctx->auditor;
  auditor->RecordEvent(t);
  if (!auditor->AuditDue()) return;
  AuditSnapshot& snapshot = *ctx->audit_snapshot;
  const ReserveManager* manager = ctx->manager;
  snapshot.time = t;
  snapshot.supplier_in_use = manager->in_use();
  snapshot.supplier_capacity = manager->capacity();
  snapshot.nominal_capacity = manager->nominal_capacity();
  snapshot.degradation_level = static_cast<int>(manager->level());
  snapshot.transitions = &manager->transitions();
  snapshot.total_transitions = manager->total_transitions();
  int64_t holds = 0;
  for (const auto& world : *ctx->worlds) {
    holds += world->dedicated_streams_held();
  }
  snapshot.sum_world_holds = holds;
  if (ctx->controller != nullptr) {
    FillControllerAudit(*ctx->controller, *ctx->ctrl_host, *ctx->movies,
                        &snapshot);
  }
  auditor->Audit(snapshot);
}

void SampleServerGauges(ServerRun* ctx, double t) {
  const ReserveManager* manager = ctx->manager;
  const ReserveGauges& g = ctx->reserve_gauges;
  g.in_use->Set(static_cast<double>(manager->in_use()));
  if (g.capacity != nullptr) {
    g.capacity->Set(static_cast<double>(manager->capacity()));
  }
  if (g.level != nullptr) g.level->Set(static_cast<double>(manager->level()));
  if (ctx->controller != nullptr) {
    const ControllerReport cr = ctx->controller->Report();
    ctx->g_ctrl_epoch->Set(static_cast<double>(cr.final_epoch));
    ctx->g_ctrl_plan_age->Set(
        cr.last_commit_time >= 0.0 ? t - cr.last_commit_time : t);
    ctx->g_ctrl_migrations->Set(static_cast<double>(cr.migrations_started));
    ctx->g_ctrl_rollbacks->Set(static_cast<double>(cr.rollbacks));
    ctx->g_ctrl_alarms->Set(static_cast<double>(cr.drift_alarms));
    ctx->g_ctrl_sheds->Set(static_cast<double>(cr.admission_sheds));
  }
  ctx->registry->MaybeSample(t);
}

/// The per-event observer. Installed only when the run audits or samples
/// metrics, so a plain or traced run keeps the kernel's unobserved loop.
void ObserveServer(void* raw, double t) {
  auto* ctx = static_cast<ServerRun*>(raw);
  if (ctx->auditor != nullptr) AuditServer(ctx, t);
  if (ctx->registry != nullptr) SampleServerGauges(ctx, t);
}

/// Live instruments sampled on the simulation clock (telemetry-only).
void RegisterServerGauges(const ServerOptions& options, bool with_controller,
                          ServerRun* ctx) {
  MetricsRegistry* registry = options.obs.metrics;
  // Without faults the capacity stays nominal; the rung moves only with
  // faults or the ladder.
  ctx->reserve_gauges = RegisterReserveGauges(
      options.obs, options.faults.enabled,
      options.faults.enabled || options.degradation.enabled);
  if (!with_controller) return;
  ctx->g_ctrl_epoch = registry->AddGauge("controller_epoch",
                                         "committed buffer-plan epoch");
  ctx->g_ctrl_plan_age = registry->AddGauge(
      "controller_plan_age", "minutes since the last committed re-plan");
  ctx->g_ctrl_migrations = registry->AddGauge(
      "controller_migrations", "migrations started over the run");
  ctx->g_ctrl_rollbacks = registry->AddGauge("controller_rollbacks",
                                             "migrations rolled back");
  ctx->g_ctrl_alarms = registry->AddGauge("controller_drift_alarms",
                                          "Page-Hinkley drift alarms latched");
  ctx->g_ctrl_sheds = registry->AddGauge(
      "controller_sheds", "arrivals shed by the admission policy");
}

/// Forced reclaim sweeps the worlds round-robin, one stream at a time, so
/// no single movie absorbs the whole loss.
void InstallReclaimHook(ReserveManager* manager, Worlds* worlds) {
  manager->set_reclaim_hook([worlds](double t, int64_t need) {
    int64_t got = 0;
    bool progress = true;
    while (got < need && progress) {
      progress = false;
      for (auto& world : *worlds) {
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

/// Puts the disk failure/repair trajectory on the kernel. Scheduling before
/// the worlds start keeps the (time, insertion-seq) order deterministic.
void ScheduleFaults(const std::vector<FaultEvent>& schedule, EventQueue* queue,
                    ReserveManager* mgr, Controller* ctrl, EventLog* event_log,
                    FaultCounts* counts) {
  for (const FaultEvent& ev : schedule) {
    queue->Schedule(ev.time, [mgr, ctrl, ev, counts, event_log] {
      counts->Count(ev, event_log);
      mgr->SetCapacity(ev.time, ev.capacity_after);
      // A capacity collapse mid-migration aborts it; the controller checks
      // the ladder after the change.
      if (ctrl != nullptr) ctrl->OnCapacityChange(ev.time);
    });
  }
}

/// The run's report, read from the reserve, the worlds and the controller
/// once the queue has run to the horizon. The resilience block is filled
/// when faults or the ladder were requested.
ServerReport AssembleServerReport(
    const std::vector<ServerMovieSpec>& movies,
    const std::vector<std::unique_ptr<SimulationMetrics>>& metrics,
    const Worlds& worlds, const ServerRun& run, bool resilience_enabled,
    const FaultCounts& faults, double horizon) {
  const ReserveManager* manager = run.manager;
  ServerReport report;
  report.reserve_capacity = manager->nominal_capacity();
  report.mean_reserve_in_use = manager->MeanInUse(horizon);
  report.peak_reserve_in_use = manager->peak_in_use();
  SetAcquisitions(manager->refused(), manager->acquired(), &report);
  for (size_t i = 0; i < movies.size(); ++i) {
    AddMovieReport(movies[i].name, *metrics[i], *worlds[i], horizon, &report);
  }
  if (resilience_enabled) {
    report.resilience_enabled = true;
    ResilienceReport& rz = report.resilience;
    rz.disk_failures = faults.failures;
    rz.disk_repairs = faults.repairs;
    rz.min_reserve_capacity = manager->min_capacity_seen();
    rz.max_oversubscription = manager->max_oversubscription();
    FillLadderReport(manager->history(), manager->level(), &rz);
    FillQueueReport({manager}, &rz);
    rz.forced_reclaims = manager->forced_reclaims();
  }
  if (run.controller != nullptr) {
    report.controller_enabled = true;
    report.controller = run.controller->Report();
  }
  return report;
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
  VOD_RETURN_IF_ERROR(ValidateMetricCadence(
      options.obs, options.warmup_minutes + options.measurement_minutes));
  VOD_RETURN_IF_ERROR(options.degradation.Validate());
  if (options.faults.enabled) {
    if (options.faults.disks < 1) {
      return Status::InvalidArgument("fault injection needs >= 1 disk");
    }
    // Every disk carries at least one reserve stream; this also bounds the
    // per-disk capacity table before anything sizes it.
    if (options.faults.disks >
        std::max<int64_t>(1, options.dynamic_stream_reserve)) {
      return Status::InvalidArgument(
          "fault injection stripes the reserve of " +
          std::to_string(options.dynamic_stream_reserve) + " stream(s) over " +
          std::to_string(options.faults.disks) +
          " disks; each disk needs at least one stream");
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
  const Rng base_rng(options.seed);
  std::vector<WorldSetup> setups;
  setups.reserve(movies.size());
  for (size_t i = 0; i < movies.size(); ++i) {
    MovieWorldConfig config = ServerMovieConfig(movies[i], options, i);
    VOD_RETURN_IF_ERROR(ValidateMovieWorldInputs(options.rates, config));
    setups.push_back(
        {std::move(config), base_rng.MakeChild(kMovieWorldStream, i)});
  }
  return RunServerWorlds(movies, options, setups, /*executed_events=*/nullptr);
}

Result<ServerReport> RunServerWorlds(
    const std::vector<ServerMovieSpec>& movies, const ServerOptions& options,
    const std::vector<WorldSetup>& setups, uint64_t* executed_events) {
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
  EventLog* event_log = options.obs.event_log;
  ServerRun run;

  // One reserve for every run. With the ladder off and no faults it never
  // leaves kNormal and refuses exactly when the reserve is exhausted.
  ReserveManager manager(options.dynamic_stream_reserve, options.degradation,
                         &queue, options.warmup_minutes);
  manager.set_event_log(event_log);
  run.manager = &manager;

  std::vector<std::unique_ptr<SimulationMetrics>> metrics;
  Worlds worlds;
  metrics.reserve(movies.size());
  worlds.reserve(movies.size());

  // The control plane is created before the worlds so it can be wired in
  // as their admission gate; its host reads `worlds` only after they exist.
  std::unique_ptr<WorldControllerHost> ctrl_host;
  std::unique_ptr<Controller> controller;
  if (options.controller.enabled) {
    ctrl_host = std::make_unique<WorldControllerHost>(&worlds, &manager);
    controller = std::make_unique<Controller>(
        options.controller, ControllerMovies(movies), ctrl_host.get(),
        event_log);
  }

  for (size_t i = 0; i < movies.size(); ++i) {
    MovieWorldConfig config = setups[i].config;
    config.event_log = event_log;
    config.gate = controller.get();
    metrics.push_back(
        std::make_unique<SimulationMetrics>(options.warmup_minutes));
    worlds.push_back(std::make_unique<MovieWorld>(
        movies[i].layout, options.rates, config, setups[i].rng, &queue,
        &manager, metrics.back().get()));
  }
  if (controller != nullptr) controller->Start(0.0);
  InstallReclaimHook(&manager, &worlds);

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
  MetricsRegistry* registry = options.obs.metrics;
  if (registry != nullptr) {
    RegisterServerGauges(options, controller != nullptr, &run);
  }

  // With audit + tracing both on, the auditor's tail ring joins the bus so
  // violation diagnostics carry admission/fault/ladder context.
  ScopedEventSink lend_ring(
      event_log, auditor != nullptr ? auditor->trace_ring() : nullptr);

  run.auditor = auditor.get();
  run.audit_snapshot = &audit_snapshot;
  run.worlds = &worlds;
  run.movies = &movies;
  run.controller = controller.get();
  run.ctrl_host = ctrl_host.get();
  run.registry = registry;
  if (auditor != nullptr || registry != nullptr) {
    queue.set_observer(&ObserveServer, &run);
  }

  const double horizon = options.warmup_minutes + options.measurement_minutes;
  FaultCounts faults;
  ScheduleFaults(ServerFaultSchedule(options, base_rng, horizon), &queue,
                 &manager, controller.get(), event_log, &faults);

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
  manager.Finalize(horizon);
  if (registry != nullptr) registry->SampleAt(horizon);
  if (auditor != nullptr && auditor->total_violations() > 0) {
    return auditor->status();
  }
  if (executed_events != nullptr) *executed_events = queue.executed();
  return AssembleServerReport(
      movies, metrics, worlds, run,
      options.faults.enabled || options.degradation.enabled, faults, horizon);
}

}  // namespace vod
