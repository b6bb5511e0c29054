#include "sim/server_driver.h"

#include <sstream>
#include <utility>

namespace vod {

MovieWorldConfig ServerMovieConfig(const ServerMovieSpec& spec,
                                   const ServerOptions& options,
                                   size_t index) {
  MovieWorldConfig config;
  config.mean_interarrival_minutes = 1.0 / spec.arrival_rate_per_minute;
  config.arrivals = spec.arrivals;
  config.behavior = spec.behavior;
  config.piggyback = options.piggyback;
  config.movie_id = static_cast<int32_t>(index);
  return config;
}

std::vector<ControllerMovie> ControllerMovies(
    const std::vector<ServerMovieSpec>& movies) {
  std::vector<ControllerMovie> out;
  out.reserve(movies.size());
  for (const ServerMovieSpec& spec : movies) {
    ControllerMovie cm;
    cm.movie_length = spec.layout.movie_length();
    cm.baseline_rate = spec.arrival_rate_per_minute;
    out.push_back(cm);
  }
  return out;
}

std::vector<FaultEvent> ServerFaultSchedule(const ServerOptions& options,
                                            const Rng& base_rng,
                                            double horizon) {
  if (!options.faults.enabled) return {};
  FaultInjector injector(
      FaultInjector::SplitCapacity(options.dynamic_stream_reserve,
                                   options.faults.disks),
      options.faults.profile, base_rng.MakeChild(kFaultStream, 0));
  return injector.Schedule(horizon);
}

void FaultCounts::Count(const FaultEvent& ev, EventLog* event_log) {
  if (ev.failure) {
    ++failures;
  } else {
    ++repairs;
  }
  if (ObsEnabled(event_log, EventCategory::kFault)) {
    event_log->Emit(ev.time, EventCategory::kFault,
                    /*subtype=*/ev.failure ? 0 : 1, /*movie=*/-1,
                    /*id=*/ev.disk, static_cast<double>(ev.capacity_after));
  }
}

ReserveGauges RegisterReserveGauges(const ObsOptions& obs,
                                    bool capacity_moves, bool rung_moves) {
  MetricsRegistry* registry = obs.metrics;
  if (obs.metrics_sample_minutes > 0.0) {
    registry->set_sample_every(obs.metrics_sample_minutes);
  }
  ReserveGauges gauges;
  gauges.in_use = registry->AddGauge("server_reserve_in_use",
                                     "dynamic reserve streams handed out");
  if (capacity_moves) {
    gauges.capacity = registry->AddGauge(
        "server_reserve_capacity", "current reserve capacity under faults");
  }
  if (rung_moves) {
    gauges.level = registry->AddGauge("server_degradation_level",
                                      "degradation ladder rung (0 = normal)");
  }
  return gauges;
}

Status ValidateMetricCadence(const ObsOptions& obs, double horizon_minutes) {
  const double cadence = obs.metrics_sample_minutes;
  const double samples = horizon_minutes / cadence;
  if (!(cadence > 0.0) || samples <= static_cast<double>(kMaxMetricSamples)) {
    return Status::OK();
  }
  std::ostringstream os;
  os << "metrics_sample_minutes=" << cadence << " asks for " << samples
     << " samples over a " << horizon_minutes
     << "-minute run; a run allows at most " << kMaxMetricSamples;
  return Status::InvalidArgument(os.str());
}

int ControllerPressure(DegradationLevel rung) {
  if (rung >= DegradationLevel::kReclaim) return 2;
  if (rung >= DegradationLevel::kShedVcr) return 1;
  return 0;
}

void FillControllerAudit(const Controller& controller,
                         const ControllerHost& host,
                         const std::vector<ServerMovieSpec>& movies,
                         AuditSnapshot* snapshot) {
  auto& cs = snapshot->controller;
  cs.enabled = true;
  cs.sum_live_streams = 0;
  cs.sum_live_buffer = 0.0;
  for (size_t i = 0; i < movies.size(); ++i) {
    const PartitionLayout& live = host.LiveLayout(static_cast<int32_t>(i));
    cs.sum_live_streams += live.streams();
    cs.sum_live_buffer += live.buffer_minutes();
    snapshot->movies[i] = BuildMovieAuditBuffers(movies[i].name, live);
  }
  const MigrationEngine& engine = controller.engine();
  cs.stream_budget = engine.stream_budget();
  cs.buffer_budget = engine.buffer_budget();
  cs.free_streams = engine.free_streams();
  cs.free_buffer = engine.free_buffer();
  cs.inflight_streams = engine.inflight_streams();
  cs.inflight_buffer = engine.inflight_buffer();
  cs.epoch = controller.epoch();
  cs.steps_applied = engine.steps_applied();
  cs.steps_planned = engine.steps_planned();
}

void AddMovieReport(const std::string& name, const SimulationMetrics& metrics,
                    const MovieWorld& world, double horizon,
                    ServerReport* report) {
  ServerReport::PerMovie per_movie;
  per_movie.name = name;
  FillReportFromMetrics(metrics, horizon, &per_movie.report);
  per_movie.report.max_wait_minutes = world.max_wait_seen();
  per_movie.report.abandonments = world.abandonments();
  report->total_blocked_vcr += per_movie.report.blocked_vcr_requests;
  report->total_stalls += per_movie.report.stalled_resumes;
  report->total_resumes += per_movie.report.total_resumes;
  report->total_queued_vcr += per_movie.report.queued_vcr_requests;
  report->total_forced_reclaims += per_movie.report.forced_reclaims;
  report->movies.push_back(std::move(per_movie));
}

void SetAcquisitions(int64_t refused, int64_t granted, ServerReport* report) {
  report->refused_acquisitions = refused;
  report->granted_acquisitions = granted;
  const int64_t attempts = refused + granted;
  report->refusal_probability =
      attempts > 0 ? static_cast<double>(refused) / attempts : 0.0;
}

void FillQueueReport(const std::vector<const VcrWaitQueue*>& queues,
                     ResilienceReport* rz) {
  // Pooled in the given (global movie) order; the P2 quantile marker merge
  // keeps pooled tails deterministic, and pooling one queue is a copy.
  RunningStats wait;
  LatencyQuantiles wait_quantiles;
  for (const VcrWaitQueue* queue : queues) {
    rz->vcr_queued += queue->vcr_queued();
    rz->vcr_queue_grants += queue->vcr_queue_grants();
    rz->vcr_queue_expirations += queue->vcr_queue_expirations();
    rz->vcr_queue_pending += queue->measured_queue_pending();
    rz->vcr_denied += queue->vcr_denied();
    wait.Merge(queue->queued_wait());
    wait_quantiles.Merge(queue->queued_wait_quantiles());
  }
  rz->mean_queued_wait_minutes = wait.mean();
  if (wait_quantiles.count() > 0) {
    rz->p50_queued_wait_minutes = wait_quantiles.p50();
    rz->p90_queued_wait_minutes = wait_quantiles.p90();
    rz->p99_queued_wait_minutes = wait_quantiles.p99();
  }
}

void FillLadderReport(const LadderHistory& history,
                      DegradationLevel final_level, ResilienceReport* rz) {
  rz->final_level = final_level;
  for (int i = 0; i < kNumDegradationLevels; ++i) {
    rz->time_in_level[i] = history.time_in_level[i];
  }
  rz->total_transitions = history.total_transitions;
  rz->transitions = history.transitions;
  rz->recovery_episodes = history.recovery_times.count();
  rz->mean_recovery_minutes = history.recovery_times.mean();
  rz->max_recovery_minutes =
      rz->recovery_episodes > 0 ? history.recovery_times.max() : 0.0;
}

}  // namespace vod
