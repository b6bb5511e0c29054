#include "sim/simulator.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "sim/event_queue.h"
#include "sim/movie_world.h"
#include "sim/stream_supplier.h"

namespace vod {

namespace {

/// Everything the per-event observer touches, behind the kernel's raw
/// observer pointer.
struct SimObserverCtx {
  InvariantAuditor* auditor = nullptr;
  AuditSnapshot* audit_snapshot = nullptr;
  UnlimitedStreamSupplier* supplier = nullptr;
  MovieWorld* world = nullptr;
  SimulationMetrics* metrics = nullptr;
  MetricsRegistry* registry = nullptr;
  Gauge* g_dedicated = nullptr;
  Gauge* g_admissions = nullptr;
  Gauge* g_resumes = nullptr;
};

/// The per-event observer. Installed only when the run audits or samples
/// metrics, so a plain run keeps the kernel's unobserved loop.
void ObserveSimulation(void* raw, double t) {
  auto* ctx = static_cast<SimObserverCtx*>(raw);
  if (ctx->auditor != nullptr) {
    ctx->auditor->RecordEvent(t);
    if (ctx->auditor->AuditDue()) {
      ctx->audit_snapshot->time = t;
      ctx->audit_snapshot->supplier_in_use = ctx->supplier->in_use();
      ctx->audit_snapshot->sum_world_holds =
          ctx->world->dedicated_streams_held();
      ctx->auditor->Audit(*ctx->audit_snapshot);
    }
  }
  if (ctx->registry != nullptr) {
    ctx->g_dedicated->Set(
        static_cast<double>(ctx->world->dedicated_streams_held()));
    ctx->g_admissions->Set(static_cast<double>(ctx->metrics->admissions()));
    ctx->g_resumes->Set(static_cast<double>(ctx->metrics->total_resumes()));
    ctx->registry->MaybeSample(t);
  }
}

}  // namespace

std::string SimulationReport::ToString() const {
  std::ostringstream os;
  os << "SimulationReport{P(hit)=" << hit_probability << " ["
     << hit_probability_low << ", " << hit_probability_high << "]"
     << ", resumes=" << total_resumes << " (within=" << hits_within
     << ", jump=" << hits_jump << ", end=" << end_releases
     << ", miss=" << misses << ")"
     << ", admissions=" << admissions << " (type2=" << type2_admissions << ")"
     << ", mean_wait=" << mean_wait_minutes
     << ", max_wait=" << max_wait_minutes
     << ", avg_dedicated_streams=" << mean_dedicated_streams;
  if (piggyback_merges > 0) {
    os << ", piggyback_merges=" << piggyback_merges
       << ", mean_merge=" << mean_merge_minutes;
  }
  os << "}";
  return os.str();
}

/// Fills the shared report fields from a movie's metrics.
void FillReportFromMetrics(const SimulationMetrics& metrics, double horizon,
                           SimulationReport* report) {
  report->hit_probability = metrics.hit_all().estimate();
  report->hit_probability_low = metrics.hit_all().WilsonLower();
  report->hit_probability_high = metrics.hit_all().WilsonUpper();
  for (VcrOp op : kAllVcrOps) {
    const int idx = static_cast<int>(op);
    report->hit_probability_by_op[idx] = metrics.hit_by_op(op).estimate();
    report->resumes_by_op[idx] = metrics.hit_by_op(op).trials();
  }
  report->hit_probability_in_partition =
      metrics.hit_in_partition_all().estimate();
  report->hit_probability_in_partition_low =
      metrics.hit_in_partition_all().WilsonLower();
  report->hit_probability_in_partition_high =
      metrics.hit_in_partition_all().WilsonUpper();
  report->in_partition_resumes = metrics.hit_in_partition_all().trials();
  const BatchMeansInterval bm = metrics.hit_in_partition_batches().Interval();
  if (bm.valid) report->hit_probability_in_partition_bm_halfwidth = bm.half_width;
  report->total_resumes = metrics.total_resumes();
  report->hits_within = metrics.resumes(ResumeOutcome::kHitWithin);
  report->hits_jump = metrics.resumes(ResumeOutcome::kHitJump);
  report->end_releases = metrics.resumes(ResumeOutcome::kEndOfMovie);
  report->misses = metrics.resumes(ResumeOutcome::kMiss);
  report->admissions = metrics.admissions();
  report->type2_admissions = metrics.type2_admissions();
  report->completions = metrics.completions();
  report->mean_wait_minutes = metrics.wait_time().mean();
  if (metrics.wait_quantiles().count() > 0) {
    report->p50_wait_minutes = metrics.wait_quantiles().p50();
    report->p99_wait_minutes = metrics.wait_quantiles().p99();
  }
  report->mean_dedicated_streams =
      metrics.dedicated_streams().TimeAverage(horizon);
  report->peak_dedicated_streams = metrics.dedicated_streams().max();
  report->mean_concurrent_viewers =
      metrics.concurrent_viewers().TimeAverage(horizon);
  report->piggyback_merges = metrics.piggyback_merges();
  report->mean_merge_minutes = metrics.merge_drift_time().mean();
  report->blocked_vcr_requests = metrics.blocked_vcr();
  report->stalled_resumes = metrics.stalls();
  report->queued_vcr_requests = metrics.queued_vcr();
  report->forced_reclaims = metrics.forced_reclaims();
  report->simulated_minutes = horizon;
}

Result<SimulationReport> RunSimulation(const PartitionLayout& layout,
                                       const PlaybackRates& rates,
                                       const SimulationOptions& options) {
  MovieWorldConfig config;
  config.mean_interarrival_minutes = options.mean_interarrival_minutes;
  config.arrivals = options.arrivals;
  config.behavior = options.behavior;
  config.stationary_start = options.stationary_start;
  config.piggyback = options.piggyback;
  config.trace = options.trace;
  config.gate = options.gate;
  config.patience = options.patience;
  config.event_log = options.obs.event_log;
  VOD_RETURN_IF_ERROR(ValidateMovieWorldInputs(rates, config));
  if (options.warmup_minutes < 0.0 || !(options.measurement_minutes > 0.0)) {
    return Status::InvalidArgument(
        "warmup must be >= 0 and measurement span positive");
  }

  EventQueue queue;
  // Pre-size the kernel for the steady-state population: one pending event
  // per in-flight viewer (Little's law: arrival rate x movie length) plus
  // the arrival clock.
  const double est_population =
      layout.movie_length() / config.mean_interarrival_minutes;
  queue.Reserve(static_cast<size_t>(
      std::clamp(est_population + 64.0, 64.0, 1.0e6)));
  UnlimitedStreamSupplier supplier;
  SimulationMetrics metrics(options.warmup_minutes);
  MovieWorld world(layout, rates, config, Rng(options.seed), &queue,
                   &supplier, &metrics);

  std::unique_ptr<InvariantAuditor> auditor;
  AuditSnapshot audit_snapshot;
  if (options.audit.enabled) {
    VOD_RETURN_IF_ERROR(options.audit.Validate());
    auditor = std::make_unique<InvariantAuditor>(options.audit);
    audit_snapshot.movies.push_back(BuildMovieAuditBuffers("movie", layout));
  }

  // Live instruments sampled on the simulation clock. Registered up front
  // so the export order is deterministic; sampling happens on the event-loop
  // observer and never feeds back into the report.
  SimObserverCtx observer_ctx;
  MetricsRegistry* registry = options.obs.metrics;
  if (registry != nullptr) {
    if (options.obs.metrics_sample_minutes > 0.0) {
      registry->set_sample_every(options.obs.metrics_sample_minutes);
    }
    observer_ctx.g_dedicated = registry->AddGauge(
        "sim_dedicated_streams", "dedicated VCR streams currently held");
    observer_ctx.g_admissions = registry->AddGauge(
        "sim_admissions_total", "viewers admitted in the measurement window");
    observer_ctx.g_resumes = registry->AddGauge(
        "sim_resumes_total", "VCR resumes in the measurement window");
  }

  // When a run both audits and traces, the auditor's tail ring doubles as a
  // bus sink so violation diagnostics carry the rich event context.
  ScopedEventSink lend_ring(
      options.obs.event_log,
      auditor != nullptr ? auditor->trace_ring() : nullptr);

  observer_ctx.auditor = auditor.get();
  observer_ctx.audit_snapshot = &audit_snapshot;
  observer_ctx.supplier = &supplier;
  observer_ctx.world = &world;
  observer_ctx.metrics = &metrics;
  observer_ctx.registry = registry;
  if (auditor != nullptr || registry != nullptr) {
    queue.set_observer(&ObserveSimulation, &observer_ctx);
  }

  world.Start();
  const double horizon =
      options.warmup_minutes + options.measurement_minutes;
  queue.RunUntil(horizon);
  if (registry != nullptr) registry->SampleAt(horizon);
  if (auditor != nullptr && auditor->total_violations() > 0) {
    return auditor->status();
  }

  SimulationReport report;
  FillReportFromMetrics(metrics, horizon, &report);
  report.max_wait_minutes = world.max_wait_seen();
  report.abandonments = world.abandonments();
  report.executed_events = queue.executed();
  return report;
}

}  // namespace vod
