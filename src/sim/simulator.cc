#include "sim/simulator.h"

#include <limits>
#include <sstream>
#include <utility>

#include "sim/server_driver.h"

namespace vod {

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

namespace {

/// The one world a simulation runs. movie_id stays -1: single-movie trace
/// records carry no movie index.
MovieWorldConfig SimulationWorld(const SimulationOptions& options) {
  MovieWorldConfig config;
  config.mean_interarrival_minutes = options.mean_interarrival_minutes;
  config.arrivals = options.arrivals;
  config.behavior = options.behavior;
  config.piggyback = options.piggyback;
  config.patience = options.patience;
  return config;
}

}  // namespace

Status ValidateSimulationInputs(const PlaybackRates& rates,
                                const SimulationOptions& options) {
  VOD_RETURN_IF_ERROR(
      ValidateMovieWorldInputs(rates, SimulationWorld(options)));
  if (options.warmup_minutes < 0.0 || !(options.measurement_minutes > 0.0)) {
    return Status::InvalidArgument(
        "warmup must be >= 0 and measurement span positive");
  }
  if (options.audit.enabled) VOD_RETURN_IF_ERROR(options.audit.Validate());
  return ValidateMetricCadence(
      options.obs, options.warmup_minutes + options.measurement_minutes);
}

Result<SimulationReport> RunSimulation(const PartitionLayout& layout,
                                       const PlaybackRates& rates,
                                       const SimulationOptions& options) {
  VOD_RETURN_IF_ERROR(ValidateSimulationInputs(rates, options));
  const MovieWorldConfig config = SimulationWorld(options);

  // A one-movie server run whose reserve never refuses: the paper's engine
  // measures the dedicated streams a workload pins, with no admission
  // effects. The world's streams root at Rng(seed).
  const ServerMovieSpec movie{"movie", layout,
                              1.0 / config.mean_interarrival_minutes,
                              config.arrivals, config.behavior};
  ServerOptions server;
  server.rates = rates;
  server.dynamic_stream_reserve = std::numeric_limits<int64_t>::max();
  server.warmup_minutes = options.warmup_minutes;
  server.measurement_minutes = options.measurement_minutes;
  server.seed = options.seed;
  server.audit = options.audit;
  server.obs = options.obs;
  uint64_t executed = 0;
  VOD_ASSIGN_OR_RETURN(
      ServerReport report,
      RunServerWorlds({movie}, server, {{config, Rng(options.seed)}},
                      &executed));
  SimulationReport out = std::move(report.movies[0].report);
  out.executed_events = executed;
  return out;
}

}  // namespace vod
