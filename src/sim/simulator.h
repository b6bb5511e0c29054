// Discrete-event simulation of one popular movie under batching + static
// partitioned buffering with interactive viewers (paper §4).
//
// Viewers arrive by a Poisson process. An arrival inside an open enrollment
// window joins that partition immediately (type 2); otherwise the viewer
// queues for the next restart (type 1, waiting at most w = (l − B)/n).
// Playing viewers issue FF/RW/PAU operations; each resume is classified as a
// hit (resume position inside some partition's buffer — the dedicated VCR
// stream is released) or a miss (the viewer keeps a dedicated stream until a
// later hit or the end of the movie). The measured hit fraction is the
// quantity the analytic model predicts.

#ifndef VOD_SIM_SIMULATOR_H_
#define VOD_SIM_SIMULATOR_H_

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "core/partition_layout.h"
#include "core/piggyback.h"
#include "core/types.h"
#include "obs/observability.h"
#include "sim/arrival_process.h"
#include "sim/audit.h"
#include "sim/metrics.h"
#include "sim/vcr_behavior.h"

namespace vod {

/// Knobs of a single-movie simulation run.
struct SimulationOptions {
  /// Mean viewer inter-arrival time 1/λ in minutes (paper Fig. 7 uses 2).
  /// Ignored when `arrivals` is set.
  double mean_interarrival_minutes = 2.0;
  /// Optional non-homogeneous arrival process (see sim/arrival_process.h).
  ArrivalProcessPtr arrivals;
  /// Viewer interactivity and operation mix.
  VcrBehavior behavior;
  /// Transient discarded before measurement starts, in minutes.
  double warmup_minutes = 1000.0;
  /// Measured span after warmup, in minutes.
  double measurement_minutes = 50000.0;
  /// Base seed; every stochastic entity derives a child stream from it.
  uint64_t seed = 42;
  /// Phase-2 merge policy for miss-viewers (off by default, as in the
  /// paper's evaluation).
  PiggybackOptions piggyback;
  /// Optional viewer patience (session lifetime from playback start);
  /// null = everyone watches to the end.
  DistributionPtr patience;
  /// Runtime invariant auditing (sim/audit.h). When enabled, a violated
  /// conservation law turns the run into an error Status carrying an
  /// event-trace tail — it never aborts.
  AuditOptions audit;
  /// Observability wiring (obs/observability.h): structured event tracing
  /// (the kVcrBegin records are the VCR log sim/trace.h fits from) and
  /// cadenced metrics sampling. Telemetry-only — cannot change a report
  /// byte.
  ObsOptions obs;
};

/// Aggregated outcome of a run.
struct SimulationReport {
  // Hit probability over all measured resumes, and the per-operation splits.
  double hit_probability = 0.0;
  double hit_probability_low = 0.0;   ///< 95% Wilson bound
  double hit_probability_high = 0.0;  ///< 95% Wilson bound
  double hit_probability_by_op[3] = {0.0, 0.0, 0.0};
  int64_t resumes_by_op[3] = {0, 0, 0};
  /// Restricted to resumes issued by viewers sharing a partition (the
  /// analytic model's population), with its own Wilson bounds.
  double hit_probability_in_partition = 0.0;
  double hit_probability_in_partition_low = 0.0;
  double hit_probability_in_partition_high = 0.0;
  /// Batch-means 95% half-width for the in-partition estimate (0 when too
  /// few batches completed). Wider than the Wilson interval when outcomes
  /// are autocorrelated — the honest uncertainty for model validation.
  double hit_probability_in_partition_bm_halfwidth = 0.0;
  int64_t in_partition_resumes = 0;

  int64_t total_resumes = 0;
  int64_t hits_within = 0;
  int64_t hits_jump = 0;
  int64_t end_releases = 0;
  int64_t misses = 0;

  int64_t admissions = 0;
  int64_t type2_admissions = 0;
  int64_t completions = 0;
  double mean_wait_minutes = 0.0;
  double max_wait_minutes = 0.0;
  /// Streaming quantiles of the admission wait (P² estimates).
  double p50_wait_minutes = 0.0;
  double p99_wait_minutes = 0.0;

  double mean_dedicated_streams = 0.0;
  double peak_dedicated_streams = 0.0;
  double mean_concurrent_viewers = 0.0;

  /// Piggyback merging (when enabled): completed merges and the mean drift
  /// time from miss to merge.
  int64_t piggyback_merges = 0;
  double mean_merge_minutes = 0.0;
  /// Blocked FF/RW requests and stalled resumes (always 0 in a single-movie
  /// run, whose reserve is unlimited; populated by the server's worlds).
  int64_t blocked_vcr_requests = 0;
  int64_t stalled_resumes = 0;
  /// Degraded-mode accounting (0 unless the server's degradation policy is
  /// on): FF/RW requests that entered the wait queue, and dedicated streams
  /// forcibly reclaimed from this movie's viewers.
  int64_t queued_vcr_requests = 0;
  int64_t forced_reclaims = 0;

  /// Viewers who abandoned mid-session (entire run, incl. warmup).
  int64_t abandonments = 0;

  double simulated_minutes = 0.0;

  /// Kernel events executed over the whole run (incl. warmup). Diagnostics
  /// only — excluded from ToString so report text stays stable across
  /// kernel-internal changes; the perf benches derive events/sec from it.
  uint64_t executed_events = 0;

  std::string ToString() const;
};

/// \brief Validates a simulation's rates and options before any simulation
/// state is built: the viewer behavior, piggyback and arrival knobs, the
/// horizon, the audit settings and the metric cadence. Each rejection is a
/// one-line InvalidArgument. RunSimulation calls this itself; callers
/// assembling options from user input (vodctl) can call it earlier, before
/// they open any output file.
Status ValidateSimulationInputs(const PlaybackRates& rates,
                                const SimulationOptions& options);

/// \brief Runs one simulation to completion: a one-movie server run
/// (sim/server_driver.h) over a reserve that never refuses.
///
/// Deterministic given (layout, rates, options): all randomness derives from
/// Rng(options.seed).
Result<SimulationReport> RunSimulation(const PartitionLayout& layout,
                                       const PlaybackRates& rates,
                                       const SimulationOptions& options);

/// Fills the metrics-derived fields of a report (the server drivers'
/// per-movie blocks and the sharded aggregate; max_wait_minutes is
/// world-side and set by the caller).
void FillReportFromMetrics(const SimulationMetrics& metrics, double horizon,
                           SimulationReport* report);

}  // namespace vod

#endif  // VOD_SIM_SIMULATOR_H_
