// Multi-movie server simulation with a shared dynamic stream reserve.
//
// Several pre-allocated movies run in one event space; their VCR phase-1
// and post-miss streams all come from one finite reserve. When it runs dry,
// FF/RW requests are refused and missing resumes stall — quantifying the
// paper's warning that "without careful resource management, the benefits
// of these data sharing techniques can be lost": low hit probabilities pin
// streams until the end of the movie, exhaust the reserve, and degrade
// interactivity for everyone.
//
// Beyond the fault-free seed model, the server can inject disk failures
// (storage/fault_injector.h) that shrink the reserve while a disk is down,
// and walk a graceful-degradation ladder (sim/degradation.h) instead of
// falling off the hard-refusal cliff. Every refusal, queue outcome, stall,
// reclaim, and ladder transition is accounted in the report.

#ifndef VOD_SIM_SERVER_H_
#define VOD_SIM_SERVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ctrl/controller.h"
#include "sim/degradation.h"
#include "sim/movie_world.h"
#include "sim/simulator.h"
#include "storage/fault_injector.h"

namespace vod {

/// One movie hosted by the server.
struct ServerMovieSpec {
  std::string name;
  PartitionLayout layout;
  /// Nominal (forecast) rate the layout was sized for. Always required —
  /// it anchors the controller's drift baseline and Little's-law sizing —
  /// even when `arrivals` overrides the actual process.
  double arrival_rate_per_minute = 0.5;
  /// Optional non-homogeneous arrival process (flash crowds, diurnal
  /// waves); null = homogeneous Poisson at the nominal rate.
  ArrivalProcessPtr arrivals;
  VcrBehavior behavior;
};

/// Disk-failure injection knobs for the server's stream reserve.
struct ServerFaultOptions {
  bool enabled = false;
  /// Disks the reserve is striped across; each failure removes one disk's
  /// share of streams until its repair completes.
  int disks = 4;
  /// Exponential MTBF/MTTR of each disk, in minutes.
  DiskFaultProfile profile;
};

/// Server-wide simulation knobs.
struct ServerOptions {
  PlaybackRates rates;
  /// Streams in the shared dynamic reserve (beyond the per-movie batching
  /// streams, which are implicit in each layout).
  int64_t dynamic_stream_reserve = 100;
  /// Phase-2 merge policy applied to every movie.
  PiggybackOptions piggyback;
  double warmup_minutes = 1000.0;
  double measurement_minutes = 20000.0;
  uint64_t seed = 42;
  /// Disk failures feeding time-varying reserve capacity.
  ServerFaultOptions faults;
  /// Degradation ladder (queueing, shedding, forced reclaim). With
  /// faults.enabled but degradation.enabled == false the reserve still
  /// shrinks and recovers, but requests keep the seed's hard-refusal
  /// semantics.
  DegradationPolicy degradation;
  /// Runtime invariant auditing (sim/audit.h). When enabled, a violated
  /// conservation law turns the run into an error Status carrying an
  /// event-trace tail — it never aborts mid-run.
  AuditOptions audit;
  /// Observability wiring (obs/observability.h): structured event tracing
  /// (admissions, VCR phases, faults, ladder transitions, ... stamped with
  /// each movie's index) and cadenced metrics sampling. Telemetry-only —
  /// cannot change a report byte.
  ObsOptions obs;
  /// Dynamic buffer-reallocation control plane (ctrl/controller.h):
  /// per-movie rate estimation, drift-triggered re-planning, staged
  /// migration, and selective admission shedding. Under zero drift an
  /// enabled controller never acts, and the report stays byte-identical to
  /// a controller-off run.
  ControllerOptions controller;
};

/// Resilience accounting for a run with faults and/or degradation enabled.
struct ResilienceReport {
  int64_t disk_failures = 0;  ///< failure events executed before the horizon
  int64_t disk_repairs = 0;
  int64_t min_reserve_capacity = 0;  ///< lowest capacity seen
  int64_t max_oversubscription = 0;  ///< peak of in_use - capacity
  DegradationLevel final_level = DegradationLevel::kNormal;
  /// Time integrated at each ladder rung over the whole run (sums to the
  /// horizon).
  double time_in_level[kNumDegradationLevels] = {0, 0, 0, 0, 0};
  int64_t total_transitions = 0;
  /// First recorded transitions (capped; total_transitions is exact).
  std::vector<DegradationTransition> transitions;

  // Queued-VCR outcomes (measurement window): queued = grants +
  // expirations + pending_at_horizon; per-movie blocked_vcr equals
  // denied + expirations.
  int64_t vcr_queued = 0;
  int64_t vcr_queue_grants = 0;
  int64_t vcr_queue_expirations = 0;
  int64_t vcr_queue_pending = 0;  ///< still waiting when the run ended
  int64_t vcr_denied = 0;
  double mean_queued_wait_minutes = 0.0;
  double p50_queued_wait_minutes = 0.0;
  double p90_queued_wait_minutes = 0.0;
  double p99_queued_wait_minutes = 0.0;

  int64_t forced_reclaims = 0;

  /// Completed excursions out of kNormal: count and mean duration — the
  /// observed mean time-to-recover after a capacity loss.
  int64_t recovery_episodes = 0;
  double mean_recovery_minutes = 0.0;
  double max_recovery_minutes = 0.0;
};

/// Aggregated server outcome.
struct ServerReport {
  struct PerMovie {
    std::string name;
    SimulationReport report;
  };
  std::vector<PerMovie> movies;

  int64_t reserve_capacity = 0;
  double mean_reserve_in_use = 0.0;
  int64_t peak_reserve_in_use = 0;
  /// Refused acquisitions vs total attempts (refused + granted).
  int64_t refused_acquisitions = 0;
  int64_t granted_acquisitions = 0;
  /// Fraction of dedicated-stream requests the reserve could not satisfy
  /// immediately.
  double refusal_probability = 0.0;
  int64_t total_blocked_vcr = 0;
  int64_t total_stalls = 0;
  int64_t total_resumes = 0;
  int64_t total_queued_vcr = 0;
  int64_t total_forced_reclaims = 0;

  /// Populated when options.faults.enabled || options.degradation.enabled.
  bool resilience_enabled = false;
  ResilienceReport resilience;

  /// Populated when options.controller.enabled. ToString prints the block
  /// only when the controller actually acted (ControllerReport::Active()),
  /// preserving zero-drift byte-identity with controller-off runs.
  bool controller_enabled = false;
  ControllerReport controller;

  /// Full-precision deterministic serialization of every field (including
  /// the transition log); two runs with identical options must produce
  /// byte-identical strings.
  std::string ToString() const;
};

/// \brief Validates a server configuration before any simulation state is
/// built: non-empty movie list; every layout finite with l > 0, n >= 1,
/// 0 <= B <= l, w >= 0; finite positive arrival rates; non-negative
/// reserve; sane horizon, degradation, fault, and audit knobs. Each
/// rejection is a one-line InvalidArgument naming the offending movie or
/// field. RunServerSimulation calls this itself; callers assembling
/// configurations from user input (vodctl) can call it earlier for
/// diagnostics before committing to a run.
Status ValidateServerInputs(const std::vector<ServerMovieSpec>& movies,
                            const ServerOptions& options);

/// \brief Runs all movies to the common horizon. Deterministic in
/// options.seed; movie i derives an independent RNG sub-stream, and the
/// fault schedule uses its own sub-stream, so enabling faults with an
/// infinite MTBF reproduces the fault-free run exactly.
Result<ServerReport> RunServerSimulation(
    const std::vector<ServerMovieSpec>& movies, const ServerOptions& options);

}  // namespace vod

#endif  // VOD_SIM_SERVER_H_
