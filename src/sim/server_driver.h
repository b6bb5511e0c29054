// The serial driver (RunServerWorlds, behind both RunServerSimulation and
// the single-movie RunSimulation) and the pieces it shares with the sharded
// driver (sim/sharded_server): RNG stream tags, per-movie world
// configuration, the controller's movie list, arrival feed and audit
// section, the fault schedule, and report assembly. Internal to src/sim; the
// umbrella header does not include it.

#ifndef VOD_SIM_SERVER_DRIVER_H_
#define VOD_SIM_SERVER_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/audit.h"
#include "sim/server.h"

namespace vod {

// Stream-class tags for deriving independent child RNGs from the base seed.
// A movie's stream depends only on its global index, so shard placement can
// never perturb it; the fault schedule gets its own tag so enabling fault
// injection leaves every movie world's random streams untouched.
inline constexpr uint64_t kMovieWorldStream = 3;
inline constexpr uint64_t kFaultStream = 4;

/// The world configuration of movie `index`, minus the event log and the
/// arrival log switch, which each driver wires itself.
MovieWorldConfig ServerMovieConfig(const ServerMovieSpec& spec,
                                   const ServerOptions& options, size_t index);

/// What an entry point chooses for one movie world: its configuration
/// (validated; the driver wires the event log and the arrival log switch)
/// and the root of its random streams.
struct WorldSetup {
  MovieWorldConfig config;
  Rng rng;
};

/// \brief The serial driver. Runs world i = `setups[i]` for movie i of
/// `movies`, all on one event kernel and against one reserve of
/// options.dynamic_stream_reserve streams, to the horizon. The caller has
/// validated `movies` and `options`. RunServerSimulation passes
/// ServerMovieConfig and the movie's child stream of Rng(options.seed);
/// RunSimulation passes its own configuration, Rng(seed) and an unlimited
/// reserve. `executed_events`, when not null, receives the kernel's count.
Result<ServerReport> RunServerWorlds(
    const std::vector<ServerMovieSpec>& movies, const ServerOptions& options,
    const std::vector<WorldSetup>& setups, uint64_t* executed_events);

/// The controller's view of the catalog, index-aligned with `movies`.
std::vector<ControllerMovie> ControllerMovies(
    const std::vector<ServerMovieSpec>& movies);

/// The disk failure/repair trajectory up to `horizon` (empty with faults
/// off), drawn from its own child stream of `base_rng`.
std::vector<FaultEvent> ServerFaultSchedule(const ServerOptions& options,
                                            const Rng& base_rng,
                                            double horizon);

/// Disk failures and repairs executed so far.
struct FaultCounts {
  int64_t failures = 0;
  int64_t repairs = 0;

  /// Counts `ev` and puts it on the fault trace.
  void Count(const FaultEvent& ev, EventLog* event_log);
};

/// The reserve gauges both drivers export, in this order. A gauge that
/// could only ever read one value is not registered and stays null.
struct ReserveGauges {
  Gauge* in_use = nullptr;
  Gauge* capacity = nullptr;  ///< only when faults move the capacity
  Gauge* level = nullptr;     ///< only when the ladder rung can move
};

/// Applies the sampling cadence and registers the reserve gauges.
ReserveGauges RegisterReserveGauges(const ObsOptions& obs,
                                    bool capacity_moves, bool rung_moves);

/// The most metric samples a run's cadence may ask for over its horizon,
/// the bound barrier windows have. MaybeSample appends one sample per
/// elapsed cadence step, so the series is sized by horizon / cadence.
inline constexpr int64_t kMaxMetricSamples = int64_t{1} << 20;

/// InvalidArgument, naming metrics_sample_minutes, when `obs` asks for
/// more than kMaxMetricSamples samples over `horizon_minutes`.
Status ValidateMetricCadence(const ObsOptions& obs, double horizon_minutes);

/// \brief The controller's arrival feed in both engines: each movie world's
/// arrival log (MovieWorldConfig::log_arrivals), read in place.
///
/// Observing an arrival touches only its own movie's rate estimator, and
/// each log is in time order, so reading the logs in global movie order
/// gives every estimator its arrivals in time order. Estimators are read
/// only inside Controller::OnWakeup, so each wakeup must see exactly the
/// arrivals before it: the serial pump drains the logs just before
/// OnWakeup(t), when they hold what the kernel has run; the sharded replay
/// observes the arrivals before each wakeup due by the barrier, then drains
/// the rest.
class ArrivalFeed {
 public:
  /// `worlds` is indexed by global movie index; they and `controller` must
  /// outlive the feed.
  ArrivalFeed(std::vector<MovieWorld*> worlds, Controller* controller);

  /// Observes every logged arrival before `bound` not yet observed.
  void ObserveBefore(double bound);

  /// Observes every logged arrival not yet observed, then empties the logs.
  void Drain();

 private:
  std::vector<MovieWorld*> worlds_;
  Controller* controller_;
  std::vector<size_t> next_;  ///< per world, the next entry to observe
};

/// Fills the snapshot's controller ledger and rebuilds its buffer view
/// from the live layouts (migrations move partition geometry at runtime).
void FillControllerAudit(const Controller& controller,
                         const ControllerHost& host,
                         const std::vector<ServerMovieSpec>& movies,
                         AuditSnapshot* snapshot);

/// Appends one movie's block to `report` and adds it into the totals.
void AddMovieReport(const std::string& name, const SimulationMetrics& metrics,
                    const MovieWorld& world, double horizon,
                    ServerReport* report);

/// Sets the acquisition counts and the refusal probability.
void SetAcquisitions(int64_t refused, int64_t granted, ServerReport* report);

/// Fills the queued-VCR fields, pooling `queues` in order.
void FillQueueReport(const std::vector<const VcrWaitQueue*>& queues,
                     ResilienceReport* rz);

/// Fills the ladder fields: the final rung, time in each rung, the
/// transition log and the recovery statistics.
void FillLadderReport(const LadderHistory& history,
                      DegradationLevel final_level, ResilienceReport* rz);

}  // namespace vod

#endif  // VOD_SIM_SERVER_DRIVER_H_
