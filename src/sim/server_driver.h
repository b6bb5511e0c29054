// Pieces the serial (sim/server) and sharded (sim/sharded_server) server
// drivers share: RNG stream tags, per-movie world configuration, the
// controller's movie list and audit section, the fault schedule, and report
// assembly. Internal to src/sim; the umbrella header does not include it.

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
/// admission gate, which each driver wires itself.
MovieWorldConfig ServerMovieConfig(const ServerMovieSpec& spec,
                                   const ServerOptions& options, size_t index);

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

/// The reserve gauges both drivers export, in this order.
struct ReserveGauges {
  Gauge* in_use = nullptr;
  Gauge* capacity = nullptr;
  Gauge* level = nullptr;
};

/// Applies the sampling cadence and registers the reserve gauges.
ReserveGauges RegisterReserveGauges(const ObsOptions& obs);

/// ControllerHost::PressureLevel for a ladder rung: 2 at kReclaim or worse,
/// 1 at kShedVcr, 0 otherwise.
int ControllerPressure(DegradationLevel rung);

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
