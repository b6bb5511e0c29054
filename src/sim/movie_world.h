// Per-movie simulation engine.
//
// MovieWorld owns one movie's restart schedule, viewer population, and VCR
// behavior, and runs against a shared EventQueue and StreamSupplier so that
// several movies can be simulated together (the multi-movie server). The
// single-movie RunSimulation() is a one-movie server run whose reserve
// never refuses.
//
// The viewer population is held in a structure-of-arrays slab (parallel
// per-field columns indexed by the slot carried in event payloads), and its
// handlers register with the queue as raw function-pointer trampolines.
//
// Time convention: the simulation clock is in movie-minutes of normal
// playback, i.e. R_PB must be 1 (RunSimulation / ServerSimulation validate
// this); FF/RW rates are multiples of it, as in the paper.

#ifndef VOD_SIM_MOVIE_WORLD_H_
#define VOD_SIM_MOVIE_WORLD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/partition_layout.h"
#include "core/piggyback.h"
#include "core/types.h"
#include "obs/event_log.h"
#include "sim/arrival_process.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/partition_schedule.h"
#include "sim/stream_supplier.h"
#include "sim/vcr_behavior.h"

namespace vod {

/// Static configuration of one movie's world.
struct MovieWorldConfig {
  /// Used when `arrivals` is null: homogeneous Poisson with this mean gap.
  double mean_interarrival_minutes = 2.0;
  /// Optional non-homogeneous arrival process; overrides the mean gap.
  ArrivalProcessPtr arrivals;
  VcrBehavior behavior;
  /// Phase-2 merge policy for miss-viewers.
  PiggybackOptions piggyback;
  /// Optional viewer patience: wall-clock session lifetime from playback
  /// start; the viewer abandons when it expires (during a playback segment;
  /// an in-progress VCR operation finishes first). Null = watch to the end.
  DistributionPtr patience;
  /// Optional structured event bus (obs/event_log.h); must outlive the
  /// world. Telemetry only: emission never touches the viewer RNG streams
  /// and nothing in a report path reads it back. Every VCR request, blocked
  /// ones included, is a kVcrBegin record (time, op, duration).
  EventLog* event_log = nullptr;
  /// Movie index stamped onto emitted events (-1 = single-movie run).
  int32_t movie_id = -1;
  /// Appends every arrival's time to the world's arrival log (the engines
  /// set it when the controller is on; they read the log into it).
  bool log_arrivals = false;
};

/// \brief One movie's event logic over shared simulation infrastructure.
///
/// All randomness derives from the `base_rng` passed at construction, so
/// worlds are deterministic and independent across movies.
class MovieWorld {
 public:
  /// The pointers must outlive the world. `metrics` accumulates this
  /// movie's measurements; `supplier` arbitrates dedicated streams.
  MovieWorld(const PartitionLayout& layout, const PlaybackRates& rates,
             const MovieWorldConfig& config, Rng base_rng, EventQueue* queue,
             StreamSupplier* supplier, SimulationMetrics* metrics);
  ~MovieWorld();

  MovieWorld(const MovieWorld&) = delete;
  MovieWorld& operator=(const MovieWorld&) = delete;

  /// Schedules the first arrival; events then self-perpetuate until the
  /// caller stops draining the queue.
  void Start();

  /// Forcibly reclaims up to `max_count` dedicated streams from post-miss
  /// viewers (graceful degradation under capacity loss). Each victim —
  /// deterministically the lowest-id eligible viewer — releases its stream
  /// and falls back to pure-batching service: it stalls until the next
  /// partition window sweeps over its position. Viewers mid-VCR-operation,
  /// queued for a stream, or already within a window are not eligible.
  /// Returns the number of streams actually reclaimed.
  int64_t ReclaimDedicated(double t, int64_t max_count);

  const PartitionLayout& layout() const;

  /// \brief Commits a new partition layout at time t (a controller
  /// migration step). The restart schedule is re-anchored at t, so the new
  /// geometry begins a restart there; existing viewers keep their streams
  /// and positions — only future coverage queries (arrivals, resumes,
  /// stalls) see the new windows. Never preempts an active stream.
  void ApplyLayout(double t, const PartitionLayout& new_layout);

  /// Largest admission wait observed after warmup.
  double max_wait_seen() const;

  /// Viewers who walked away before the end (whole run, incl. warmup).
  int64_t abandonments() const;

  /// Dedicated streams this movie's viewers hold right now (VCR phase-1 +
  /// post-miss). The invariant auditor sums this across worlds and checks
  /// it against the supplier's in_use().
  int64_t dedicated_streams_held() const;

  /// Viewer conservation counters (whole run, incl. warmup). `entered`
  /// counts arrivals (every arrival is admitted), `exited`
  /// counts sessions torn down (completion, end-of-movie, abandonment), and
  /// `live == entered - exited` is the current population. The sharded
  /// auditor checks these per movie across barrier handoffs.
  int64_t viewers_entered() const;
  int64_t viewers_exited() const;
  int64_t viewers_live() const;

  /// Arrival times since the last ClearArrivalLog, in time order (the
  /// kernel runs a movie's arrivals in time order); empty unless
  /// MovieWorldConfig::log_arrivals.
  const std::vector<double>& arrival_log() const;
  /// Empties the arrival log, keeping its capacity.
  void ClearArrivalLog();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// Validates a (rates, config) pair for simulation (R_PB == 1, behavior and
/// piggyback options consistent).
Status ValidateMovieWorldInputs(const PlaybackRates& rates,
                                const MovieWorldConfig& config);

}  // namespace vod

#endif  // VOD_SIM_MOVIE_WORLD_H_
