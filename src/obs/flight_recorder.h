// Crash flight recorder for the sharded server.
//
// The sharded engine's failure modes — an audit law firing, a
// replay-verify digest rejecting a resumed run — are detected at a window
// barrier, long after the interesting events scrolled past. The flight
// recorder keeps a bounded postmortem context always at hand: a ring of
// the last N barrier windows' ledger summaries (rung history, credit/debt
// totals, per-shard executed-event deltas, digest chain) plus one bounded
// EventRing per shard fed by that shard's telemetry lane. On failure the
// coordinator dumps the whole context as a line-JSON bundle that
// `vodctl inspect --postmortem` renders.
//
// Cost discipline: the window ring is a handful of PODs per barrier and is
// always on; the per-shard event rings only fill while the shard lanes are
// lit (tracing enabled or a postmortem path configured), so a dark run
// pays nothing per event. Like the rest of src/obs the recorder is
// telemetry-only — nothing in a report path reads it back.

#ifndef VOD_OBS_FLIGHT_RECORDER_H_
#define VOD_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/event_log.h"

namespace vod {

/// One barrier window's ledger summary as retained by the flight recorder.
/// Everything here is deterministic run state — no wall clock.
struct FlightWindowRecord {
  int64_t window = 0;      ///< barrier index (1-based)
  double t_end = 0.0;      ///< simulated minutes at the barrier
  int64_t capacity = 0;    ///< reserve capacity after fault replay
  int rung = 0;            ///< ladder rung decided at this barrier
  uint64_t digest = 0;     ///< ledger-digest chain value after this window
  int64_t sum_held = 0;    ///< Σ per-movie reserve streams held
  int64_t sum_credit = 0;  ///< Σ per-movie credits granted for next window
  int64_t sum_debt = 0;    ///< Σ per-movie debts carried
  int64_t sum_queued = 0;  ///< Σ queued VCR requests across movies
  int64_t quota_issued = 0;  ///< reclaim quota written at the last barrier
  std::vector<int64_t> shard_events;  ///< executed-event delta per shard
};

/// \brief Bounded always-on recorder owned by the sharded coordinator.
///
/// Single-threaded by protocol: RecordWindow/Dump run on the coordinator
/// between windows; the per-shard rings are appended to only by their
/// shard's lane during the window (one writer each, and the barrier join
/// orders ring writes before any coordinator read).
class FlightRecorder {
 public:
  FlightRecorder(int shards, size_t window_capacity, size_t events_per_shard);

  /// Retains `record`, evicting the oldest window past capacity.
  void RecordWindow(FlightWindowRecord record);

  /// The bounded event ring shards attach to their telemetry lanes.
  EventRing* shard_ring(int shard) {
    return &rings_[static_cast<size_t>(shard)];
  }

  int shards() const { return static_cast<int>(rings_.size()); }
  size_t window_count() const { return windows_.size(); }
  const std::deque<FlightWindowRecord>& windows() const { return windows_; }

  /// Writes the postmortem bundle to `path` (truncates): a header line with
  /// `reason`, one line per retained window, then one line per retained
  /// event tagged with its shard. Read back with ReadPostmortem().
  Status Dump(const std::string& path, const std::string& reason) const;

 private:
  size_t window_capacity_;
  std::deque<FlightWindowRecord> windows_;
  std::vector<EventRing> rings_;
};

/// One retained event with the shard whose lane captured it.
struct PostmortemEvent {
  int shard = 0;
  TraceEvent event;
};

/// Parsed postmortem bundle (what FlightRecorder::Dump wrote).
struct PostmortemBundle {
  std::string reason;
  int shards = 0;
  std::vector<FlightWindowRecord> windows;  ///< oldest first
  std::vector<PostmortemEvent> events;      ///< shard-major, oldest first
};

/// Reads a bundle written by FlightRecorder::Dump. Every field is checked
/// before it is cast: a non-finite, fractional or out-of-type number, a
/// rung that is not a degradation rung, or fewer than one shard is an
/// InvalidArgument naming the line and the field. Fields this reader does
/// not know (such as an older build's message counts) are ignored.
Result<PostmortemBundle> ReadPostmortem(const std::string& path);

}  // namespace vod

#endif  // VOD_OBS_FLIGHT_RECORDER_H_
