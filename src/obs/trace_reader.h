// Readers and summarizers for event-log files (vodctl inspect).
//
// Parses the JSONL trace stream back into TraceEvent records (strict about
// the fields the checked-in schema requires) and derives the two views
// inspect renders: per-category summaries and the degradation-level
// timeline.

#ifndef VOD_OBS_TRACE_READER_H_
#define VOD_OBS_TRACE_READER_H_

#include <cstdint>
#include <istream>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/event_log.h"

namespace vod {

/// Reads a JSONL trace file. NotFound when it cannot be opened;
/// InvalidArgument with a line diagnostic on any malformed content.
Result<std::vector<TraceEvent>> ReadTraceFile(const std::string& path);

/// One JSONL object per line; blank lines are rejected (the sinks never
/// write them, so one signals truncation or concatenation damage), as are
/// non-finite numbers, integer fields out of their type's range, unknown
/// categories and unknown subtype names.
Result<std::vector<TraceEvent>> ReadJsonlTrace(std::istream& in);

/// Per-category aggregate over a trace.
struct CategorySummary {
  EventCategory category = EventCategory::kTick;
  int64_t count = 0;
  double first_t = 0.0;
  double last_t = 0.0;
  double value_sum = 0.0;
  double value_min = 0.0;
  double value_max = 0.0;
};

/// Summaries of the categories present, in category order.
std::vector<CategorySummary> SummarizeTrace(
    const std::vector<TraceEvent>& events);

/// One dwell interval at a degradation rung, reconstructed from the
/// kDegradation events (single-server ladder) and/or the kBarrier events a
/// sharded run emits (the windowed ladder announces its rung once per
/// barrier; a barrier whose decided rung differs from the rung of the
/// window just ended is a transition). `end` of the last interval is the
/// trace's final event time (the level was still live).
struct DegradationInterval {
  double start = 0.0;
  double end = 0.0;
  int level = 0;           ///< rung entered (DegradationLevel value)
  int from_level = 0;      ///< rung left
  int64_t capacity = 0;    ///< reserve capacity when the rung was entered
};

/// Degradation timeline. Empty when the trace has no kDegradation (or
/// rung-changing kBarrier) events.
std::vector<DegradationInterval> DegradationTimeline(
    const std::vector<TraceEvent>& events);

/// One control-plane decision, reconstructed from the kController events.
/// Fine-grained migration steps (reclaim/grant) and per-arrival sheds are
/// summarized into the counters of the preceding decision row rather than
/// rendered individually, so the timeline stays readable on long runs.
struct ControllerDecision {
  double time = 0.0;
  /// ControllerEvent subtype of the decision row: alarm, replan, commit,
  /// rollback, or blocked (migration-step and shed events fold into
  /// counters).
  int subtype = 0;
  int32_t movie = -1;       ///< movie for alarms, -1 for plan-wide rows
  int64_t epoch = -1;       ///< plan epoch (id field), -1 on alarms
  double value = 0.0;       ///< subtype payload (estimated rate, step count …)
  int64_t reclaims = 0;     ///< reclaim steps applied since the previous row
  int64_t grants = 0;       ///< grant steps applied since the previous row
  int64_t sheds = 0;        ///< arrivals shed since the previous row
  int64_t class_changes = 0;  ///< priority-class assignments since then
};

/// Controller decision timeline. Empty when the trace has no kController
/// events. Step/shed/class events that precede the first decision row are
/// attributed to a synthetic leading row stamped at the first such event.
std::vector<ControllerDecision> ControllerTimeline(
    const std::vector<TraceEvent>& events);

/// One barrier window's shard-imbalance view, reconstructed from the kShard
/// records of a sharded trace. Work is measured in executed events — the
/// deterministic shard-work measure the lanes carry; wall-clock work/wait
/// breakdowns live in the profiler export (--profile_out), not the trace.
struct ShardWindowSummary {
  double t_end = 0.0;        ///< barrier time (window_close stamp)
  int shards = 0;            ///< shards reporting in this window
  int64_t total_events = 0;  ///< Σ executed-event deltas
  int64_t max_events = 0;    ///< busiest shard's delta
  int64_t min_events = 0;    ///< laziest shard's delta
  int critical_shard = 0;    ///< argmax delta (lowest id on ties)
};

/// Per-window imbalance timeline, in trace order. Empty when the trace has
/// no kShard events (non-sharded runs, or pre-lane traces).
std::vector<ShardWindowSummary> ShardImbalanceTimeline(
    const std::vector<TraceEvent>& events);

}  // namespace vod

#endif  // VOD_OBS_TRACE_READER_H_
