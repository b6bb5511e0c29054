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
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.h"
#include "common/status.h"
#include "obs/event_log.h"

namespace vod {

/// \brief Field reader for one line of line-oriented JSON, the format of
/// trace JSONL and of postmortem bundles: one object per line, each key
/// found by its first `"key":`. Every error is an InvalidArgument that
/// names `source`, the line number and the field. `line` must outlive the
/// reader.
class JsonLineFields {
 public:
  JsonLineFields(const char* source, size_t line_no, const std::string& line)
      : source_(source), line_no_(line_no), line_(line) {}

  /// Position just past `"key":`, or std::string::npos.
  size_t Find(const char* key) const;
  /// "<source> line <n>: <why>".
  Status Error(const std::string& why) const;
  Status String(const char* key, std::string* out) const;

  /// Reads the text from just past `"key":` to the next ',', '}' or ']'
  /// with `parse`, one of common/parse.h's number readers.
  template <typename T>
  Status Read(const char* key, Result<T> (*parse)(std::string_view),
              T* out) const {
    const size_t pos = Find(key);
    if (pos == std::string::npos) return FieldError(key, "is missing");
    const Result<T> v = parse(std::string_view(line_).substr(
        pos, line_.find_first_of(",}]", pos) - pos));
    if (!v.ok()) return FieldError(key, v.status().message());
    *out = *v;
    return Status::OK();
  }
  /// A base-10 integer in Int's range.
  template <typename Int>
  Status Integer(const char* key, Int* out) const {
    static_assert(std::numeric_limits<Int>::max() <= INT64_MAX,
                  "read uint64 fields with Read(key, ParseUint64, out)");
    const int64_t lo = std::numeric_limits<Int>::min();
    const int64_t hi = std::numeric_limits<Int>::max();
    int64_t v = 0;
    VOD_RETURN_IF_ERROR(Read(key, ParseInt64, &v));
    if (v < lo || v > hi) {
      return FieldError(key, "must be an integer in [" + std::to_string(lo) +
                                 ", " + std::to_string(hi) + "], got " +
                                 std::to_string(v));
    }
    *out = static_cast<Int>(v);
    return Status::OK();
  }

 private:
  Status FieldError(const char* key, const std::string& why) const;

  const char* source_;
  size_t line_no_;
  const std::string& line_;
};

/// Reads a JSONL trace file. NotFound when it cannot be opened;
/// InvalidArgument with a line diagnostic on any malformed content.
Result<std::vector<TraceEvent>> ReadTraceFile(const std::string& path);

/// One JSONL object per line; blank lines are rejected (the sinks never
/// write them, so one signals truncation or concatenation damage), as are
/// numbers common/parse.h refuses (non-finite, hexadecimal, trailing text,
/// an integer field in exponent form or out of its type's range), unknown
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
/// Fine-grained migration steps (reclaim/grant) are summarized into the
/// counters of the preceding decision row rather than rendered
/// individually, so the timeline stays readable on long runs.
struct ControllerDecision {
  double time = 0.0;
  /// ControllerEvent subtype of the decision row: alarm, replan, commit,
  /// rollback, or blocked (migration-step events fold into counters).
  int subtype = 0;
  int32_t movie = -1;       ///< movie for alarms, -1 for plan-wide rows
  int64_t epoch = -1;       ///< plan epoch (id field), -1 on alarms
  double value = 0.0;       ///< subtype payload (estimated rate, step count …)
  int64_t reclaims = 0;     ///< reclaim steps applied since the previous row
  int64_t grants = 0;       ///< grant steps applied since the previous row
};

/// Controller decision timeline. Empty when the trace has no kController
/// decision or step events. Step events that precede the first decision row
/// are attributed to a synthetic leading row stamped at the first such
/// event. The retired shed and class records are ignored.
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
