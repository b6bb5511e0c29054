// Structured event bus for simulation observability.
//
// The simulators' end-of-run aggregates say *how often* things happened;
// they cannot say *when*. The event log fills that gap: hot paths emit
// fixed-size POD records (time, category, subtype, movie/entity ids, one
// payload value) onto a bus that fans out to pluggable sinks — a bounded
// in-memory ring (crash diagnostics, auditor trace tail) or a streaming
// JSONL file (tooling, schema-validated in CI). Emission is gated at run
// time by a per-category bitmask plus the "any sinks attached?" check. With
// no sinks the cost of a site is one pointer test and one branch, which is
// what keeps BM_SimulationRun within the 2% overhead budget (DESIGN.md §9).
//
// Determinism: the bus is telemetry-only. It never touches the seeded RNG
// streams and nothing in a report path reads it back, so byte-identical
// reports at any --threads are unaffected by tracing (covered by
// determinism_threads_test).

#ifndef VOD_OBS_EVENT_LOG_H_
#define VOD_OBS_EVENT_LOG_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace vod {

/// Event taxonomy. Stable names (EventCategoryName) appear in JSONL output
/// and the checked-in trace schema; append new categories at the end.
enum class EventCategory : uint8_t {
  kAdmission = 0,    ///< viewer admitted (sub: 0 = type-1 batch, 1 = type-2)
  kRestart = 1,      ///< a batch restart started a new partition stream
  kVcrBegin = 2,     ///< VCR phase entered (sub = op id, value = duration)
  kResume = 3,       ///< VCR phase ended (sub = resume outcome, aux = op id)
  kStall = 4,        ///< missed resume stalled until a window swept by
  kQueue = 5,        ///< degraded-mode queue (sub: enqueue/grant/refuse)
  kShed = 6,         ///< VCR request shed (no stream, no queue)
  kReclaim = 7,      ///< dedicated stream forcibly reclaimed
  kFault = 8,        ///< disk fault (sub: 0 = down, 1 = up; value = capacity)
  kDegradation = 9,  ///< ladder transition (sub = to, aux = from)
  kSession = 10,     ///< viewer session ended (sub: 0 = complete, 1 = abandon)
  kCell = 11,        ///< experiment-grid cell finished (id = cell index)
  kTick = 12,        ///< executed event-loop step (auditor trace tail)
  kController = 13,  ///< control-plane action (sub: ControllerEvent)
  kBarrier = 14,     ///< sharded window barrier (sub = rung decided for the
                     ///< next window, aux = rung during the window just
                     ///< ended, id = window index, value = reserve capacity)
  kShard = 15,       ///< per-shard lane record (sub: ShardEvent). Payloads
                     ///< are deterministic by contract — executed-event
                     ///< deltas, movie counts, quotas, never wall clock —
                     ///< so the merged trace is byte-stable for a fixed
                     ///< shard count (DESIGN.md §14).
};

inline constexpr int kNumEventCategories = 16;

/// Subtype ids for EventCategory::kController records (ctrl/ emits these).
enum class ControllerEvent : uint8_t {
  kAlarm = 0,     ///< drift alarm latched (movie, value = rate estimate)
  kReplan = 1,    ///< plan solved (id = epoch, value = objective)
  kReclaim = 2,   ///< migration reclaim step applied (value = streams freed)
  kGrant = 3,     ///< migration grant step applied (value = streams granted)
  kCommit = 4,    ///< migration completed, plan committed (id = epoch)
  kRollback = 5,  ///< migration rolled back (id = epoch)
  kBlocked = 6,   ///< step blocked, backing off (value = retry count)
  kShed = 7,      ///< retired: never emitted (nothing refuses an arrival);
                  ///< the name still parses so older traces read
  kClass = 8,     ///< retired: never emitted, as kShed
};

/// Subtype ids for EventCategory::kShard records (the sharded engine's
/// telemetry lanes, sim/shard.cc and sim/sharded_server.cc emit these).
enum class ShardEvent : uint8_t {
  kWindowOpen = 0,   ///< shard opened a window (id = shard, value = movies)
  kWindowClose = 1,  ///< shard closed a window (id = shard, value =
                     ///< executed-event delta for the window)
  kPressure = 2,     ///< retired: never emitted; the name still parses so
                     ///< traces from builds with barrier mailboxes read
  kQuotaApply = 3,   ///< window-open reclaim quota applied (movie, id =
                     ///< quota, value = streams actually reclaimed)
};

/// Stable lower-case name ("admission", "resume", ...).
const char* EventCategoryName(EventCategory category);

/// Stable subtype name within a category ("type2", "miss", "down", ...);
/// "-" when the category has no named subtypes or `subtype` is out of range.
const char* EventSubtypeName(EventCategory category, uint8_t subtype);

/// Inverse of EventCategoryName; InvalidArgument on unknown names.
Result<EventCategory> ParseEventCategory(const std::string& name);

/// Category -> bitmask position.
constexpr uint32_t CategoryBit(EventCategory category) {
  return 1u << static_cast<uint32_t>(category);
}

inline constexpr uint32_t kAllEventCategories =
    (1u << kNumEventCategories) - 1u;

/// Builds a mask from a comma-separated list of category names; "all" (or
/// an empty string) selects every category.
Result<uint32_t> ParseCategoryMask(const std::string& spec);

/// \brief One structured trace record. POD and memcpy-safe; the ring stores it
/// as is and JSONL carries it field for field.
struct TraceEvent {
  double time = 0.0;   ///< simulated minutes
  uint64_t seq = 0;    ///< emission order, assigned by the bus
  int64_t id = -1;     ///< viewer/stream/cell id; -1 = not applicable
  double value = 0.0;  ///< payload (wait, duration, capacity, ...)
  int32_t movie = -1;  ///< movie index; -1 = server-wide
  EventCategory category = EventCategory::kTick;
  uint8_t subtype = 0;
  uint8_t aux = 0;  ///< second discriminant (op id, from-level, ...)
  uint8_t pad = 0;
};
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent must stay POD (the ring copies it by value)");

/// Formats one event as a single JSONL object (no trailing newline).
std::string TraceEventToJson(const TraceEvent& event);

/// Appends `v` with 17 significant digits, so it reads back exactly.
void AppendJsonDouble(std::string* out, double v);

/// \brief Sink interface. Append must tolerate being called from the bus at
/// event-loop rate; thread safety is per-implementation (documented below).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void Append(const TraceEvent& event) = 0;
  /// Flushes buffered records to durable storage where that applies.
  virtual Status Flush() { return Status::OK(); }
};

/// \brief Bounded in-memory ring keeping the most recent `capacity` events.
///
/// Not thread-safe: owned by a single run's event loop (auditor tail) or
/// read after the run completes. Snapshot() returns oldest-first.
class EventRing final : public EventSink {
 public:
  explicit EventRing(size_t capacity);

  void Append(const TraceEvent& event) override;

  size_t capacity() const { return capacity_; }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  /// Total appended over the ring's lifetime (>= size once wrapped).
  uint64_t total_appended() const { return total_appended_; }

  /// The retained events, oldest first.
  std::vector<TraceEvent> Snapshot() const;

  void Clear();

 private:
  size_t capacity_;
  std::vector<TraceEvent> events_;
  size_t next_ = 0;  ///< overwrite position once full
  uint64_t total_appended_ = 0;
};

/// \brief Unbounded buffer sink backing a per-shard telemetry lane: the
/// shard's events accumulate here during a window and the coordinator
/// Take()s them at the barrier for the deterministic cross-shard merge.
///
/// Not thread-safe by itself; the lane protocol guarantees single-owner
/// access (the shard's worker thread during the window, the coordinator
/// between windows, with the barrier join ordering the hand-off).
class VectorSink final : public EventSink {
 public:
  void Append(const TraceEvent& event) override { events_.push_back(event); }

  size_t size() const { return events_.size(); }

  /// The buffered events, for an owner that reorders them in place (the
  /// shard lane sorts each window's records by time).
  std::vector<TraceEvent>& events() { return events_; }

  /// Drains the buffer, returning the events in buffer order.
  std::vector<TraceEvent> Take() {
    std::vector<TraceEvent> out;
    out.swap(events_);
    return out;
  }

 private:
  std::vector<TraceEvent> events_;
};

/// \brief Streaming JSONL sink (one object per line).
///
/// Thread-safe: Append serializes under an internal mutex so one sink can be
/// shared by every cell of a threaded sweep. Line order across threads is
/// then nondeterministic; per-record `seq` preserves global emission order.
class JsonlSink final : public EventSink {
 public:
  /// Borrows `out` (caller keeps it alive and owns flushing on destruction).
  explicit JsonlSink(std::ostream* out) : out_(out) {}

  /// Opens `path` for writing (truncates).
  static Result<std::unique_ptr<JsonlSink>> Open(const std::string& path);

  void Append(const TraceEvent& event) override;
  Status Flush() override;

  uint64_t lines_written() const { return lines_written_; }

 private:
  JsonlSink(std::unique_ptr<std::ofstream> owned, std::string path);

  std::mutex mu_;
  std::unique_ptr<std::ofstream> owned_;  ///< null when borrowing
  std::ostream* out_;
  std::string path_;
  uint64_t lines_written_ = 0;
};

/// \brief The event bus: category filter + sequence numbering + sink fan-out.
///
/// Emit() is safe to call from multiple threads when every attached sink is
/// (EventRing is not; JsonlSink is). Sinks are borrowed.
class EventLog {
 public:
  void AddSink(EventSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }

  /// Detaches a sink added with AddSink (no-op when absent). Used by runs
  /// that lend the bus a sink that dies with the run (the auditor's ring).
  void RemoveSink(EventSink* sink) {
    for (size_t i = 0; i < sinks_.size(); ++i) {
      if (sinks_[i] == sink) {
        sinks_.erase(sinks_.begin() + static_cast<ptrdiff_t>(i));
        return;
      }
    }
  }

  /// Runtime category filter; defaults to everything.
  void set_mask(uint32_t mask) { mask_ = mask; }
  uint32_t mask() const { return mask_; }

  bool has_sinks() const { return !sinks_.empty(); }

  /// True when an event of `category` would reach at least one sink. Call
  /// before building a TraceEvent so disabled sites cost one branch.
  bool ShouldEmit(EventCategory category) const {
    return !sinks_.empty() && (mask_ & CategoryBit(category)) != 0;
  }

  /// Stamps `event.seq` and fans out to every sink. No-op when filtered.
  void Emit(TraceEvent event) {
    if (!ShouldEmit(event.category)) return;
    event.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    for (EventSink* sink : sinks_) sink->Append(event);
  }

  /// Convenience emission used by the simulator call sites.
  void Emit(double time, EventCategory category, uint8_t subtype,
            int32_t movie, int64_t id, double value, uint8_t aux = 0) {
    TraceEvent event;
    event.time = time;
    event.category = category;
    event.subtype = subtype;
    event.aux = aux;
    event.movie = movie;
    event.id = id;
    event.value = value;
    Emit(event);
  }

  /// Events emitted (past the filter) over the bus's lifetime.
  uint64_t emitted() const { return seq_.load(std::memory_order_relaxed); }

  Status FlushSinks() {
    for (EventSink* sink : sinks_) {
      VOD_RETURN_IF_ERROR(sink->Flush());
    }
    return Status::OK();
  }

 private:
  std::vector<EventSink*> sinks_;
  uint32_t mask_ = kAllEventCategories;
  std::atomic<uint64_t> seq_{0};
};

/// Null-safe helper: true when `log` exists and would emit `category`.
inline bool ObsEnabled(const EventLog* log, EventCategory category) {
  return log != nullptr && log->ShouldEmit(category);
}

/// \brief Lends `sink` to `log` for the current scope; detaches on
/// destruction. Either pointer may be null (the guard is then free).
class ScopedEventSink {
 public:
  ScopedEventSink(EventLog* log, EventSink* sink)
      : log_(sink != nullptr ? log : nullptr), sink_(sink) {
    if (log_ != nullptr) log_->AddSink(sink_);
  }
  ScopedEventSink(const ScopedEventSink&) = delete;
  ScopedEventSink& operator=(const ScopedEventSink&) = delete;
  ~ScopedEventSink() {
    if (log_ != nullptr) log_->RemoveSink(sink_);
  }

 private:
  EventLog* log_;
  EventSink* sink_;
};

}  // namespace vod

#endif  // VOD_OBS_EVENT_LOG_H_
