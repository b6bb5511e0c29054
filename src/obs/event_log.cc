#include "obs/event_log.h"

#include <cstdio>
#include <utility>

namespace vod {

namespace {

constexpr const char* kCategoryNames[kNumEventCategories] = {
    "admission", "restart", "vcr_begin", "resume",      "stall",
    "queue",     "shed",    "reclaim",   "fault",       "degradation",
    "session",   "cell",    "tick",      "controller",  "barrier",
    "shard",
};

// Subtype vocabularies, indexed to match the emitting code:
//   admission  -> viewer type; vcr_begin -> VcrOp (core/types.h order);
//   resume     -> ResumeOutcome (sim/metrics.h order);
//   queue      -> lifecycle; fault -> direction;
//   degradation-> DegradationLevel rung (sim/degradation.h order);
//   session    -> how the viewer left.
constexpr const char* kAdmissionSub[] = {"type1", "type2"};
constexpr const char* kVcrSub[] = {"ff", "rw", "pau"};
constexpr const char* kResumeSub[] = {"hit_within", "hit_jump", "end", "miss"};
constexpr const char* kQueueSub[] = {"enqueue", "grant", "refuse"};
constexpr const char* kFaultSub[] = {"down", "up"};
constexpr const char* kDegradationSub[] = {"normal", "queueing", "shed_vcr",
                                           "reclaim", "batching_only"};
constexpr const char* kSessionSub[] = {"complete", "abandon"};
constexpr const char* kCellSub[] = {"done"};
// ControllerEvent order (obs/event_log.h).
constexpr const char* kControllerSub[] = {"alarm",    "replan",  "reclaim",
                                          "grant",    "commit",  "rollback",
                                          "blocked",  "shed",    "class"};
// ShardEvent order (obs/event_log.h).
constexpr const char* kShardSub[] = {"window_open", "window_close", "pressure",
                                     "quota_apply"};

template <size_t N>
const char* Lookup(const char* const (&table)[N], uint8_t i) {
  return i < N ? table[i] : "-";
}

void AppendJsonDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

}  // namespace

const char* EventCategoryName(EventCategory category) {
  const auto i = static_cast<size_t>(category);
  return i < kNumEventCategories ? kCategoryNames[i] : "unknown";
}

const char* EventSubtypeName(EventCategory category, uint8_t subtype) {
  switch (category) {
    case EventCategory::kAdmission:
      return Lookup(kAdmissionSub, subtype);
    case EventCategory::kVcrBegin:
      return Lookup(kVcrSub, subtype);
    case EventCategory::kResume:
      return Lookup(kResumeSub, subtype);
    case EventCategory::kQueue:
      return Lookup(kQueueSub, subtype);
    case EventCategory::kFault:
      return Lookup(kFaultSub, subtype);
    case EventCategory::kDegradation:
      return Lookup(kDegradationSub, subtype);
    case EventCategory::kSession:
      return Lookup(kSessionSub, subtype);
    case EventCategory::kCell:
      return Lookup(kCellSub, subtype);
    case EventCategory::kController:
      return Lookup(kControllerSub, subtype);
    case EventCategory::kBarrier:
      // Barrier records carry ladder rungs in sub/aux.
      return Lookup(kDegradationSub, subtype);
    case EventCategory::kShard:
      return Lookup(kShardSub, subtype);
    default:
      return "-";
  }
}

Result<EventCategory> ParseEventCategory(const std::string& name) {
  for (int i = 0; i < kNumEventCategories; ++i) {
    if (name == kCategoryNames[i]) return static_cast<EventCategory>(i);
  }
  return Status::InvalidArgument("unknown event category '" + name + "'");
}

Result<uint32_t> ParseCategoryMask(const std::string& spec) {
  if (spec.empty() || spec == "all") return kAllEventCategories;
  uint32_t mask = 0;
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t comma = spec.find(',', pos);
    const size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string token = spec.substr(pos, end - pos);
    if (!token.empty()) {
      VOD_ASSIGN_OR_RETURN(const EventCategory cat,
                           ParseEventCategory(token));
      mask |= CategoryBit(cat);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (mask == 0) {
    return Status::InvalidArgument("category list '" + spec +
                                   "' selects no categories");
  }
  return mask;
}

std::string TraceEventToJson(const TraceEvent& event) {
  std::string out;
  out.reserve(160);
  out += "{\"t\":";
  AppendJsonDouble(&out, event.time);
  out += ",\"seq\":";
  out += std::to_string(event.seq);
  out += ",\"cat\":\"";
  out += EventCategoryName(event.category);
  out += "\",\"sub\":\"";
  out += EventSubtypeName(event.category, event.subtype);
  out += "\",\"aux\":";
  out += std::to_string(static_cast<int>(event.aux));
  out += ",\"movie\":";
  out += std::to_string(event.movie);
  out += ",\"id\":";
  out += std::to_string(event.id);
  out += ",\"value\":";
  AppendJsonDouble(&out, event.value);
  out += "}";
  return out;
}

// ---- EventRing --------------------------------------------------------------

// The ring grows on append instead of reserving `capacity` up front: the
// capacity is a caller's bound (a flag, for the flight recorder), not a size
// to allocate before any event exists.
EventRing::EventRing(size_t capacity) : capacity_(capacity) {}

void EventRing::Append(const TraceEvent& event) {
  ++total_appended_;
  if (capacity_ == 0) return;
  if (events_.size() < capacity_) {
    events_.push_back(event);
    return;
  }
  events_[next_] = event;
  next_ = (next_ + 1) % capacity_;
}

std::vector<TraceEvent> EventRing::Snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  const size_t n = events_.size();
  // Once wrapped, the oldest retained record sits at next_.
  const size_t start = n < capacity_ ? 0 : next_;
  for (size_t i = 0; i < n; ++i) out.push_back(events_[(start + i) % n]);
  return out;
}

void EventRing::Clear() {
  events_.clear();
  next_ = 0;
  total_appended_ = 0;
}

// ---- JsonlSink --------------------------------------------------------------

JsonlSink::JsonlSink(std::unique_ptr<std::ofstream> owned, std::string path)
    : owned_(std::move(owned)), out_(owned_.get()), path_(std::move(path)) {}

Result<std::unique_ptr<JsonlSink>> JsonlSink::Open(const std::string& path) {
  auto file = std::make_unique<std::ofstream>(
      path, std::ios::out | std::ios::trunc);
  if (!file->is_open()) {
    return Status::InvalidArgument("cannot open trace file '" + path + "'");
  }
  return std::unique_ptr<JsonlSink>(new JsonlSink(std::move(file), path));
}

void JsonlSink::Append(const TraceEvent& event) {
  const std::string line = TraceEventToJson(event);
  std::lock_guard<std::mutex> lock(mu_);
  (*out_) << line << '\n';
  ++lines_written_;
}

Status JsonlSink::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  out_->flush();
  if (!out_->good()) {
    return Status::Internal("trace sink write failed" +
                            (path_.empty() ? "" : " for '" + path_ + "'"));
  }
  return Status::OK();
}

}  // namespace vod
