#include "obs/trace_reader.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>

namespace vod {

size_t JsonLineFields::Find(const char* key) const {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t pos = line_.find(needle);
  return pos == std::string::npos ? std::string::npos : pos + needle.size();
}

Status JsonLineFields::Error(const std::string& why) const {
  return Status::InvalidArgument(std::string(source_) + " line " +
                                 std::to_string(line_no_) + ": " + why);
}

Status JsonLineFields::FieldError(const char* key,
                                  const std::string& why) const {
  return Error(std::string("field \"") + key + "\" " + why);
}

Status JsonLineFields::String(const char* key, std::string* out) const {
  const size_t pos = Find(key);
  if (pos == std::string::npos) return FieldError(key, "is missing");
  if (pos >= line_.size() || line_[pos] != '"') {
    return FieldError(key, "is not a string");
  }
  std::string value;
  for (size_t i = pos + 1; i < line_.size(); ++i) {
    if (line_[i] == '\\' && i + 1 < line_.size()) {
      value.push_back(line_[++i]);
    } else if (line_[i] == '"') {
      *out = std::move(value);
      return Status::OK();
    } else {
      value.push_back(line_[i]);
    }
  }
  return FieldError(key, "is an unterminated string");
}

Result<std::vector<TraceEvent>> ReadJsonlTrace(std::istream& in) {
  std::vector<TraceEvent> events;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const JsonLineFields fields("trace", line_no, line);
    if (line.empty()) {
      return fields.Error("blank line (truncated or damaged trace)");
    }
    TraceEvent event;
    std::string cat, sub;
    VOD_RETURN_IF_ERROR(fields.Read("t", ParseDouble, &event.time));
    VOD_RETURN_IF_ERROR(fields.Read("seq", ParseUint64, &event.seq));
    VOD_RETURN_IF_ERROR(fields.String("cat", &cat));
    VOD_RETURN_IF_ERROR(fields.String("sub", &sub));
    VOD_RETURN_IF_ERROR(fields.Integer("aux", &event.aux));
    VOD_RETURN_IF_ERROR(fields.Integer("movie", &event.movie));
    VOD_RETURN_IF_ERROR(fields.Integer("id", &event.id));
    VOD_RETURN_IF_ERROR(fields.Read("value", ParseDouble, &event.value));
    const auto parsed = ParseEventCategory(cat);
    if (!parsed.ok()) return fields.Error(parsed.status().message());
    event.category = parsed.value();
    // Recover the subtype id from its name, so a JSONL round trip is exact.
    // "-" is written for subtypes without a name; any other unknown name
    // (including a wrong case) is damage, not subtype 0.
    event.subtype = 0;
    if (sub != "-") {
      bool known = false;
      for (uint8_t s = 0; s < 255 && !known; ++s) {
        const char* name = EventSubtypeName(event.category, s);
        if (std::strcmp(name, "-") == 0) break;
        if (sub == name) {
          event.subtype = s;
          known = true;
        }
      }
      if (!known) {
        return fields.Error("unknown subtype \"" + sub +
                            "\" for category \"" + cat + "\"");
      }
    }
    events.push_back(event);
  }
  return events;
}

Result<std::vector<TraceEvent>> ReadTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open trace file '" + path + "'");
  }
  return ReadJsonlTrace(in);
}

std::vector<CategorySummary> SummarizeTrace(
    const std::vector<TraceEvent>& events) {
  std::array<CategorySummary, kNumEventCategories> acc{};
  std::array<bool, kNumEventCategories> seen{};
  for (const TraceEvent& event : events) {
    const auto i = static_cast<size_t>(event.category);
    if (i >= kNumEventCategories) continue;
    CategorySummary& s = acc[i];
    if (!seen[i]) {
      seen[i] = true;
      s.category = event.category;
      s.first_t = event.time;
      s.last_t = event.time;
      s.value_min = event.value;
      s.value_max = event.value;
    }
    ++s.count;
    s.first_t = std::min(s.first_t, event.time);
    s.last_t = std::max(s.last_t, event.time);
    s.value_sum += event.value;
    s.value_min = std::min(s.value_min, event.value);
    s.value_max = std::max(s.value_max, event.value);
  }
  std::vector<CategorySummary> out;
  for (size_t i = 0; i < acc.size(); ++i) {
    if (seen[i]) out.push_back(acc[i]);
  }
  return out;
}

std::vector<DegradationInterval> DegradationTimeline(
    const std::vector<TraceEvent>& events) {
  std::vector<DegradationInterval> out;
  double last_t = 0.0;
  for (const TraceEvent& event : events) {
    last_t = std::max(last_t, event.time);
    if (event.category != EventCategory::kBarrier &&
        event.category != EventCategory::kDegradation) {
      continue;
    }
    // A sharded run announces its rung twice per transition — a
    // kDegradation event and the same-window kBarrier — and once per calm
    // window. Any announcement of the rung the open interval is already at
    // merely extends its dwell; only a different rung opens a new interval.
    if (!out.empty() && out.back().level == event.subtype) {
      out.back().end = event.time;
      continue;
    }
    if (event.category == EventCategory::kBarrier &&
        event.subtype == event.aux && out.empty()) {
      continue;  // calm barrier before any transition: still at the base rung
    }
    if (!out.empty()) out.back().end = event.time;
    DegradationInterval interval;
    interval.start = event.time;
    interval.end = event.time;
    interval.level = event.subtype;
    interval.from_level = event.aux;
    interval.capacity = static_cast<int64_t>(event.value);
    out.push_back(interval);
  }
  if (!out.empty()) out.back().end = last_t;
  return out;
}

std::vector<ControllerDecision> ControllerTimeline(
    const std::vector<TraceEvent>& events) {
  std::vector<ControllerDecision> out;
  // Folds a high-frequency event (step/shed/class) into the current decision
  // row, synthesizing a leading row if none exists yet.
  const auto current_row = [&out](const TraceEvent& event) {
    if (out.empty()) {
      ControllerDecision lead;
      lead.time = event.time;
      lead.subtype = static_cast<int>(ControllerEvent::kReplan);
      out.push_back(lead);
    }
    return &out.back();
  };
  for (const TraceEvent& event : events) {
    if (event.category != EventCategory::kController) continue;
    switch (static_cast<ControllerEvent>(event.subtype)) {
      case ControllerEvent::kReclaim:
        ++current_row(event)->reclaims;
        break;
      case ControllerEvent::kGrant:
        ++current_row(event)->grants;
        break;
      case ControllerEvent::kShed:
        ++current_row(event)->sheds;
        break;
      case ControllerEvent::kClass:
        ++current_row(event)->class_changes;
        break;
      case ControllerEvent::kAlarm:
      case ControllerEvent::kReplan:
      case ControllerEvent::kCommit:
      case ControllerEvent::kRollback:
      case ControllerEvent::kBlocked: {
        ControllerDecision row;
        row.time = event.time;
        row.subtype = event.subtype;
        row.movie = event.movie;
        row.epoch = event.id;
        row.value = event.value;
        out.push_back(row);
        break;
      }
    }
  }
  return out;
}

std::vector<ShardWindowSummary> ShardImbalanceTimeline(
    const std::vector<TraceEvent>& events) {
  std::vector<ShardWindowSummary> out;
  // Rows are keyed by barrier time: every shard's window_close for one
  // window carries the same t_end, and windows arrive in time order in a
  // merged trace.
  const auto row_for = [&out](double t) -> ShardWindowSummary& {
    if (out.empty() || out.back().t_end != t) {
      ShardWindowSummary row;
      row.t_end = t;
      out.push_back(row);
    }
    return out.back();
  };
  for (const TraceEvent& event : events) {
    if (event.category != EventCategory::kShard) continue;
    switch (static_cast<ShardEvent>(event.subtype)) {
      case ShardEvent::kWindowClose: {
        ShardWindowSummary& row = row_for(event.time);
        const auto delta = static_cast<int64_t>(event.value);
        const int shard = static_cast<int>(event.id);
        if (row.shards == 0 || delta > row.max_events) {
          row.max_events = delta;
          row.critical_shard = shard;
        }
        if (row.shards == 0 || delta < row.min_events) {
          row.min_events = delta;
        }
        row.total_events += delta;
        ++row.shards;
        break;
      }
      case ShardEvent::kPressure:  // retired; older traces still carry it
      case ShardEvent::kWindowOpen:
      case ShardEvent::kQuotaApply:
        break;
    }
  }
  return out;
}

}  // namespace vod
