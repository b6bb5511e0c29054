#include "obs/flight_recorder.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/parse.h"
#include "obs/trace_reader.h"

namespace vod {

namespace {

constexpr const char* kBundleMagic = "vod-flight-recorder-v1";

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    // The bundle is line-oriented; a newline inside `reason` would split the
    // header, so flatten it.
    out->push_back(c == '\n' ? ' ' : c);
  }
}

}  // namespace

FlightRecorder::FlightRecorder(int shards, size_t window_capacity,
                               size_t events_per_shard)
    : window_capacity_(window_capacity == 0 ? 1 : window_capacity) {
  rings_.reserve(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) rings_.emplace_back(events_per_shard);
}

void FlightRecorder::RecordWindow(FlightWindowRecord record) {
  windows_.push_back(std::move(record));
  while (windows_.size() > window_capacity_) windows_.pop_front();
}

Status FlightRecorder::Dump(const std::string& path,
                            const std::string& reason) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open postmortem file '" + path +
                                   "'");
  }
  std::string header = "{\"postmortem\":\"";
  header += kBundleMagic;
  header += "\",\"reason\":\"";
  AppendJsonEscaped(&header, reason);
  header += "\",\"shards\":" + std::to_string(rings_.size()) + "}";
  out << header << '\n';
  for (const FlightWindowRecord& rec : windows_) {
    std::string line = "{\"window\":" + std::to_string(rec.window);
    line += ",\"t_end\":";
    AppendJsonDouble(&line, rec.t_end);
    line += ",\"capacity\":" + std::to_string(rec.capacity);
    line += ",\"rung\":" + std::to_string(rec.rung);
    line += ",\"digest\":" + std::to_string(rec.digest);
    line += ",\"sum_held\":" + std::to_string(rec.sum_held);
    line += ",\"sum_credit\":" + std::to_string(rec.sum_credit);
    line += ",\"sum_debt\":" + std::to_string(rec.sum_debt);
    line += ",\"sum_queued\":" + std::to_string(rec.sum_queued);
    line += ",\"quota_issued\":" + std::to_string(rec.quota_issued);
    line += ",\"shard_events\":[";
    for (size_t i = 0; i < rec.shard_events.size(); ++i) {
      if (i > 0) line += ",";
      line += std::to_string(rec.shard_events[i]);
    }
    line += "]}";
    out << line << '\n';
  }
  for (size_t s = 0; s < rings_.size(); ++s) {
    for (const TraceEvent& event : rings_[s].Snapshot()) {
      out << "{\"shard\":" << s << ",\"event\":" << TraceEventToJson(event)
          << "}" << '\n';
    }
  }
  out.flush();
  if (!out.good()) {
    return Status::Internal("postmortem write failed for '" + path + "'");
  }
  return Status::OK();
}

Result<PostmortemBundle> ReadPostmortem(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open postmortem file '" + path + "'");
  }
  PostmortemBundle bundle;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const JsonLineFields fields("postmortem", line_no, line);
    if (line_no == 1) {
      std::string magic;
      VOD_RETURN_IF_ERROR(fields.String("postmortem", &magic));
      if (magic != kBundleMagic) {
        return fields.Error("unknown bundle format '" + magic + "'");
      }
      VOD_RETURN_IF_ERROR(fields.String("reason", &bundle.reason));
      VOD_RETURN_IF_ERROR(fields.Integer("shards", &bundle.shards));
      if (bundle.shards < 1) {
        return fields.Error("field \"shards\" must be >= 1, got " +
                            std::to_string(bundle.shards));
      }
      continue;
    }
    if (fields.Find("window") != std::string::npos) {
      FlightWindowRecord rec;
      VOD_RETURN_IF_ERROR(fields.Integer("window", &rec.window));
      VOD_RETURN_IF_ERROR(fields.Read("t_end", ParseDouble, &rec.t_end));
      VOD_RETURN_IF_ERROR(fields.Integer("capacity", &rec.capacity));
      VOD_RETURN_IF_ERROR(fields.Integer("rung", &rec.rung));
      // Rungs share the trace's degradation subtype vocabulary.
      if (rec.rung < 0 || rec.rung > 255 ||
          std::strcmp(EventSubtypeName(EventCategory::kDegradation,
                                       static_cast<uint8_t>(rec.rung)),
                      "-") == 0) {
        return fields.Error("field \"rung\" is not a degradation rung: " +
                            std::to_string(rec.rung));
      }
      VOD_RETURN_IF_ERROR(fields.Read("digest", ParseUint64, &rec.digest));
      VOD_RETURN_IF_ERROR(fields.Integer("sum_held", &rec.sum_held));
      VOD_RETURN_IF_ERROR(fields.Integer("sum_credit", &rec.sum_credit));
      VOD_RETURN_IF_ERROR(fields.Integer("sum_debt", &rec.sum_debt));
      VOD_RETURN_IF_ERROR(fields.Integer("sum_queued", &rec.sum_queued));
      VOD_RETURN_IF_ERROR(fields.Integer("quota_issued", &rec.quota_issued));
      const size_t open = fields.Find("shard_events");
      const size_t close = line.find(']', open);
      if (open >= line.size() || line[open] != '[' ||
          close == std::string::npos) {
        return fields.Error("field \"shard_events\" is missing");
      }
      const std::string entries = line.substr(open + 1, close - open - 1);
      if (!entries.empty()) {
        for (const std::string& entry : SplitFields(entries, ',')) {
          const auto events = ParseNamed("field \"shard_events\" entry",
                                         ParseInt64, entry);
          if (!events.ok()) return fields.Error(events.status().message());
          rec.shard_events.push_back(*events);
        }
      }
      bundle.windows.push_back(std::move(rec));
      continue;
    }
    if (fields.Find("shard") != std::string::npos) {
      int shard = 0;
      VOD_RETURN_IF_ERROR(fields.Integer("shard", &shard));
      const size_t obj = fields.Find("event");
      const size_t close = line.rfind('}');
      if (obj == std::string::npos || close == std::string::npos ||
          close <= obj) {
        return fields.Error("malformed event record");
      }
      // The embedded object is exactly one JSONL trace line; lean on the
      // trace reader so binary/JSONL subtype recovery stays in one place.
      std::istringstream event_line(line.substr(obj, close - obj));
      auto parsed = ReadJsonlTrace(event_line);
      if (!parsed.ok()) return fields.Error(parsed.status().message());
      if (parsed->size() != 1) {
        return fields.Error("expected exactly one embedded event");
      }
      PostmortemEvent pe;
      pe.shard = shard;
      pe.event = parsed->front();
      bundle.events.push_back(pe);
      continue;
    }
    return fields.Error("unrecognized record");
  }
  if (line_no == 0) {
    return Status::InvalidArgument("postmortem file '" + path + "' is empty");
  }
  return bundle;
}

}  // namespace vod
