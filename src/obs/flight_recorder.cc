#include "obs/flight_recorder.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

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

void AppendJsonDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

// Finds `"key":` in a single-line JSON object and returns the character
// position just past the colon, or npos (same convention as trace_reader).
size_t FindField(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t pos = line.find(needle);
  return pos == std::string::npos ? std::string::npos : pos + needle.size();
}

Status LineError(size_t line_no, const std::string& why) {
  return Status::InvalidArgument("postmortem line " + std::to_string(line_no) +
                                 ": " + why);
}

// Reads a finite number at `begin`; strtod also reads "nan" and "inf",
// which JSON does not have. Returns the end of the number, or null.
const char* ReadFinite(const char* begin, double* out) {
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  return end == begin || !std::isfinite(*out) ? nullptr : end;
}

// Casts an integral `v` that fits Int. Casting a double outside its target
// type's range is undefined, so the range is checked before any cast.
template <typename Int>
bool ToInt(double v, Int* out) {
  constexpr double kLo = static_cast<double>(std::numeric_limits<Int>::min());
  if (v != std::floor(v) || v < kLo || v >= -kLo) return false;
  *out = static_cast<Int>(v);
  return true;
}

Status ParseNumber(const std::string& line, size_t line_no, const char* key,
                   double* out) {
  const size_t pos = FindField(line, key);
  if (pos == std::string::npos) {
    return LineError(line_no, std::string("missing field \"") + key + "\"");
  }
  if (ReadFinite(line.c_str() + pos, out) == nullptr) {
    return LineError(line_no, std::string("field \"") + key +
                                  "\" is not a finite number");
  }
  return Status::OK();
}

template <typename Int>
Status ParseInt(const std::string& line, size_t line_no, const char* key,
                Int* out) {
  double v = 0.0;
  VOD_RETURN_IF_ERROR(ParseNumber(line, line_no, key, &v));
  if (ToInt(v, out)) return Status::OK();
  using Limits = std::numeric_limits<Int>;
  return LineError(line_no, std::string("field \"") + key +
                                "\" must be an integer in [" +
                                std::to_string(Limits::min()) + ", " +
                                std::to_string(Limits::max()) + "]");
}

// Digests are full 64-bit FNV values; going through double would round
// everything past 2^53, so they get a dedicated integer parse. strtoull
// would also accept a sign (wrapping "-1") and saturate on overflow, so
// the field must start with a digit and fit in 64 bits.
Status ParseU64(const std::string& line, size_t line_no, const char* key,
                uint64_t* out) {
  const size_t pos = FindField(line, key);
  if (pos == std::string::npos) {
    return LineError(line_no, std::string("missing field \"") + key + "\"");
  }
  const char* begin = line.c_str() + pos;
  errno = 0;
  const unsigned long long v = std::strtoull(begin, nullptr, 10);
  if (std::isdigit(static_cast<unsigned char>(*begin)) == 0 ||
      errno == ERANGE) {
    return LineError(line_no, std::string("field \"") + key +
                                  "\" is not an unsigned 64-bit integer");
  }
  *out = v;
  return Status::OK();
}

Status ParseString(const std::string& line, size_t line_no, const char* key,
                   std::string* out) {
  size_t pos = FindField(line, key);
  if (pos == std::string::npos) {
    return LineError(line_no, std::string("missing field \"") + key + "\"");
  }
  if (pos >= line.size() || line[pos] != '"') {
    return LineError(line_no,
                     std::string("field \"") + key + "\" is not a string");
  }
  std::string value;
  bool closed = false;
  for (size_t i = pos + 1; i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      value.push_back(line[++i]);
      continue;
    }
    if (line[i] == '"') {
      closed = true;
      break;
    }
    value.push_back(line[i]);
  }
  if (!closed) {
    return LineError(line_no,
                     std::string("unterminated string for \"") + key + "\"");
  }
  *out = value;
  return Status::OK();
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
    if (line_no == 1) {
      std::string magic;
      VOD_RETURN_IF_ERROR(ParseString(line, line_no, "postmortem", &magic));
      if (magic != kBundleMagic) {
        return LineError(line_no, "unknown bundle format '" + magic + "'");
      }
      VOD_RETURN_IF_ERROR(ParseString(line, line_no, "reason",
                                      &bundle.reason));
      VOD_RETURN_IF_ERROR(ParseInt(line, line_no, "shards", &bundle.shards));
      if (bundle.shards < 1) {
        return LineError(line_no, "field \"shards\" must be >= 1, got " +
                                      std::to_string(bundle.shards));
      }
      continue;
    }
    if (FindField(line, "window") != std::string::npos) {
      FlightWindowRecord rec;
      VOD_RETURN_IF_ERROR(ParseInt(line, line_no, "window", &rec.window));
      VOD_RETURN_IF_ERROR(ParseNumber(line, line_no, "t_end", &rec.t_end));
      VOD_RETURN_IF_ERROR(ParseInt(line, line_no, "capacity", &rec.capacity));
      VOD_RETURN_IF_ERROR(ParseInt(line, line_no, "rung", &rec.rung));
      // Rungs share the trace's degradation subtype vocabulary.
      if (rec.rung < 0 || rec.rung > 255 ||
          std::strcmp(EventSubtypeName(EventCategory::kDegradation,
                                       static_cast<uint8_t>(rec.rung)),
                      "-") == 0) {
        return LineError(line_no, "field \"rung\" is not a degradation "
                                  "rung: " + std::to_string(rec.rung));
      }
      VOD_RETURN_IF_ERROR(ParseU64(line, line_no, "digest", &rec.digest));
      VOD_RETURN_IF_ERROR(ParseInt(line, line_no, "sum_held", &rec.sum_held));
      VOD_RETURN_IF_ERROR(
          ParseInt(line, line_no, "sum_credit", &rec.sum_credit));
      VOD_RETURN_IF_ERROR(ParseInt(line, line_no, "sum_debt", &rec.sum_debt));
      VOD_RETURN_IF_ERROR(
          ParseInt(line, line_no, "sum_queued", &rec.sum_queued));
      VOD_RETURN_IF_ERROR(
          ParseInt(line, line_no, "quota_issued", &rec.quota_issued));
      const size_t arr = FindField(line, "shard_events");
      if (arr == std::string::npos || arr >= line.size() ||
          line[arr] != '[') {
        return LineError(line_no, "missing field \"shard_events\"");
      }
      size_t pos = arr + 1;
      while (pos < line.size() && line[pos] != ']') {
        double d = 0.0;
        int64_t events = 0;
        const char* end = ReadFinite(line.c_str() + pos, &d);
        if (end == nullptr || !ToInt(d, &events)) {
          return LineError(line_no, "field \"shard_events\" holds an entry "
                                    "that is not a 64-bit integer");
        }
        rec.shard_events.push_back(events);
        pos = static_cast<size_t>(end - line.c_str());
        if (pos < line.size() && line[pos] == ',') ++pos;
      }
      bundle.windows.push_back(std::move(rec));
      continue;
    }
    if (FindField(line, "shard") != std::string::npos) {
      int shard = 0;
      VOD_RETURN_IF_ERROR(ParseInt(line, line_no, "shard", &shard));
      const size_t obj = FindField(line, "event");
      const size_t close = line.rfind('}');
      if (obj == std::string::npos || close == std::string::npos ||
          close <= obj) {
        return LineError(line_no, "malformed event record");
      }
      // The embedded object is exactly one JSONL trace line; lean on the
      // trace reader so binary/JSONL subtype recovery stays in one place.
      std::istringstream event_line(line.substr(obj, close - obj));
      auto parsed = ReadJsonlTrace(event_line);
      if (!parsed.ok()) {
        return LineError(line_no, parsed.status().message());
      }
      if (parsed->size() != 1) {
        return LineError(line_no, "expected exactly one embedded event");
      }
      PostmortemEvent pe;
      pe.shard = shard;
      pe.event = parsed->front();
      bundle.events.push_back(pe);
      continue;
    }
    return LineError(line_no, "unrecognized record");
  }
  if (line_no == 0) {
    return Status::InvalidArgument("postmortem file '" + path + "' is empty");
  }
  return bundle;
}

}  // namespace vod
