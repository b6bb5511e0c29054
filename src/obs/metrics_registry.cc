#include "obs/metrics_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace vod {

namespace {

void WriteValue(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

const char* KindName(uint8_t kind) {
  switch (kind) {
    case 0:
      return "counter";
    case 1:
      return "gauge";
    default:
      return "unknown";
  }
}

}  // namespace

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(const std::string& name,
                                                      const std::string& help,
                                                      Kind kind) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    Entry* entry = metrics_[it->second].get();
    VOD_CHECK_MSG(entry->kind == kind,
                  "metric registered twice with different kinds");
    return entry;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = help;
  entry->kind = kind;
  index_[name] = metrics_.size();
  metrics_.push_back(std::move(entry));
  return metrics_.back().get();
}

Counter* MetricsRegistry::AddCounter(const std::string& name,
                                     const std::string& help) {
  return &FindOrCreate(name, help, Kind::kCounter)->counter;
}

Gauge* MetricsRegistry::AddGauge(const std::string& name,
                                 const std::string& help) {
  return &FindOrCreate(name, help, Kind::kGauge)->gauge;
}

double MetricsRegistry::CurrentValue(const Entry& entry) const {
  return entry.kind == Kind::kCounter
             ? static_cast<double>(entry.counter.value())
             : entry.gauge.value();
}

void MetricsRegistry::SampleAt(double t) {
  for (const auto& entry : metrics_) {
    entry->series.push_back({t, CurrentValue(*entry)});
  }
  last_sample_ = t;
  sampled_once_ = true;
  ++samples_taken_;
}

void MetricsRegistry::MaybeSample(double t) {
  if (sample_every_ <= 0.0) return;
  if (!sampled_once_) {
    // Anchor the cadence at the first observed time.
    last_sample_ = t;
    sampled_once_ = true;
    return;
  }
  while (t - last_sample_ >= sample_every_) {
    SampleAt(last_sample_ + sample_every_);
  }
}

const std::vector<SeriesPoint>& MetricsRegistry::series(
    const std::string& name) const {
  static const std::vector<SeriesPoint> kEmpty;
  const auto it = index_.find(name);
  return it == index_.end() ? kEmpty : metrics_[it->second]->series;
}

void MetricsRegistry::WritePrometheus(std::ostream& os) const {
  for (const auto& entry : metrics_) {
    os << "# HELP " << entry->name << " " << entry->help << "\n";
    os << "# TYPE " << entry->name << " "
       << KindName(static_cast<uint8_t>(entry->kind)) << "\n";
    if (entry->kind == Kind::kCounter) {
      os << entry->name << " " << entry->counter.value() << "\n";
    } else {
      os << entry->name << " ";
      WriteValue(os, entry->gauge.value());
      os << "\n";
    }
  }
}

void MetricsRegistry::WriteSeriesCsv(std::ostream& os) const {
  os << "sample_t,metric,value\n";
  for (const auto& entry : metrics_) {
    for (const SeriesPoint& p : entry->series) {
      WriteValue(os, p.t);
      os << "," << entry->name << ",";
      WriteValue(os, p.value);
      os << "\n";
    }
  }
}

void MetricsRegistry::Snapshot(ByteWriter* writer) const {
  writer->PutU32(static_cast<uint32_t>(metrics_.size()));
  for (const auto& entry : metrics_) {
    writer->PutString(entry->name);
    writer->PutString(entry->help);
    writer->PutU8(static_cast<uint8_t>(entry->kind));
    if (entry->kind == Kind::kCounter) {
      writer->PutI64(entry->counter.value());
    } else {
      writer->PutDouble(entry->gauge.value());
    }
    writer->PutU64(static_cast<uint64_t>(entry->series.size()));
    for (const SeriesPoint& p : entry->series) {
      writer->PutDouble(p.t);
      writer->PutDouble(p.value);
    }
  }
  writer->PutDouble(sample_every_);
  writer->PutDouble(last_sample_);
  writer->PutBool(sampled_once_);
  writer->PutI64(samples_taken_);
}

Status MetricsRegistry::Restore(ByteReader* reader) {
  uint32_t count = 0;
  VOD_RETURN_IF_ERROR(reader->ReadU32(&count));
  // Reserve-on-restore: the snapshot declares the instrument count up
  // front, so the table grows once instead of per instrument. Capped so a
  // corrupt count cannot force a huge allocation before parsing fails.
  metrics_.reserve(metrics_.size() + std::min<uint32_t>(count, 4096));
  for (uint32_t m = 0; m < count; ++m) {
    std::string name, help;
    uint8_t kind_raw = 0;
    VOD_RETURN_IF_ERROR(reader->ReadString(&name));
    VOD_RETURN_IF_ERROR(reader->ReadString(&help));
    VOD_RETURN_IF_ERROR(reader->ReadU8(&kind_raw));
    if (kind_raw > 1) {
      return Status::InvalidArgument("metrics restore: unknown kind " +
                                     std::to_string(kind_raw) + " for '" +
                                     name + "'");
    }
    const Kind kind = static_cast<Kind>(kind_raw);
    const auto it = index_.find(name);
    if (it != index_.end() && metrics_[it->second]->kind != kind) {
      return Status::InvalidArgument(
          "metrics restore: '" + name + "' is registered as " +
          KindName(static_cast<uint8_t>(metrics_[it->second]->kind)) +
          " but the snapshot holds a " + KindName(kind_raw));
    }
    Entry* entry = FindOrCreate(name, help, kind);
    if (kind == Kind::kCounter) {
      VOD_RETURN_IF_ERROR(reader->ReadI64(&entry->counter.value_));
    } else {
      VOD_RETURN_IF_ERROR(reader->ReadDouble(&entry->gauge.value_));
    }
    uint64_t points = 0;
    VOD_RETURN_IF_ERROR(reader->ReadU64(&points));
    // Series points are 16 bytes each (t, value): a count the blob cannot
    // hold is corrupt, and must be rejected before it sizes the series.
    if (points > reader->remaining() / 16) {
      return Status::InvalidArgument(
          "metrics restore: series of '" + name + "' declares " +
          std::to_string(points) + " points, more than the snapshot holds");
    }
    entry->series.clear();
    entry->series.reserve(points);
    for (uint64_t i = 0; i < points; ++i) {
      SeriesPoint p;
      VOD_RETURN_IF_ERROR(reader->ReadDouble(&p.t));
      VOD_RETURN_IF_ERROR(reader->ReadDouble(&p.value));
      entry->series.push_back(p);
    }
  }
  VOD_RETURN_IF_ERROR(reader->ReadDouble(&sample_every_));
  VOD_RETURN_IF_ERROR(reader->ReadDouble(&last_sample_));
  VOD_RETURN_IF_ERROR(reader->ReadBool(&sampled_once_));
  VOD_RETURN_IF_ERROR(reader->ReadI64(&samples_taken_));
  return Status::OK();
}

}  // namespace vod
