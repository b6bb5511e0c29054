// Live metrics registry: named counters and gauges with time-series
// sampling, checkpoint snapshot/restore, and text exporters.
//
// Where the event log answers "what happened, in order", the registry
// answers "what was the level of X over time". Instruments are registered
// by name (registration order is the export order, so output is
// deterministic), updated from simulator observers or the grid runner, and
// sampled into per-instrument time series at a configurable cadence. The
// whole registry serializes into the experiment checkpoint, so a run that
// is SIGKILLed and resumed continues its series without a gap — the soak
// harness asserts exactly that.
//
// Exporters:
//   * WritePrometheus — Prometheus text exposition format (HELP/TYPE +
//     current values);
//   * WriteSeriesCsv  — long-format `sample_t,metric,value` rows of every
//     sampled point, ready for plotting.
//
// Thread safety: none. The registry lives either on a single run's event
// loop or under the checkpoint runner's completion mutex.

#ifndef VOD_OBS_METRICS_REGISTRY_H_
#define VOD_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"

namespace vod {

/// Monotone event count. Add() only; resets happen via fresh registries.
class Counter {
 public:
  void Add(int64_t n = 1) { value_ += n; }
  int64_t value() const { return value_; }

 private:
  friend class MetricsRegistry;
  int64_t value_ = 0;
};

/// Point-in-time level (streams in use, degradation rung, ...).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  friend class MetricsRegistry;
  double value_ = 0.0;
};

/// One sampled point of an instrument's series. `t` is whatever clock the
/// caller samples on (simulated minutes for runs, cells-done for sweeps).
struct SeriesPoint {
  double t = 0.0;
  double value = 0.0;
};

/// \brief Named-instrument registry with cadenced series sampling.
class MetricsRegistry {
 public:
  /// Registers (or finds, when already registered with the same kind) an
  /// instrument. Aborts via VOD_CHECK if the name exists with another kind.
  Counter* AddCounter(const std::string& name, const std::string& help);
  Gauge* AddGauge(const std::string& name, const std::string& help);

  size_t num_metrics() const { return metrics_.size(); }

  // ---- series sampling ----------------------------------------------------

  /// Sampling cadence on the caller's clock; <= 0 disables MaybeSample.
  void set_sample_every(double cadence) { sample_every_ = cadence; }
  double sample_every() const { return sample_every_; }

  /// Appends one series point per instrument at time `t` (counters sample
  /// their count, gauges their level).
  void SampleAt(double t);

  /// Samples at every multiple of the cadence in (last_sample, t]. Call at
  /// event-loop rate; cheap when no boundary passed.
  void MaybeSample(double t);

  /// The sampled series of `name` (empty when absent / never sampled).
  const std::vector<SeriesPoint>& series(const std::string& name) const;
  int64_t samples_taken() const { return samples_taken_; }

  // ---- exporters ----------------------------------------------------------

  /// Prometheus text exposition format (current values).
  void WritePrometheus(std::ostream& os) const;

  /// Long-format CSV of every sampled series point:
  /// `sample_t,metric,value` with a header row.
  void WriteSeriesCsv(std::ostream& os) const;

  // ---- checkpoint integration --------------------------------------------

  /// Serializes every instrument (values, series) plus the sampling state
  /// into `writer`.
  void Snapshot(ByteWriter* writer) const;

  /// Restores from a Snapshot() blob. Instruments are matched by name and
  /// re-created when absent, so the caller may restore into either an empty
  /// registry or one with instruments pre-registered (kind mismatches are
  /// an error). Series and sampling state are replaced wholesale.
  Status Restore(ByteReader* reader);

 private:
  enum class Kind : uint8_t { kCounter = 0, kGauge = 1 };

  struct Entry {
    std::string name;
    std::string help;
    Kind kind = Kind::kCounter;
    Counter counter;
    Gauge gauge;
    std::vector<SeriesPoint> series;
  };

  Entry* FindOrCreate(const std::string& name, const std::string& help,
                      Kind kind);
  double CurrentValue(const Entry& entry) const;

  std::vector<std::unique_ptr<Entry>> metrics_;  ///< registration order
  std::unordered_map<std::string, size_t> index_;
  double sample_every_ = 0.0;
  double last_sample_ = 0.0;
  bool sampled_once_ = false;
  int64_t samples_taken_ = 0;
};

}  // namespace vod

#endif  // VOD_OBS_METRICS_REGISTRY_H_
