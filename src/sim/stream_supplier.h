// Sources of dedicated I/O streams for VCR phase-1 and post-miss playback.
//
// The single-movie simulator measures demand against an unlimited supply;
// the multi-movie server simulator shares a finite reserve, so VCR requests
// can be *refused* when it runs dry — the resource-exhaustion phenomenon
// the paper's pre-allocation is designed to avoid.

#ifndef VOD_SIM_STREAM_SUPPLIER_H_
#define VOD_SIM_STREAM_SUPPLIER_H_

#include <cstdint>
#include <functional>

#include "stats/time_weighted.h"

namespace vod {

/// \brief Allocator of dedicated streams, shared by one or more movies.
class StreamSupplier {
 public:
  virtual ~StreamSupplier() = default;

  /// Takes one stream at time t; false means the request is refused (the
  /// caller decides whether that blocks a VCR operation or stalls a
  /// resume).
  virtual bool TryAcquire(double t) = 0;

  /// Returns one stream at time t.
  virtual void Release(double t) = 0;

  /// Streams currently handed out.
  virtual int64_t in_use() const = 0;

  /// Asks to *wait* for a stream after TryAcquire failed. Suppliers that
  /// support queueing (sim/degradation.h) take ownership of the request and
  /// later invoke `on_decision(t, granted)` exactly once: granted=true means
  /// a stream was acquired on the caller's behalf (the caller now owns it),
  /// granted=false means the wait expired. The default supplier has no
  /// queue: returns false without invoking the callback, preserving the
  /// seed's hard-refusal semantics.
  virtual bool TryQueueAcquire(double t,
                               std::function<void(double, bool)> on_decision) {
    (void)t;
    (void)on_decision;
    return false;
  }
};

/// \brief Infinite supply that records demand statistics.
///
/// Used when measuring how many dedicated streams a workload *would* pin
/// (the paper's phase-1/phase-2 load), with no admission effects.
class UnlimitedStreamSupplier final : public StreamSupplier {
 public:
  UnlimitedStreamSupplier() { usage_.Reset(0.0, 0.0); }

  bool TryAcquire(double t) override {
    ++in_use_;
    if (in_use_ > peak_) peak_ = in_use_;
    usage_.Set(t, static_cast<double>(in_use_));
    return true;
  }

  void Release(double t) override {
    --in_use_;
    usage_.Set(t, static_cast<double>(in_use_));
  }

  int64_t in_use() const override { return in_use_; }
  int64_t peak_in_use() const { return peak_; }
  double MeanInUse(double t_end) const { return usage_.TimeAverage(t_end); }

 private:
  int64_t in_use_ = 0;
  int64_t peak_ = 0;
  TimeWeightedValue usage_;
};

}  // namespace vod

#endif  // VOD_SIM_STREAM_SUPPLIER_H_
