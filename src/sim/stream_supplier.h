// Sources of dedicated I/O streams for VCR phase-1 and post-miss playback.
//
// The serial server's reserve (sim/degradation.h) and the sharded server's
// per-movie credit (sim/shard.h) implement this interface. A finite
// reserve *refuses* VCR requests when it runs dry — the
// resource-exhaustion phenomenon the paper's pre-allocation is designed to
// avoid; the single-movie simulator measures demand against a reserve too
// large to run dry.

#ifndef VOD_SIM_STREAM_SUPPLIER_H_
#define VOD_SIM_STREAM_SUPPLIER_H_

#include <cstdint>
#include <functional>

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

  /// Asks to *wait* for a stream after TryAcquire failed. A supplier whose
  /// ladder admits the wait takes ownership of the request and later
  /// invokes `on_decision(t, granted)` exactly once: granted=true means a
  /// stream was acquired on the caller's behalf (the caller now owns it),
  /// granted=false means the wait expired. Otherwise it returns false
  /// without invoking the callback: the seed's hard refusal.
  virtual bool TryQueueAcquire(
      double t, std::function<void(double, bool)> on_decision) = 0;
};

}  // namespace vod

#endif  // VOD_SIM_STREAM_SUPPLIER_H_
