// Behavior fitting from the VCR log.
//
// The paper assumes "the pdf of VCR requests can be obtained by statistics
// while the movie is displayed" (§2.1). This module closes that loop: the
// simulator (standing in for a production server) puts every VCR request
// on the event bus as a kVcrBegin record (sub = op, value = duration);
// FitBehaviorFromTrace turns those records — collected in process by a
// VectorSink, or read back from a --trace_out file by ReadTraceFile — into
// an operation mix plus empirical duration distributions that plug straight
// into the analytic model and the sizing pipeline.

#ifndef VOD_SIM_TRACE_H_
#define VOD_SIM_TRACE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/hit_model.h"
#include "core/types.h"
#include "obs/event_log.h"

namespace vod {

/// Behavior model estimated from a trace.
struct FittedVcrBehavior {
  VcrMix mix;
  /// Empirical duration distribution per operation; null for operations
  /// absent from the trace (their mix probability is 0).
  VcrDurations durations;
  int64_t samples = 0;
};

/// \brief Estimates the operation mix and per-op duration distributions
/// from the kVcrBegin records of `events`; other categories are skipped.
///
/// Every operation that appears needs at least max(2, min_samples_per_op)
/// records, and every record a known op and a finite, non-negative
/// duration. Each rejection is an InvalidArgument naming the record; a
/// trace without kVcrBegin records is one too.
Result<FittedVcrBehavior> FitBehaviorFromTrace(
    const std::vector<TraceEvent>& events, int min_samples_per_op = 10);

}  // namespace vod

#endif  // VOD_SIM_TRACE_H_
