#include "sim/trace.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "dist/empirical.h"

namespace vod {

Result<FittedVcrBehavior> FitBehaviorFromTrace(
    const std::vector<TraceEvent>& events, int min_samples_per_op) {
  std::vector<double> durations[3];
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    if (event.category != EventCategory::kVcrBegin) continue;
    const std::string where = "vcr_begin record " + std::to_string(i) +
                              " (seq " + std::to_string(event.seq) + ")";
    if (event.subtype >= 3) {
      return Status::InvalidArgument(where + ": unknown op id " +
                                     std::to_string(event.subtype));
    }
    if (!std::isfinite(event.value) || event.value < 0.0) {
      return Status::InvalidArgument(
          where + ": duration must be finite and non-negative, got " +
          std::to_string(event.value));
    }
    durations[event.subtype].push_back(event.value);
  }
  FittedVcrBehavior fitted;
  for (const std::vector<double>& d : durations) {
    fitted.samples += static_cast<int64_t>(d.size());
  }
  if (fitted.samples == 0) {
    return Status::InvalidArgument("cannot fit from a trace without "
                                   "vcr_begin records");
  }
  // EmpiricalDistribution needs two samples; more keeps the fit usable.
  const int64_t min_samples = std::max(2, min_samples_per_op);
  const double total = static_cast<double>(fitted.samples);
  double* mix_slot[3] = {&fitted.mix.p_fast_forward, &fitted.mix.p_rewind,
                         &fitted.mix.p_pause};
  DistributionPtr* duration_slot[3] = {&fitted.durations.fast_forward,
                                       &fitted.durations.rewind,
                                       &fitted.durations.pause};
  for (VcrOp op : kAllVcrOps) {
    std::vector<double>& d = durations[static_cast<int>(op)];
    const auto count = static_cast<int64_t>(d.size());
    *mix_slot[static_cast<int>(op)] = static_cast<double>(count) / total;
    if (count == 0) continue;
    if (count < min_samples) {
      return Status::InvalidArgument(
          std::string("too few samples for ") + VcrOpName(op) + " (" +
          std::to_string(count) + " < " + std::to_string(min_samples) + ")");
    }
    *duration_slot[static_cast<int>(op)] =
        std::make_shared<EmpiricalDistribution>(std::move(d));
  }
  return fitted;
}

}  // namespace vod
