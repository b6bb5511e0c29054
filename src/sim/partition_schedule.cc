#include "sim/partition_schedule.h"

#include <cmath>

#include "common/check.h"

namespace vod {

std::vector<int64_t> PartitionSchedule::ActiveStreams(double t) const {
  const double period = layout_.restart_period();
  const double l = layout_.movie_length();
  const double window = layout_.window();
  std::vector<int64_t> out;
  // Streams with lead ∈ (0, l + W): k ∈ ((t − a − l − W)/T, (t − a)/T).
  const auto k_low = static_cast<int64_t>(
      std::floor((t - anchor_ - l - window) / period + 1e-12)) + 1;
  const auto k_high =
      static_cast<int64_t>(std::floor((t - anchor_) / period + 1e-12));
  for (int64_t k = k_low; k <= k_high; ++k) {
    const double lead = StreamLead(k, t);
    if (lead > 0.0 && lead < l + window) out.push_back(k);
  }
  return out;
}

}  // namespace vod
