#include "storage/fault_injector.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace vod {

namespace {
// Stream-class tag for per-disk child RNGs (see Rng::MakeChild).
constexpr uint64_t kDiskStream = 11;
}  // namespace

Status DiskFaultProfile::Validate() const {
  if (!(mtbf_minutes > 0.0) || !std::isfinite(mtbf_minutes)) {
    return Status::InvalidArgument("MTBF must be positive and finite");
  }
  if (!(mttr_minutes > 0.0) || !std::isfinite(mttr_minutes)) {
    return Status::InvalidArgument("MTTR must be positive and finite");
  }
  return Status::OK();
}

FaultInjector::FaultInjector(std::vector<int64_t> disk_capacities,
                             DiskFaultProfile profile, Rng rng)
    : disk_capacities_(std::move(disk_capacities)),
      profile_(profile),
      rng_(rng) {
  VOD_CHECK_OK(profile_.Validate());
  for (const int64_t c : disk_capacities_) {
    VOD_CHECK_MSG(c >= 0, "disk capacity must be non-negative");
    total_capacity_ += c;
  }
}

std::vector<int64_t> FaultInjector::SplitCapacity(int64_t total, int disks) {
  VOD_CHECK_MSG(disks >= 1, "need at least one disk");
  VOD_CHECK_MSG(total >= 0, "capacity must be non-negative");
  std::vector<int64_t> shares(static_cast<size_t>(disks), total / disks);
  for (int64_t i = 0; i < total % disks; ++i) ++shares[static_cast<size_t>(i)];
  return shares;
}

std::vector<FaultEvent> FaultInjector::Schedule(double horizon) const {
  std::vector<FaultEvent> events;
  if (!(horizon > 0.0)) return events;
  for (size_t disk = 0; disk < disk_capacities_.size(); ++disk) {
    // Each disk's trajectory comes from its own child stream so schedules
    // are stable when the farm grows.
    Rng rng = rng_.MakeChild(kDiskStream, disk);
    const int64_t share = disk_capacities_[disk];
    double t = 0.0;
    bool up = true;
    while (true) {
      t += rng.Exponential(up ? profile_.mtbf_minutes
                              : profile_.mttr_minutes);
      if (!(t < horizon)) break;
      FaultEvent ev;
      ev.time = t;
      ev.disk = static_cast<int>(disk);
      ev.failure = up;  // an up disk's next transition is a failure
      ev.capacity_delta = up ? -share : share;
      events.push_back(ev);
      up = !up;
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.disk < b.disk;
                   });
  int64_t capacity = total_capacity_;
  for (FaultEvent& ev : events) {
    capacity += ev.capacity_delta;
    ev.capacity_after = capacity;
  }
  return events;
}

}  // namespace vod
