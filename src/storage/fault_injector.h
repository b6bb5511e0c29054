// Deterministic, seeded disk failure/repair schedules.
//
// A pool of I/O streams is physically backed by a farm of disks; when a disk
// dies, the streams it sustained vanish until the repair completes. The
// injector models each disk as an alternating renewal process — up-times
// exponential with mean MTBF, repair times exponential with mean MTTR — and
// translates the per-disk up/down trajectory into a time-ordered schedule of
// *pool capacity* changes that the simulation replays. All randomness comes
// from a caller-supplied Rng, so the schedule is reproducible from a seed
// and independent of every other random stream in a run.

#ifndef VOD_STORAGE_FAULT_INJECTOR_H_
#define VOD_STORAGE_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace vod {

/// Reliability profile shared by every disk backing a pool.
struct DiskFaultProfile {
  /// Mean up-time between failures, in simulated minutes, finite: an
  /// infinite MTBF would make StationaryAvailability inf/inf. A huge value
  /// (1e12) approaches a fault-free system.
  double mtbf_minutes = 4000.0;
  /// Mean repair time, in simulated minutes. As it approaches 0 the system
  /// converges to fault-free behavior.
  double mttr_minutes = 120.0;

  Status Validate() const;

  /// Long-run fraction of time a disk is up: MTBF / (MTBF + MTTR).
  double StationaryAvailability() const {
    return mtbf_minutes / (mtbf_minutes + mttr_minutes);
  }
};

/// One capacity-changing event in a fault schedule.
struct FaultEvent {
  double time = 0.0;
  int disk = 0;              ///< which disk failed / was repaired
  bool failure = false;      ///< true = failure, false = repair completed
  int64_t capacity_delta = 0;   ///< signed stream-capacity change
  int64_t capacity_after = 0;   ///< pool capacity once this event applies
};

/// \brief Generates deterministic failure/repair schedules for a disk farm.
///
/// Each disk contributes a fixed share of stream capacity while up. Every
/// disk draws its up/down durations from an independent child of the
/// injector's Rng, so adding a disk does not perturb the others' schedules.
class FaultInjector {
 public:
  /// `disk_capacities[i]` is the stream capacity disk i contributes.
  /// All disks start up. Precondition: profile.Validate().ok() and every
  /// capacity >= 0.
  FaultInjector(std::vector<int64_t> disk_capacities, DiskFaultProfile profile,
                Rng rng);

  /// Splits `total` capacity into `disks` near-equal shares (the first
  /// `total % disks` shares get one extra unit). Precondition: disks >= 1.
  static std::vector<int64_t> SplitCapacity(int64_t total, int disks);

  /// All failure/repair events with time < horizon, merged over disks and
  /// sorted by (time, disk). Deterministic: two calls on equal-constructed
  /// injectors produce identical schedules.
  std::vector<FaultEvent> Schedule(double horizon) const;

  /// Sum of all disk capacities (the fault-free pool capacity).
  int64_t total_capacity() const { return total_capacity_; }
  int disks() const { return static_cast<int>(disk_capacities_.size()); }
  const DiskFaultProfile& profile() const { return profile_; }

 private:
  std::vector<int64_t> disk_capacities_;
  DiskFaultProfile profile_;
  Rng rng_;
  int64_t total_capacity_ = 0;
};

}  // namespace vod

#endif  // VOD_STORAGE_FAULT_INJECTOR_H_
