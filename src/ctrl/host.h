// The controller's view of the system it steers.
//
// ctrl/ never includes sim/ headers — the control plane is a pure state
// machine and the simulation server implements this interface to let it
// read live state and commit layout changes. Keeping the dependency in this
// direction means the controller can be unit-tested against a scripted fake
// host, and the sim layer stays free to evolve its internals.

#ifndef VOD_CTRL_HOST_H_
#define VOD_CTRL_HOST_H_

#include <cstdint>

#include "core/partition_layout.h"

namespace vod {

/// \brief Host services a controller needs (implemented by sim/server).
///
/// Determinism contract: every method must be a pure function of simulation
/// state at the call time — no RNG, no wall clock.
class ControllerHost {
 public:
  virtual ~ControllerHost() = default;

  /// Applies a new layout to `movie` at simulation time t. The host must
  /// re-anchor the restart schedule at t without preempting active streams
  /// (MovieWorld::ApplyLayout semantics).
  virtual void CommitLayout(int32_t movie, double t,
                            const PartitionLayout& layout) = 0;

  /// The layout `movie` is currently serving with.
  virtual const PartitionLayout& LiveLayout(int32_t movie) const = 0;

  /// True while the system is too degraded to give up partition resources
  /// (the degradation ladder is at its reclaim rung or worse). Migration
  /// reclaim steps back off while this holds, and a capacity change while
  /// it holds aborts the migration in flight.
  virtual bool ReclaimBlocked() const = 0;
};

}  // namespace vod

#endif  // VOD_CTRL_HOST_H_
