// Stochastic VCR behavior of a viewer session.

#ifndef VOD_SIM_VCR_BEHAVIOR_H_
#define VOD_SIM_VCR_BEHAVIOR_H_

#include "common/rng.h"
#include "common/status.h"
#include "core/hit_model.h"
#include "core/types.h"
#include "dist/distribution.h"

namespace vod {

/// \brief How and how often viewers issue VCR operations.
///
/// Each playing viewer carries an exponential-like clock drawn from
/// `interactivity`: when it fires, an operation type is drawn from `mix` and
/// its duration parameter from the matching `durations` entry (movie-minutes
/// traversed for FF/RW, wall-minutes for PAU — the paper's f(x)).
struct VcrBehavior {
  VcrMix mix = VcrMix::Only(VcrOp::kFastForward);
  VcrDurations durations;
  /// Time between consecutive VCR operations of one viewer during normal
  /// playback; null disables interactivity entirely.
  DistributionPtr interactivity;

  /// True if viewers never issue VCR operations.
  bool passive() const { return interactivity == nullptr; }

  /// InvalidArgument for a malformed mix, an operation the mix uses
  /// without a duration or with one whose support starts below 0, or
  /// interactivity gaps that can be negative.
  Status Validate() const;

  /// Draws an operation type according to the mix.
  VcrOp SampleOp(Rng* rng) const;

  /// Draws a duration parameter for the given operation.
  double SampleDuration(VcrOp op, Rng* rng) const;
};

}  // namespace vod

#endif  // VOD_SIM_VCR_BEHAVIOR_H_
