// Monotone-threshold search by bisection.
//
// Used by the controller's planner (ctrl/planner) to find the water level
// of its inner buffer split: the smallest level at which the movies' buffer
// shares fit the buffer budget.

#ifndef VOD_NUMERICS_ROOT_FINDING_H_
#define VOD_NUMERICS_ROOT_FINDING_H_

#include <functional>

#include "common/status.h"

namespace vod {

/// \brief Smallest x in [lo, hi] with predicate(x) true, assuming the
/// predicate is monotone (false ... false true ... true), to within
/// x_tolerance, or to adjacent doubles where their spacing exceeds it.
/// Returns Infeasible if predicate(hi) is false; returns lo if predicate(lo)
/// is already true.
Result<double> MonotoneThreshold(const std::function<bool(double)>& predicate,
                                 double lo, double hi,
                                 double x_tolerance = 1e-9);

}  // namespace vod

#endif  // VOD_NUMERICS_ROOT_FINDING_H_
