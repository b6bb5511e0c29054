// Grid minimization, used by the controller's planner (ctrl/planner) for
// its outer search over the stream water level.

#ifndef VOD_NUMERICS_OPTIMIZE_H_
#define VOD_NUMERICS_OPTIMIZE_H_

#include <functional>

#include "common/status.h"

namespace vod {

/// Location/value pair returned by GridMinimize.
struct Minimum {
  double x = 0.0;
  double value = 0.0;
};

/// \brief Exhaustive minimum of f over a uniform grid of `points` samples on
/// [a, b] (inclusive endpoints). Robust for the piecewise cost curves whose
/// minima sit at feasibility boundaries.
Minimum GridMinimize(const std::function<double(double)>& f, double a,
                     double b, int points);

}  // namespace vod

#endif  // VOD_NUMERICS_OPTIMIZE_H_
