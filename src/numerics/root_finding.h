// Scalar root finding: bisection and Brent's method.
//
// Used by the sizing layer to invert the hit-probability model, e.g. to find
// the smallest buffer allocation B with P(hit)(B) >= P*.

#ifndef VOD_NUMERICS_ROOT_FINDING_H_
#define VOD_NUMERICS_ROOT_FINDING_H_

#include <functional>

#include "common/status.h"

namespace vod {

/// Options shared by the bracketing root finders.
struct RootFindingOptions {
  /// Absolute tolerance on the root location.
  double x_tolerance = 1e-10;
  /// Absolute tolerance on |f(root)|; either tolerance terminates.
  double f_tolerance = 0.0;
  int max_iterations = 200;
};

/// \brief Brent's method on a bracketing interval [a, b].
///
/// Requires f(a) and f(b) to have opposite signs (or one to be zero);
/// returns InvalidArgument otherwise. Returns NumericError if the iteration
/// cap is reached before the tolerances are met.
Result<double> BrentRoot(const std::function<double(double)>& f, double a,
                         double b, const RootFindingOptions& options = {});

/// \brief Plain bisection on a bracketing interval [a, b]. Same contract as
/// BrentRoot; slower but immune to pathological functions.
Result<double> BisectRoot(const std::function<double(double)>& f, double a,
                          double b, const RootFindingOptions& options = {});

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
