#include "numerics/root_finding.h"

namespace vod {

Result<double> MonotoneThreshold(const std::function<bool(double)>& predicate,
                                 double lo, double hi, double x_tolerance) {
  if (predicate(lo)) return lo;
  if (!predicate(hi)) {
    return Status::Infeasible(
        "MonotoneThreshold: predicate false at upper bound");
  }
  // Invariant: predicate(lo) == false, predicate(hi) == true.
  while (hi - lo > x_tolerance) {
    const double m = 0.5 * (lo + hi);
    // lo and hi are adjacent doubles wider apart than the tolerance (or
    // lo + hi overflowed): no bisection step is left, and hi is the answer.
    if (!(m > lo && m < hi)) break;
    if (predicate(m)) {
      hi = m;
    } else {
      lo = m;
    }
  }
  return hi;
}

}  // namespace vod
