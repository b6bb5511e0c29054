#include "numerics/root_finding.h"

#include <cmath>

namespace vod {

Result<double> BrentRoot(const std::function<double(double)>& f, double a,
                         double b, const RootFindingOptions& options) {
  double fa = f(a);
  double fb = f(b);
  if (fa == 0.0) return a;
  if (fb == 0.0) return b;
  if (fa * fb > 0.0) {
    return Status::InvalidArgument(
        "BrentRoot: f(a) and f(b) must have opposite signs");
  }
  if (std::fabs(fa) < std::fabs(fb)) {
    std::swap(a, b);
    std::swap(fa, fb);
  }
  double c = a;
  double fc = fa;
  double d = b - a;  // last step; initialized to bracket width
  bool mflag = true;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    if (std::fabs(fb) <= options.f_tolerance ||
        std::fabs(b - a) <= options.x_tolerance) {
      return b;
    }
    double s;
    if (fa != fc && fb != fc) {
      // Inverse quadratic interpolation.
      s = a * fb * fc / ((fa - fb) * (fa - fc)) +
          b * fa * fc / ((fb - fa) * (fb - fc)) +
          c * fa * fb / ((fc - fa) * (fc - fb));
    } else {
      // Secant.
      s = b - fb * (b - a) / (fb - fa);
    }
    const double lo = (3.0 * a + b) / 4.0;
    const bool out_of_range = !((s > lo && s < b) || (s < lo && s > b));
    const bool slow_mflag = mflag && std::fabs(s - b) >= std::fabs(b - c) / 2.0;
    const bool slow_nflag = !mflag && std::fabs(s - b) >= std::fabs(c - d) / 2.0;
    const bool tiny_mflag =
        mflag && std::fabs(b - c) < options.x_tolerance;
    const bool tiny_nflag =
        !mflag && std::fabs(c - d) < options.x_tolerance;
    if (out_of_range || slow_mflag || slow_nflag || tiny_mflag || tiny_nflag) {
      s = 0.5 * (a + b);  // fall back to bisection
      mflag = true;
    } else {
      mflag = false;
    }
    const double fs = f(s);
    d = c;
    c = b;
    fc = fb;
    if (fa * fs < 0.0) {
      b = s;
      fb = fs;
    } else {
      a = s;
      fa = fs;
    }
    if (std::fabs(fa) < std::fabs(fb)) {
      std::swap(a, b);
      std::swap(fa, fb);
    }
  }
  return Status::NumericError("BrentRoot: iteration limit reached");
}

Result<double> BisectRoot(const std::function<double(double)>& f, double a,
                          double b, const RootFindingOptions& options) {
  double fa = f(a);
  double fb = f(b);
  if (fa == 0.0) return a;
  if (fb == 0.0) return b;
  if (fa * fb > 0.0) {
    return Status::InvalidArgument(
        "BisectRoot: f(a) and f(b) must have opposite signs");
  }
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    const double m = 0.5 * (a + b);
    const double fm = f(m);
    if (fm == 0.0 || std::fabs(b - a) <= options.x_tolerance ||
        std::fabs(fm) <= options.f_tolerance) {
      return m;
    }
    if (fa * fm < 0.0) {
      b = m;
      fb = fm;
    } else {
      a = m;
      fa = fm;
    }
  }
  return 0.5 * (a + b);
}

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
