// Tabulated antiderivative of a function on a bounded interval.
//
// The hit model averages the duration CDF over the viewer position V_c and
// the lead distance d analytically; both averages are integrals of tabulated
// functions (docs/MODEL.md §4). TabulatedAntiderivative builds such an
// integral once from samples at the knots and cell midpoints of a uniform
// grid (composite Simpson) and answers queries by integrating Simpson's
// quadratic through each cell's three samples, so every query agrees with
// the tabulated integral at the knots.

#ifndef VOD_NUMERICS_ANTIDERIVATIVE_H_
#define VOD_NUMERICS_ANTIDERIVATIVE_H_

#include <functional>
#include <vector>

namespace vod {

/// \brief Antiderivative A(x) = ∫_lo^x f(t) dt for x in [lo, hi].
///
/// The table holds f at the 2·cells + 1 points lo + i·h/2 (h the cell
/// width: knots at even i, midpoints at odd i) and A at the knots. Within a
/// cell f is Simpson's quadratic through its three samples, so A is a
/// piecewise cubic, exact for quadratic f. Outside [lo, hi] f counts as 0.
class TabulatedAntiderivative {
 public:
  /// Builds the table from f sampled at the 2·cells + 1 points
  /// lo + i·(hi − lo)/(2·cells), which needs an odd number (>= 3) of finite
  /// samples.
  TabulatedAntiderivative(std::vector<double> samples, double lo, double hi);

  /// Samples f at those points for `cells` >= 1 cells.
  TabulatedAntiderivative(const std::function<double(double)>& f, double lo,
                          double hi, int cells = 4096);

  /// A(x), clamped to the table range (A(lo) = 0 below, A(hi) above).
  double operator()(double x) const;

  /// ∫_x^{x+width} f for width >= 0, summed from cell-local pieces: the
  /// result keeps its relative precision for widths far below the cell
  /// size, even where A(x) itself is large.
  double Integral(double x, double width) const;

  double lower() const { return lo_; }
  double upper() const { return hi_; }

  /// A(hi): the full integral over the table range.
  double total() const { return integral_.back(); }

  /// f at the sample points, and the i-th point lo + i·h/2: a second table
  /// can be derived from this one's samples without evaluating f again.
  const std::vector<double>& samples() const { return samples_; }
  double SamplePoint(size_t i) const { return lo_ + i * (0.5 * step_); }

 private:
  /// A at the knots by composite Simpson over samples_.
  void Integrate();

  /// ∫ of cell `cell`'s quadratic over [t, t + length], in cell units
  /// (0 <= t, t + length <= 1); multiply by the cell width.
  double CellIntegral(size_t cell, double t, double length) const;

  double lo_;
  double hi_;
  double step_;
  std::vector<double> samples_;   // f at knots (even) and midpoints (odd)
  std::vector<double> integral_;  // A at the knots
};

}  // namespace vod

#endif  // VOD_NUMERICS_ANTIDERIVATIVE_H_
