#include "numerics/antiderivative.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace vod {

TabulatedAntiderivative::TabulatedAntiderivative(std::vector<double> samples,
                                                 double lo, double hi)
    : lo_(lo), hi_(hi), samples_(std::move(samples)) {
  VOD_CHECK_MSG(hi > lo && samples_.size() >= 3 && samples_.size() % 2 == 1,
                "need hi > lo and an odd number (>= 3) of samples");
  Integrate();
}

TabulatedAntiderivative::TabulatedAntiderivative(
    const std::function<double(double)>& f, double lo, double hi, int cells)
    : lo_(lo), hi_(hi) {
  VOD_CHECK_MSG(cells >= 1 && hi > lo, "need hi > lo and cells >= 1");
  step_ = (hi - lo) / cells;
  samples_.resize(2 * static_cast<size_t>(cells) + 1);
  for (size_t i = 0; i < samples_.size(); ++i) samples_[i] = f(SamplePoint(i));
  Integrate();
}

void TabulatedAntiderivative::Integrate() {
  const size_t cells = samples_.size() / 2;
  step_ = (hi_ - lo_) / static_cast<double>(cells);
  integral_.resize(cells + 1);
  integral_[0] = 0.0;
  for (size_t i = 0; i < cells; ++i) {
    // Simpson on the cell.
    integral_[i + 1] =
        integral_[i] + step_ / 6.0 *
                           (samples_[2 * i] + 4.0 * samples_[2 * i + 1] +
                            samples_[2 * i + 2]);
  }
}

double TabulatedAntiderivative::CellIntegral(size_t cell, double t,
                                             double length) const {
  const double f0 = samples_[2 * cell];
  const double fm = samples_[2 * cell + 1];
  const double f1 = samples_[2 * cell + 2];
  // q(τ) = f0 + b·τ + c·τ² through (0, f0), (1/2, fm), (1, f1); integrate
  // its Taylor expansion at t so that a short length keeps its precision.
  const double b = 4.0 * fm - 3.0 * f0 - f1;
  const double c = 2.0 * (f0 + f1 - 2.0 * fm);
  const double q = f0 + t * (b + t * c);
  const double slope = b + 2.0 * c * t;
  return length * (q + length * (0.5 * slope + length * c / 3.0));
}

double TabulatedAntiderivative::operator()(double x) const {
  if (x <= lo_) return 0.0;
  const size_t cells = integral_.size() - 1;
  const double offset = (x - lo_) / step_;
  if (!(offset < static_cast<double>(cells))) return integral_.back();
  const auto cell = static_cast<size_t>(offset);
  return integral_[cell] +
         step_ * CellIntegral(cell, 0.0, offset - static_cast<double>(cell));
}

double TabulatedAntiderivative::Integral(double x, double width) const {
  if (x < lo_) {
    width -= lo_ - x;
    x = lo_;
  }
  const size_t cells = integral_.size() - 1;
  const double offset = (x - lo_) / step_;
  if (!(width > 0.0) || !(offset < static_cast<double>(cells))) return 0.0;
  const auto cell = static_cast<size_t>(offset);
  const double t = offset - static_cast<double>(cell);
  // Lengths stay in cell units and are never formed as differences of
  // absolute positions, which would round away a narrow width.
  double span = width / step_;
  const double head = std::min(span, 1.0 - t);
  double local = CellIntegral(cell, t, head);
  span -= head;
  if (span <= 0.0) return step_ * local;
  // Whole cells from the knot after `cell`, then part of the next one.
  const size_t from = cell + 1;
  const size_t room = cells - from;
  const size_t whole = span >= static_cast<double>(room)
                           ? room
                           : static_cast<size_t>(span);
  const size_t last = from + whole;
  if (last < cells) {
    local += CellIntegral(last, 0.0,
                          std::min(span - static_cast<double>(whole), 1.0));
  }
  return step_ * local + (integral_[last] - integral_[from]);
}

}  // namespace vod
