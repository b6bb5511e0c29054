#include "numerics/optimize.h"

#include "common/check.h"

namespace vod {

Minimum GridMinimize(const std::function<double(double)>& f, double a,
                     double b, int points) {
  VOD_CHECK(points >= 2 && a <= b);
  Minimum best{a, f(a)};
  for (int i = 1; i < points; ++i) {
    const double x = a + (b - a) * static_cast<double>(i) / (points - 1);
    const double v = f(x);
    if (v < best.value) best = {x, v};
  }
  return best;
}

}  // namespace vod
