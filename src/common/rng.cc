#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace vod {

// NextUint64 and the small samplers built on it are inline in the header
// (hot path); the heavier rejection samplers and the child-stream
// derivation live here.

Rng::Rng(uint64_t seed) : seed_(seed) {
  SplitMix64 mixer(seed);
  for (auto& word : s_) word = mixer.Next();
}

double Rng::Normal() {
  // Polar method: draw until inside the unit disc, return one variate.
  for (;;) {
    const double u = Uniform(-1.0, 1.0);
    const double v = Uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double Rng::Gamma(double shape, double scale) {
  VOD_DCHECK(shape > 0 && scale > 0);
  if (shape < 1.0) {
    // Boost: Gamma(k) = Gamma(k + 1) * U^{1/k}.
    const double u = 1.0 - Uniform01();  // in (0, 1]
    return Gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia & Tsang (2000).
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = Normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = 1.0 - Uniform01();  // in (0, 1]
    if (u < 1.0 - 0.0331 * (x * x) * (x * x)) return scale * d * v;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return scale * d * v;
    }
  }
}

Rng Rng::MakeChild(uint64_t stream_class, uint64_t index) const {
  // Derive a child seed by mixing (seed, class, index) through SplitMix64.
  SplitMix64 mixer(seed_ ^ (stream_class * 0xD2B74407B1CE6E93ULL));
  uint64_t child_seed = mixer.Next() ^ (index * 0xCA5A826395121157ULL);
  SplitMix64 finisher(child_seed);
  return Rng(finisher.Next());
}

}  // namespace vod
