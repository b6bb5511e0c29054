// Gamma distribution (shape/scale parameterization).
//
// The paper's Figure 7 draws VCR durations from "a skewed gamma distribution
// with a mean = 8 minutes (α = 2, γ = 4)" — shape 2, scale 4 in our terms.

#ifndef VOD_DIST_GAMMA_H_
#define VOD_DIST_GAMMA_H_

#include "dist/distribution.h"

namespace vod {

/// Gamma(shape k, scale θ) with density x^{k-1} e^{-x/θ} / (Γ(k) θ^k) on
/// [0, ∞). Mean kθ, variance kθ².
class GammaDistribution final : public Distribution {
 public:
  /// Precondition: shape > 0, scale > 0.
  GammaDistribution(double shape, double scale);

  double Pdf(double x) const override;
  double Cdf(double x) const override;
  double Mean() const override { return shape_ * scale_; }
  double Variance() const override { return shape_ * scale_ * scale_; }
  double Sample(Rng* rng) const override;
  double SupportLower() const override { return 0.0; }
  double SupportUpper() const override;
  std::string ToString() const override;
  std::unique_ptr<Distribution> Clone() const override;

  double shape() const { return shape_; }
  double scale() const { return scale_; }

 private:
  double shape_;
  double scale_;
  double log_gamma_shape_;  // ln Γ(shape), reused by every Cdf call
  double log_norm_;         // precomputed log of the density normalizer
};

}  // namespace vod

#endif  // VOD_DIST_GAMMA_H_
