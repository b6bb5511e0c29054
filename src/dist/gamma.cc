#include "dist/gamma.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "dist/special_functions.h"

namespace vod {

GammaDistribution::GammaDistribution(double shape, double scale)
    : shape_(shape), scale_(scale) {
  VOD_CHECK_MSG(shape > 0.0 && scale > 0.0,
                "gamma shape and scale must be positive");
  log_gamma_shape_ = LogGamma(shape_);
  log_norm_ = -log_gamma_shape_ - shape_ * std::log(scale_);
}

double GammaDistribution::Pdf(double x) const {
  if (x < 0.0) return 0.0;
  if (x == 0.0) {
    if (shape_ > 1.0) return 0.0;
    if (shape_ == 1.0) return 1.0 / scale_;
    return std::numeric_limits<double>::infinity();
  }
  return std::exp(log_norm_ + (shape_ - 1.0) * std::log(x) - x / scale_);
}

double GammaDistribution::Cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return RegularizedGammaP(shape_, x / scale_, log_gamma_shape_);
}

double GammaDistribution::Sample(Rng* rng) const {
  return rng->Gamma(shape_, scale_);
}

double GammaDistribution::SupportUpper() const {
  return std::numeric_limits<double>::infinity();
}

std::string GammaDistribution::ToString() const {
  std::ostringstream os;
  os << "gamma(" << shape_ << ", " << scale_ << ")";
  return os.str();
}

std::unique_ptr<Distribution> GammaDistribution::Clone() const {
  return std::make_unique<GammaDistribution>(shape_, scale_);
}

}  // namespace vod
