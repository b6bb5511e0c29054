#include "dist/special_functions.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace vod {

double LogGamma(double x) {
  VOD_CHECK_MSG(x > 0.0, "LogGamma requires x > 0");
  // Lanczos approximation, g = 7, n = 9 coefficients.
  static const double kCoefficients[] = {
      0.99999999999980993,  676.5203681218851,   -1259.1392167224028,
      771.32342877765313,   -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};
  if (x < 0.5) {
    // Reflection formula to keep the approximation in its accurate range.
    return std::log(M_PI / std::sin(M_PI * x)) - LogGamma(1.0 - x);
  }
  const double z = x - 1.0;
  double sum = kCoefficients[0];
  for (int i = 1; i < 9; ++i) sum += kCoefficients[i] / (z + i);
  const double t = z + 7.5;
  return 0.5 * std::log(2.0 * M_PI) + (z + 0.5) * std::log(t) - t +
         std::log(sum);
}

namespace {

// Series expansion of P(a, x), convergent and efficient for x < a + 1.
double GammaPSeries(double a, double x, double log_gamma_a) {
  const double log_prefix = a * std::log(x) - x - log_gamma_a;
  double term = 1.0 / a;
  double sum = term;
  double denom = a;
  for (int i = 0; i < 500; ++i) {
    denom += 1.0;
    term *= x / denom;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * 1e-16) break;
  }
  return sum * std::exp(log_prefix);
}

// Lentz continued fraction for Q(a, x), convergent for x >= a + 1.
double GammaQContinuedFraction(double a, double x, double log_gamma_a) {
  const double log_prefix = a * std::log(x) - x - log_gamma_a;
  const double tiny = std::numeric_limits<double>::min() / 1e-10;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::fabs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-16) break;
  }
  return h * std::exp(log_prefix);
}

}  // namespace

double RegularizedGammaP(double a, double x) {
  VOD_CHECK_MSG(a > 0.0 && x >= 0.0, "RegularizedGammaP domain");
  return RegularizedGammaP(a, x, LogGamma(a));
}

double RegularizedGammaP(double a, double x, double log_gamma_a) {
  VOD_CHECK_MSG(a > 0.0 && x >= 0.0, "RegularizedGammaP domain");
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return GammaPSeries(a, x, log_gamma_a);
  return 1.0 - GammaQContinuedFraction(a, x, log_gamma_a);
}

double RegularizedGammaQ(double a, double x) {
  VOD_CHECK_MSG(a > 0.0 && x >= 0.0, "RegularizedGammaQ domain");
  if (x == 0.0) return 1.0;
  const double log_gamma_a = LogGamma(a);
  if (x < a + 1.0) return 1.0 - GammaPSeries(a, x, log_gamma_a);
  return GammaQContinuedFraction(a, x, log_gamma_a);
}

double StandardNormalCdf(double x) {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double StandardNormalQuantile(double p) {
  VOD_CHECK_MSG(p > 0.0 && p < 1.0, "StandardNormalQuantile domain");
  // Acklam's rational approximation.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
          c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Newton polish step: x -= (Phi(x) - p) / phi(x).
  const double e = StandardNormalCdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(0.5 * x * x);
  return x - u;
}

}  // namespace vod
