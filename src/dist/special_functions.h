// Special functions backing the distribution CDFs.
//
// Self-contained implementations (Lanczos log-gamma, regularized incomplete
// gamma by series/continued-fraction) so results are bit-stable across
// platforms and directly unit-testable against reference values.

#ifndef VOD_DIST_SPECIAL_FUNCTIONS_H_
#define VOD_DIST_SPECIAL_FUNCTIONS_H_

namespace vod {

/// ln Γ(x) for x > 0 (Lanczos approximation, ~15 significant digits).
double LogGamma(double x);

/// Regularized lower incomplete gamma P(a, x) = γ(a, x) / Γ(a), for a > 0,
/// x >= 0. Uses the series expansion for x < a + 1 and the Lentz continued
/// fraction otherwise. This is the Gamma(a, 1) CDF.
double RegularizedGammaP(double a, double x);

/// P(a, x) with ln Γ(a) supplied by the caller (bit-identical to the
/// two-argument form given log_gamma_a == LogGamma(a)): a distribution with
/// fixed shape computes it once instead of on every CDF call.
double RegularizedGammaP(double a, double x, double log_gamma_a);

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double RegularizedGammaQ(double a, double x);

/// Standard normal CDF Φ(x).
double StandardNormalCdf(double x);

/// Inverse of the standard normal CDF (Acklam's rational approximation
/// polished by one Newton step; max error < 1e-12). Precondition:
/// 0 < p < 1.
double StandardNormalQuantile(double p);

}  // namespace vod

#endif  // VOD_DIST_SPECIAL_FUNCTIONS_H_
