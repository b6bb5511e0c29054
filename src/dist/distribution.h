// Abstract probability distribution interface.
//
// The paper's model is deliberately general: "we assume that the VCR behavior
// has a general distribution and construct a model which is able to handle a
// general probability distribution" (§3.1). Everything the analytic engine
// needs from a duration distribution is Cdf(); the simulator additionally
// needs Sample().

#ifndef VOD_DIST_DISTRIBUTION_H_
#define VOD_DIST_DISTRIBUTION_H_

#include <memory>
#include <string>

#include "common/rng.h"
#include "common/status.h"

namespace vod {

/// \brief A univariate probability distribution on (a subset of) the reals.
///
/// Implementations are immutable and thread-compatible; Sample() mutates only
/// the caller-supplied Rng.
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Probability density at x. For distributions with atoms (Deterministic),
  /// returns 0 away from atoms; use Cdf() for probabilistic statements.
  virtual double Pdf(double x) const = 0;

  /// P(X <= x). Must be non-decreasing with limits 0 and 1.
  virtual double Cdf(double x) const = 0;

  /// E[X]. Infinite means are not used by this library.
  virtual double Mean() const = 0;

  /// Var[X].
  virtual double Variance() const = 0;

  /// Draws one variate using the supplied generator.
  virtual double Sample(Rng* rng) const = 0;

  /// Smallest point of the support (may be -infinity).
  virtual double SupportLower() const = 0;

  /// Largest point of the support (may be +infinity).
  virtual double SupportUpper() const = 0;

  /// Generalized inverse CDF: smallest x with Cdf(x) >= p, p in (0, 1).
  /// The default implementation bisects the CDF; subclasses with closed
  /// forms override.
  virtual double Quantile(double p) const;

  /// Human-readable spec, e.g. "gamma(shape=2, scale=4)". Round-trips
  /// through ParseDistributionSpec for the canonical spellings.
  virtual std::string ToString() const = 0;

  /// Deep copy.
  virtual std::unique_ptr<Distribution> Clone() const = 0;
};

using DistributionPtr = std::shared_ptr<const Distribution>;

/// \brief Parses a textual distribution spec into a distribution.
///
/// Grammar (case-insensitive names, whitespace ignored):
///   exp(mean) | exponential(mean)
///   gamma(shape, scale)
///   uniform(lo, hi)
///   det(value) | deterministic(value)
///   weibull(shape, scale)
///   lognormal(mu, sigma)
/// Each argument is read by ParseDouble (common/parse.h): "nan", "inf" and
/// hex are an InvalidArgument naming the argument and the spec.
/// Used by bench/example binaries to accept e.g. --duration='gamma(2,4)'.
Result<DistributionPtr> ParseDistributionSpec(const std::string& spec);

}  // namespace vod

#endif  // VOD_DIST_DISTRIBUTION_H_
