#include "dist/distribution.h"

#include <cctype>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/parse.h"
#include "dist/deterministic.h"
#include "dist/exponential.h"
#include "dist/gamma.h"
#include "dist/lognormal.h"
#include "dist/pareto.h"
#include "dist/uniform.h"
#include "dist/weibull.h"

namespace vod {

double Distribution::Quantile(double p) const {
  VOD_CHECK_MSG(p > 0.0 && p < 1.0, "Quantile requires p in (0, 1)");
  // Establish a finite bracket [lo, hi] with Cdf(lo) < p <= Cdf(hi).
  double lo = SupportLower();
  double hi = SupportUpper();
  if (!std::isfinite(lo)) {
    lo = -1.0;
    while (Cdf(lo) >= p) lo *= 2.0;
  }
  if (!std::isfinite(hi)) {
    hi = 1.0;
    while (Cdf(hi) < p) hi *= 2.0;
  }
  for (int iter = 0; iter < 200 && hi - lo > 1e-12 * (1.0 + std::fabs(hi));
       ++iter) {
    const double m = 0.5 * (lo + hi);
    if (Cdf(m) >= p) {
      hi = m;
    } else {
      lo = m;
    }
  }
  return hi;
}

namespace {

// Splits "name(a, b, ...)" into a lowercase name and numeric args.
Status SplitSpec(const std::string& spec, std::string* name,
                 std::vector<double>* args) {
  std::string compact;
  for (char ch : spec) {
    if (!std::isspace(static_cast<unsigned char>(ch))) {
      compact += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    }
  }
  const size_t open = compact.find('(');
  if (open == std::string::npos || compact.back() != ')') {
    return Status::InvalidArgument("distribution spec must look like "
                                   "'name(arg, ...)': " + spec);
  }
  *name = compact.substr(0, open);
  const std::string body = compact.substr(open + 1, compact.size() - open - 2);
  if (body.empty()) return Status::OK();
  const std::vector<std::string> tokens = SplitFields(body, ',');
  for (size_t i = 0; i < tokens.size(); ++i) {
    VOD_ASSIGN_OR_RETURN(
        const double v,
        ParseNamed("argument " + std::to_string(i + 1) + " of spec '" +
                       spec + "'",
                   ParseDouble, tokens[i]));
    args->push_back(v);
  }
  return Status::OK();
}

Status RequireArgs(const std::string& name, const std::vector<double>& args,
                   size_t expected) {
  if (args.size() != expected) {
    return Status::InvalidArgument(
        name + " expects " + std::to_string(expected) + " argument(s), got " +
        std::to_string(args.size()));
  }
  return Status::OK();
}

}  // namespace

Result<DistributionPtr> ParseDistributionSpec(const std::string& spec) {
  std::string name;
  std::vector<double> args;
  VOD_RETURN_IF_ERROR(SplitSpec(spec, &name, &args));

  if (name == "exp" || name == "exponential") {
    VOD_RETURN_IF_ERROR(RequireArgs(name, args, 1));
    if (args[0] <= 0) {
      return Status::InvalidArgument("exponential mean must be positive");
    }
    return DistributionPtr(
        std::make_shared<ExponentialDistribution>(args[0]));
  }
  if (name == "gamma") {
    VOD_RETURN_IF_ERROR(RequireArgs(name, args, 2));
    if (args[0] <= 0 || args[1] <= 0) {
      return Status::InvalidArgument("gamma shape/scale must be positive");
    }
    return DistributionPtr(
        std::make_shared<GammaDistribution>(args[0], args[1]));
  }
  if (name == "uniform") {
    VOD_RETURN_IF_ERROR(RequireArgs(name, args, 2));
    if (args[0] >= args[1]) {
      return Status::InvalidArgument("uniform requires lo < hi");
    }
    return DistributionPtr(
        std::make_shared<UniformDistribution>(args[0], args[1]));
  }
  if (name == "det" || name == "deterministic") {
    VOD_RETURN_IF_ERROR(RequireArgs(name, args, 1));
    return DistributionPtr(
        std::make_shared<DeterministicDistribution>(args[0]));
  }
  if (name == "weibull") {
    VOD_RETURN_IF_ERROR(RequireArgs(name, args, 2));
    if (args[0] <= 0 || args[1] <= 0) {
      return Status::InvalidArgument("weibull shape/scale must be positive");
    }
    return DistributionPtr(
        std::make_shared<WeibullDistribution>(args[0], args[1]));
  }
  if (name == "lomax" || name == "pareto2") {
    VOD_RETURN_IF_ERROR(RequireArgs(name, args, 2));
    if (args[0] <= 0 || args[1] <= 0) {
      return Status::InvalidArgument("lomax shape/scale must be positive");
    }
    return DistributionPtr(
        std::make_shared<LomaxDistribution>(args[0], args[1]));
  }
  if (name == "lognormal") {
    VOD_RETURN_IF_ERROR(RequireArgs(name, args, 2));
    if (args[1] <= 0) {
      return Status::InvalidArgument("lognormal sigma must be positive");
    }
    return DistributionPtr(
        std::make_shared<LognormalDistribution>(args[0], args[1]));
  }
  return Status::InvalidArgument("unknown distribution '" + name + "'");
}

}  // namespace vod
