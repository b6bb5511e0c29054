#include "core/sizing.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <optional>

#include "common/check.h"

namespace vod {

Status MovieSizingSpec::Validate() const {
  if (!(length_minutes > 0.0)) {
    return Status::InvalidArgument("movie length must be positive");
  }
  if (!(max_wait_minutes > 0.0)) {
    return Status::InvalidArgument("max wait must be positive");
  }
  if (max_wait_minutes > length_minutes) {
    return Status::InvalidArgument("max wait cannot exceed the movie length");
  }
  if (length_minutes / max_wait_minutes > std::numeric_limits<int>::max()) {
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%g",
                  length_minutes / max_wait_minutes);
    return Status::InvalidArgument(std::string("l / w = ") + ratio +
                                   " streams does not fit in an int");
  }
  if (min_hit_probability < 0.0 || min_hit_probability > 1.0) {
    return Status::InvalidArgument("P* must lie in [0, 1]");
  }
  VOD_RETURN_IF_ERROR(mix.Validate());
  VOD_RETURN_IF_ERROR(rates.Validate());
  for (VcrOp op : kAllVcrOps) {
    if (mix.Probability(op) > 0.0 && durations.ForOp(op) == nullptr) {
      return Status::InvalidArgument(
          std::string("mix assigns probability to ") + VcrOpName(op) +
          " but no duration distribution was provided");
    }
  }
  return Status::OK();
}

namespace {

// Duration tables compiled once per movie, reused across the n sweep.
struct CompiledSpecDurations {
  std::optional<CompiledDuration> per_op[3];
};

Result<CompiledSpecDurations> CompileSpecDurations(
    const MovieSizingSpec& spec, const AnalyticHitModel::Options& options) {
  const DistributionPtr dists[] = {spec.durations.fast_forward,
                                   spec.durations.rewind,
                                   spec.durations.pause};
  CompiledSpecDurations out;
  for (VcrOp op : kAllVcrOps) {
    if (spec.mix.Probability(op) <= 0.0) continue;
    const int i = static_cast<int>(op);
    // Ops drawing from one distribution object share its tables (copies of
    // a CompiledDuration share them), so VcrDurations::AllSame compiles once.
    for (int j = 0; j < i && !out.per_op[i].has_value(); ++j) {
      if (out.per_op[j].has_value() && dists[j] == dists[i]) {
        out.per_op[i] = out.per_op[j];
      }
    }
    if (out.per_op[i].has_value()) continue;
    VOD_ASSIGN_OR_RETURN(
        CompiledDuration compiled,
        CompiledDuration::Create(dists[i], spec.length_minutes,
                                 options.position_density));
    out.per_op[i].emplace(std::move(compiled));
  }
  return out;
}

Result<double> MixedHitProbabilityAt(
    const MovieSizingSpec& spec, const CompiledSpecDurations& compiled,
    int streams, const AnalyticHitModel::Options& options) {
  VOD_ASSIGN_OR_RETURN(
      const PartitionLayout layout,
      PartitionLayout::FromMaxWait(spec.length_minutes, streams,
                                   spec.max_wait_minutes));
  VOD_ASSIGN_OR_RETURN(const AnalyticHitModel model,
                       AnalyticHitModel::Create(layout, spec.rates, options));
  double total = 0.0;
  for (VcrOp op : kAllVcrOps) {
    const double p_op = spec.mix.Probability(op);
    if (p_op <= 0.0) continue;
    const auto& maybe = compiled.per_op[static_cast<int>(op)];
    VOD_CHECK(maybe.has_value());
    VOD_ASSIGN_OR_RETURN(const double p_hit,
                         model.HitProbability(op, *maybe));
    total += p_op * p_hit;
  }
  return total;
}

int MaxStreams(const MovieSizingSpec& spec) {
  // Largest n with B = l − n·w >= 0.
  return static_cast<int>(
      std::floor(spec.length_minutes / spec.max_wait_minutes + 1e-9));
}

}  // namespace

Result<std::vector<SizingPoint>> ComputeSizingCurve(
    const MovieSizingSpec& spec, int stream_step,
    const AnalyticHitModel::Options& model_options) {
  VOD_RETURN_IF_ERROR(spec.Validate());
  if (stream_step < 1) {
    return Status::InvalidArgument("stream_step must be >= 1");
  }
  VOD_ASSIGN_OR_RETURN(const CompiledSpecDurations compiled,
                       CompileSpecDurations(spec, model_options));
  std::vector<SizingPoint> points;
  const int n_max = MaxStreams(spec);
  for (int n = 1; n <= n_max; n += stream_step) {
    VOD_ASSIGN_OR_RETURN(
        const double p,
        MixedHitProbabilityAt(spec, compiled, n, model_options));
    SizingPoint point;
    point.streams = n;
    point.buffer_minutes =
        std::max(spec.length_minutes - n * spec.max_wait_minutes, 0.0);
    point.hit_probability = p;
    point.feasible = p >= spec.min_hit_probability;
    points.push_back(point);
  }
  return points;
}

Result<SizingPoint> MinimumBufferChoice(
    const MovieSizingSpec& spec,
    const AnalyticHitModel::Options& model_options) {
  VOD_RETURN_IF_ERROR(spec.Validate());
  VOD_ASSIGN_OR_RETURN(const CompiledSpecDurations compiled,
                       CompileSpecDurations(spec, model_options));
  const int n_max = MaxStreams(spec);

  const auto evaluate = [&](int n) -> Result<SizingPoint> {
    VOD_ASSIGN_OR_RETURN(
        const double p,
        MixedHitProbabilityAt(spec, compiled, n, model_options));
    SizingPoint point;
    point.streams = n;
    point.buffer_minutes =
        std::max(spec.length_minutes - n * spec.max_wait_minutes, 0.0);
    point.hit_probability = p;
    point.feasible = p >= spec.min_hit_probability;
    return point;
  };

  VOD_ASSIGN_OR_RETURN(SizingPoint at_one, evaluate(1));
  if (!at_one.feasible) {
    return Status::Infeasible(
        "P* cannot be met even with a single stream (n = 1); relax P* or w");
  }
  VOD_ASSIGN_OR_RETURN(SizingPoint at_max, evaluate(n_max));
  if (at_max.feasible) return at_max;

  // Binary search the feasibility boundary, assuming P(hit) non-increasing
  // in n (coverage B/l shrinks as streams grow at fixed w).
  int lo = 1;       // feasible
  int hi = n_max;   // infeasible
  SizingPoint best = at_one;
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    VOD_ASSIGN_OR_RETURN(SizingPoint at_mid, evaluate(mid));
    if (at_mid.feasible) {
      lo = mid;
      best = at_mid;
    } else {
      hi = mid;
    }
  }
  // Verification against non-monotonic wobble: nudge upward while the next
  // point happens to be feasible again.
  for (int n = best.streams + 1; n <= std::min(best.streams + 4, n_max);
       ++n) {
    VOD_ASSIGN_OR_RETURN(SizingPoint at_n, evaluate(n));
    if (at_n.feasible) best = at_n;
  }
  return best;
}

Result<AllocationResult> AllocateStreamBudget(
    const std::vector<MovieAllocationBound>& bounds, int stream_budget) {
  if (bounds.empty()) {
    return Status::InvalidArgument("no movies to allocate");
  }
  for (const auto& b : bounds) {
    if (b.max_feasible_streams < 1) {
      return Status::InvalidArgument("movie '" + b.name +
                                     "' has no feasible stream count");
    }
    if (!(b.length_minutes > 0.0) || !(b.max_wait_minutes > 0.0)) {
      return Status::InvalidArgument("movie '" + b.name +
                                     "' has invalid length or wait");
    }
  }
  const int m = static_cast<int>(bounds.size());
  if (stream_budget < m) {
    return Status::Infeasible(
        "stream budget is below one stream per movie (" +
        std::to_string(stream_budget) + " < " + std::to_string(m) + ")");
  }

  // Every movie starts at 1 stream; surplus goes to movies in descending
  // order of w_i (each extra stream saves w_i minutes of buffer).
  std::vector<int> order(bounds.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return bounds[a].max_wait_minutes > bounds[b].max_wait_minutes;
  });

  std::vector<int> streams(bounds.size(), 1);
  int surplus = stream_budget - m;
  for (int idx : order) {
    const int want = bounds[idx].max_feasible_streams - 1;
    const int give = std::min(want, surplus);
    streams[idx] += give;
    surplus -= give;
    if (surplus == 0) break;
  }

  AllocationResult result;
  for (size_t i = 0; i < bounds.size(); ++i) {
    AllocationResult::PerMovie pm;
    pm.name = bounds[i].name;
    pm.streams = streams[i];
    pm.buffer_minutes = std::max(
        bounds[i].length_minutes - streams[i] * bounds[i].max_wait_minutes,
        0.0);
    result.total_streams += pm.streams;
    result.total_buffer_minutes += pm.buffer_minutes;
    result.movies.push_back(std::move(pm));
  }
  return result;
}

Result<AllocationResult> SizeSystem(
    const std::vector<MovieSizingSpec>& movies, int stream_budget,
    double buffer_budget_minutes,
    const AnalyticHitModel::Options& model_options) {
  if (movies.empty()) {
    return Status::InvalidArgument("no movies to size");
  }
  std::vector<MovieAllocationBound> bounds;
  bounds.reserve(movies.size());
  for (const auto& spec : movies) {
    VOD_ASSIGN_OR_RETURN(const SizingPoint choice,
                         MinimumBufferChoice(spec, model_options));
    MovieAllocationBound bound;
    bound.name = spec.name;
    bound.length_minutes = spec.length_minutes;
    bound.max_wait_minutes = spec.max_wait_minutes;
    bound.max_feasible_streams = choice.streams;
    bounds.push_back(std::move(bound));
  }
  VOD_ASSIGN_OR_RETURN(AllocationResult result,
                       AllocateStreamBudget(bounds, stream_budget));
  if (buffer_budget_minutes > 0.0 &&
      result.total_buffer_minutes > buffer_budget_minutes + 1e-9) {
    return Status::Infeasible(
        "minimum total buffer " + std::to_string(result.total_buffer_minutes) +
        " min exceeds the buffer budget " +
        std::to_string(buffer_budget_minutes) + " min");
  }
  return result;
}

int PureBatchingStreams(const std::vector<MovieSizingSpec>& movies) {
  int total = 0;
  for (const auto& spec : movies) {
    total += static_cast<int>(
        std::ceil(spec.length_minutes / spec.max_wait_minutes - 1e-9));
  }
  return total;
}

}  // namespace vod
