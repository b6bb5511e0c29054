#include "ctrl/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "numerics/optimize.h"
#include "numerics/root_finding.h"

namespace vod {

bool BufferPlan::SameAllocation(const BufferPlan& other) const {
  if (movies.size() != other.movies.size()) return false;
  for (size_t i = 0; i < movies.size(); ++i) {
    if (movies[i].streams != other.movies[i].streams) return false;
    // Buffers are quantized to an exact multiple of the quantum, so exact
    // comparison is well-defined.
    if (movies[i].buffer_minutes != other.movies[i].buffer_minutes) {
      return false;
    }
  }
  return true;
}

namespace {

// Snaps a buffer down to the quantum grid; never rounds up, so a feasible
// water-fill stays within the budget after quantization.
double Quantize(double buffer) {
  return std::floor(buffer / kPlannerBufferQuantumMinutes + 1e-9) *
         kPlannerBufferQuantumMinutes;
}

// Expected admission-wait contribution of one movie:
// lambda * (l - B)^2 / (2 n l).
double MovieObjective(const PlannerMovie& m, int streams, double buffer) {
  const double gap = m.movie_length - buffer;
  return m.rate * gap * gap / (2.0 * streams * m.movie_length);
}

struct InnerSolution {
  std::vector<double> buffers;
  double objective = 0.0;
};

// Buffer water-fill for fixed stream counts. The KKT condition equalizes
// marginals lambda_i (l_i - B_i) / (n_i l_i) = nu wherever 0 < B_i < cap_i,
// giving B_i(nu) = clamp(l_i (1 - nu n_i / lambda_i), 0, cap_i); the sum is
// non-increasing in nu, so the binding nu is a monotone threshold.
InnerSolution SolveBuffers(const std::vector<PlannerMovie>& movies,
                           const std::vector<int>& streams,
                           double buffer_budget) {
  const size_t k = movies.size();
  auto buffers_at = [&](double nu) {
    std::vector<double> b(k);
    for (size_t i = 0; i < k; ++i) {
      const double cap = movies[i].max_buffer_fraction * movies[i].movie_length;
      const double raw =
          movies[i].movie_length * (1.0 - nu * streams[i] / movies[i].rate);
      b[i] = std::clamp(raw, 0.0, cap);
    }
    return b;
  };
  auto total = [&](double nu) {
    double sum = 0.0;
    for (double b : buffers_at(nu)) sum += b;
    return sum;
  };

  double nu_hi = 0.0;
  for (size_t i = 0; i < k; ++i) {
    nu_hi = std::max(nu_hi, movies[i].rate / streams[i]);
  }
  double nu = 0.0;
  if (total(0.0) > buffer_budget) {
    auto fits = [&](double v) { return total(v) <= buffer_budget; };
    auto found = MonotoneThreshold(fits, 0.0, nu_hi, 1e-10);
    // total(nu_hi) == 0 <= budget, so the threshold always exists.
    nu = found.ok() ? *found : nu_hi;
  }

  InnerSolution sol;
  sol.buffers = buffers_at(nu);
  for (size_t i = 0; i < k; ++i) {
    sol.buffers[i] = Quantize(sol.buffers[i]);
    sol.objective += MovieObjective(movies[i], streams[i], sol.buffers[i]);
  }
  return sol;
}

// Marginal change in the unbuffered objective lambda l / (2n) when moving
// from `from` to `to` streams; used to repair rounded counts to the budget.
double StreamDelta(const PlannerMovie& m, int from, int to) {
  return m.rate * m.movie_length / 2.0 * (1.0 / to - 1.0 / from);
}

// Square-root allocation at water level mu, rounded and clamped to each
// movie's stream bounds. Non-increasing in mu, movie by movie.
std::vector<int> RoundedStreams(const std::vector<PlannerMovie>& movies,
                                double mu) {
  std::vector<int> n(movies.size());
  for (size_t i = 0; i < movies.size(); ++i) {
    const double ideal =
        std::sqrt(movies[i].rate * movies[i].movie_length / (2.0 * mu));
    // Clamp in double before rounding: an ideal past INT_MAX (a huge
    // lambda l at a low level) would wrap the int conversion. fmax maps a
    // NaN ideal to the minimum, as the wrapped conversion did.
    n[i] = static_cast<int>(std::lround(
        std::fmin(std::fmax(ideal, movies[i].min_streams),
                  movies[i].max_streams)));
  }
  return n;
}

// Repairs rounded counts to sum exactly min(budget, sum max_streams) with
// greedy one-stream moves: while over budget, give back the stream whose
// loss is smallest; while under, take the stream whose gain is largest.
// Both are "pop the smallest StreamDelta of the move", lowest index on
// ties, so one min-heap of (delta, movie) per phase yields each move in
// O(log k). Only the moved movie's delta changes, so it alone is re-keyed.
void RepairToBudget(const std::vector<PlannerMovie>& movies, int64_t budget,
                    std::vector<int>* streams) {
  std::vector<int>& n = *streams;
  int64_t sum = 0;
  for (int s : n) sum += s;
  if (sum == budget) return;
  const int step = sum > budget ? -1 : 1;
  // Give back only while the smallest loss is finite; take only while the
  // largest gain is positive (every movie saturated: leave slack unused).
  const double stop = step < 0 ? std::numeric_limits<double>::infinity() : 0.0;
  auto movable = [&](size_t i) {
    return step < 0 ? n[i] > movies[i].min_streams
                    : n[i] < movies[i].max_streams;
  };
  struct Move {
    double delta;
    size_t movie;
  };
  // std heaps keep the greatest element on top; invert for a min-heap.
  auto after = [](const Move& a, const Move& b) {
    return a.delta > b.delta || (a.delta == b.delta && a.movie > b.movie);
  };
  std::vector<Move> heap;
  for (size_t i = 0; i < n.size(); ++i) {
    if (movable(i)) {
      heap.push_back({StreamDelta(movies[i], n[i], n[i] + step), i});
    }
  }
  std::make_heap(heap.begin(), heap.end(), after);
  while (sum != budget && !heap.empty() && heap.front().delta < stop) {
    std::pop_heap(heap.begin(), heap.end(), after);
    const size_t i = heap.back().movie;
    n[i] += step;
    sum += step;
    if (movable(i)) {
      heap.back().delta = StreamDelta(movies[i], n[i], n[i] + step);
      std::push_heap(heap.begin(), heap.end(), after);
    } else {
      heap.pop_back();
    }
  }
}

}  // namespace

Result<BufferPlan> SolvePlan(const std::vector<PlannerMovie>& movies,
                             int64_t stream_budget, double buffer_budget) {
  if (movies.empty()) {
    return Status::InvalidArgument("planner needs at least one movie");
  }
  if (!(buffer_budget >= 0.0) || !std::isfinite(buffer_budget)) {
    return Status::InvalidArgument(
        "planner buffer_budget must be finite and non-negative");
  }
  int64_t min_sum = 0;
  double scale_lo = std::numeric_limits<double>::infinity();
  double scale_hi = 0.0;
  for (size_t i = 0; i < movies.size(); ++i) {
    const PlannerMovie& m = movies[i];
    if (!(m.movie_length > 0.0) || !std::isfinite(m.movie_length) ||
        !(m.rate > 0.0) || !std::isfinite(m.rate)) {
      return Status::InvalidArgument(
          "planner movie lengths and rates must be finite and positive");
    }
    if (m.min_streams < 1 || m.max_streams < m.min_streams) {
      return Status::InvalidArgument(
          "planner stream bounds must satisfy 1 <= min <= max");
    }
    // lambda l sets the stream scale and every repair marginal.
    if (!std::isfinite(m.rate * m.movie_length)) {
      return Status::InvalidArgument(
          "planner movie rate * length must be finite");
    }
    if (!(m.max_buffer_fraction >= 0.0) || !(m.max_buffer_fraction <= 1.0)) {
      return Status::InvalidArgument(
          "planner max_buffer_fraction must lie in [0, 1]");
    }
    min_sum += m.min_streams;
    scale_lo = std::min(scale_lo, m.rate * m.movie_length);
    scale_hi = std::max(scale_hi, m.rate * m.movie_length);
  }
  if (min_sum > stream_budget) {
    return Status::Infeasible(
        "stream budget cannot cover per-movie minimums");
  }

  // Outer search over the stream water level. mu = lambda l / (2 n^2) maps
  // n across [1, budget], so this log range covers every useful level.
  const double mu_lo =
      scale_lo / (2.0 * static_cast<double>(stream_budget) *
                  static_cast<double>(stream_budget));
  const double mu_hi = 2.0 * scale_hi;
  // The objective at a level depends only on its rounded start, and starts
  // are monotone in mu while the grid walks mu upward, so a repeated start
  // is always the previous one: reuse its objective instead of re-solving.
  std::vector<int> last_start;
  double last_objective = 0.0;
  auto eval = [&](double log_mu) {
    std::vector<int> n = RoundedStreams(movies, std::exp(log_mu));
    if (n == last_start) return last_objective;
    last_start = n;
    RepairToBudget(movies, stream_budget, &n);
    last_objective = SolveBuffers(movies, n, buffer_budget).objective;
    return last_objective;
  };
  const Minimum best = GridMinimize(eval, std::log(mu_lo), std::log(mu_hi),
                                    kPlannerMuGridPoints);

  std::vector<int> n = RoundedStreams(movies, std::exp(best.x));
  RepairToBudget(movies, stream_budget, &n);
  const InnerSolution inner = SolveBuffers(movies, n, buffer_budget);

  BufferPlan plan;
  plan.movies.resize(movies.size());
  plan.solved_rates.resize(movies.size());
  plan.objective = inner.objective;
  for (size_t i = 0; i < movies.size(); ++i) {
    MoviePlanEntry& e = plan.movies[i];
    e.streams = n[i];
    e.buffer_minutes = inner.buffers[i];
    e.marginal_value = movies[i].rate *
                       (movies[i].movie_length - e.buffer_minutes) /
                       (n[i] * movies[i].movie_length);
    plan.solved_rates[i] = movies[i].rate;
  }
  return plan;
}

Result<PartitionLayout> LayoutForEntry(double movie_length,
                                       const MoviePlanEntry& entry) {
  const double buffer =
      std::clamp(entry.buffer_minutes, 0.0, movie_length);
  return PartitionLayout::FromBuffer(movie_length, entry.streams, buffer);
}

}  // namespace vod
