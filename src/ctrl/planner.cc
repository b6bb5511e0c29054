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
  auto buffer_at = [&](size_t i, double nu) {
    const double cap = movies[i].max_buffer_fraction * movies[i].movie_length;
    const double raw =
        movies[i].movie_length * (1.0 - nu * streams[i] / movies[i].rate);
    return std::clamp(raw, 0.0, cap);
  };
  // Summed in place, in movie order: every MonotoneThreshold probe calls it.
  auto total = [&](double nu) {
    double sum = 0.0;
    for (size_t i = 0; i < k; ++i) sum += buffer_at(i, nu);
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
  sol.buffers.resize(k);
  for (size_t i = 0; i < k; ++i) {
    sol.buffers[i] = Quantize(buffer_at(i, nu));
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

// Where one movie's moves that cost less than tau end, starting at `from`
// and stepping by `step` toward `bound`. Its own move costs never decrease
// (planner.h), so those moves are a prefix of its moves, and the end is
// the first move not below tau. Galloping from the guess `relaxed` brackets
// it and bisection settles it, with the StreamDelta of each move tried:
// two calls when the guess is right, O(log |bound - from|) however wrong.
int EndBelow(const PlannerMovie& m, int from, int bound, int step, double tau,
             double relaxed) {
  // Move j goes from from + step * j; `below(j)` holds exactly for j < end.
  auto below = [&](int j) {
    const int x = from + step * j;
    return StreamDelta(m, x, x + step) < tau;
  };
  const int span = std::abs(bound - from);
  // Clamp in double first: the guess is infinite at tau = 0.
  const int lo_n = std::min(from, bound);
  const int hi_n = std::max(from, bound);
  const int guess = !(relaxed > lo_n) ? lo_n
                    : relaxed < hi_n  ? static_cast<int>(relaxed)
                                      : hi_n;
  const int j = step * (guess - from);
  int lo = 0;
  int hi = span;
  if (j < span && below(j)) {
    lo = j + 1;
    int stride = 1;
    while (lo + stride - 1 < span && below(lo + stride - 1)) {
      lo += stride;
      stride *= 2;
    }
    hi = std::min(span, lo + stride - 1);
  } else if (j > 0 && !below(j - 1)) {
    hi = j - 1;
    int stride = 1;
    while (hi - stride >= 0 && !below(hi - stride)) {
      hi -= stride;
      stride *= 2;
    }
    lo = std::max(0, hi - stride + 1);
  } else {
    return guess;
  }
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (below(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return from + step * lo;
}

// Repairs rounded counts to sum exactly min(budget, sum max_streams) with
// greedy one-stream moves: while over budget, give back the stream whose
// loss is smallest; while under, take the stream whose gain is largest.
// Both are "pop the smallest StreamDelta of the move", lowest index on
// ties, so one min-heap of (delta, movie) per phase yields each move in
// O(log k). Only the moved movie's delta changes, so it alone is re-keyed.
//
// The heap pops the phase's moves in global (delta, movie) order, so for a
// threshold tau the moves below it are exactly its next C(tau) pops while
// C(tau) is at most the moves owed and tau at most the stop value. The
// threshold step applies them in one step per movie; the heap then makes
// the few moves left, ties at tau included. `*level` carries the
// threshold's level from one repair to the next (0 before the first).
void RepairToBudget(const std::vector<PlannerMovie>& movies, int64_t budget,
                    double* level, std::vector<int>* streams) {
  std::vector<int>& n = *streams;
  const size_t k = n.size();
  int64_t sum = 0;
  for (int s : n) sum += s;
  if (sum == budget) return;
  const int step = sum > budget ? -1 : 1;
  // Give back only while the smallest loss is finite; take only while the
  // largest gain is positive (every movie saturated: leave slack unused).
  const double stop = step < 0 ? std::numeric_limits<double>::infinity() : 0.0;
  auto bound = [&](size_t i) {
    return step < 0 ? movies[i].min_streams : movies[i].max_streams;
  };

  // Threshold step. The square-root relaxation puts the end of a movie's
  // moves below tau where n(n-1) = lambda l / (2 tau) giving back, and
  // where n(n+1) = lambda l / (2|tau|) taking: both round to
  // sqrt(1/4 + lambda l w^2 / 2) + 1/2 at the level w = |tau|^(-1/2), in
  // which that end is nearly linear. Newton on the exact count of moves
  // below tau(w) (more of them as tau grows) finds tau, bracketed by the
  // last w whose count fit the moves owed and the last that overshot, and
  // keeps the best fit. The first repair starts where every relaxed end
  // sums to the budget; later ones at the last repair's level, since
  // levels that repair to the same counts share it.
  const int64_t owed = step < 0 ? sum - budget : budget - sum;
  const int64_t slack = static_cast<int64_t>(k / 16) + 1;
  if (*level == 0.0) {
    double scale = 0.0;
    for (const PlannerMovie& m : movies) {
      scale += std::sqrt(m.rate * m.movie_length / 2.0);
    }
    *level = static_cast<double>(budget) / scale;
  }
  double w = *level;
  double w_fit = std::numeric_limits<double>::quiet_NaN();
  double w_over = std::numeric_limits<double>::quiet_NaN();
  int64_t best = 0;
  std::vector<int> end(k);
  std::vector<int> best_end;
  for (int probe = 0; probe < 8 && best + slack <= owed; ++probe) {
    const double tau = step < 0 ? 1.0 / (w * w) : -1.0 / (w * w);
    const double half_w2 = 0.5 * w * w;
    int64_t count = 0;
    double interior = 0.0;  // relaxed ends of movies not at a bound
    for (size_t i = 0; i < k; ++i) {
      const PlannerMovie& m = movies[i];
      const double relaxed =
          std::sqrt(0.25 + m.rate * m.movie_length * half_w2) + 0.5;
      end[i] = EndBelow(m, n[i], bound(i), step, tau, relaxed);
      count += step * (end[i] - n[i]);
      if (end[i] != n[i] && end[i] != bound(i)) interior += relaxed;
    }
    if (count <= owed) {
      w_fit = w;
      if (count > best) {
        best = count;
        *level = w;
        best_end.swap(end);
        end.resize(k);
      }
    } else {
      w_over = w;
    }
    // Newton: d(count)/dw is about step * interior / w. Outside the
    // bracket, bisect it geometrically, or double toward the unseen side.
    double next = w * (1.0 + step * static_cast<double>(owed - count) /
                                 interior);
    const bool bracketed = !std::isnan(w_fit) && !std::isnan(w_over);
    if (!(next > (bracketed ? std::min(w_fit, w_over) : 0.0) &&
          next < (bracketed ? std::max(w_fit, w_over)
                            : std::numeric_limits<double>::infinity()))) {
      next = bracketed                        ? std::sqrt(w_fit * w_over)
             : (count <= owed) == (step > 0) ? 2.0 * w
                                              : 0.5 * w;
    }
    w = next;
  }
  if (best > 0) {
    n.swap(best_end);
    sum += step * best;
  }

  struct Move {
    double delta;
    size_t movie;
  };
  // std heaps keep the greatest element on top; invert for a min-heap.
  auto after = [](const Move& a, const Move& b) {
    return a.delta > b.delta || (a.delta == b.delta && a.movie > b.movie);
  };
  auto movable = [&](size_t i) {
    return step < 0 ? n[i] > movies[i].min_streams
                    : n[i] < movies[i].max_streams;
  };
  std::vector<Move> heap;
  for (size_t i = 0; i < k; ++i) {
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
    // Past 2^20 consecutive repair moves may cost the same (planner.h).
    if (m.max_streams > kPlannerMaxStreams) {
      return Status::InvalidArgument(
          "planner max_streams must be at most 2^20 (1048576)");
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
  // Different starts often repair to the same counts, whose buffer split
  // is then the same too: reuse its objective as well.
  std::vector<int> last_start;
  std::vector<int> last_repaired;
  double last_objective = 0.0;
  double level = 0.0;
  auto eval = [&](double log_mu) {
    std::vector<int> n = RoundedStreams(movies, std::exp(log_mu));
    if (n == last_start) return last_objective;
    last_start = n;
    RepairToBudget(movies, stream_budget, &level, &n);
    if (n == last_repaired) return last_objective;
    last_repaired = std::move(n);
    last_objective =
        SolveBuffers(movies, last_repaired, buffer_budget).objective;
    return last_objective;
  };
  const Minimum best = GridMinimize(eval, std::log(mu_lo), std::log(mu_hi),
                                    kPlannerMuGridPoints);

  std::vector<int> n = RoundedStreams(movies, std::exp(best.x));
  RepairToBudget(movies, stream_budget, &level, &n);
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
