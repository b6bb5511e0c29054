// Constrained (B, n) re-allocation against live rate estimates.
//
// The paper sizes each movie statically; the controller re-solves the same
// shaped problem online. Objective: minimize the expected admission wait
//
//   J = sum_i lambda_i * E[wait_i],
//   E[wait_i] = (l_i - B_i)^2 / (2 * n_i * l_i)
//
// (an arriving viewer enrolls immediately with probability W_i/T_i = B_i/l_i
// and otherwise waits the residual of the uncovered gap), subject to
// sum n_i <= N (stream budget) and sum B_i <= B_total (buffer budget).
//
// Solved in two nested stages reusing the numerics layer:
//   * outer: GridMinimize over the stream "water level" mu — the continuous
//     relaxation gives n_i(mu) = sqrt(lambda_i * l_i / (2 mu)) (square-root
//     allocation), rounded and repaired to the integer budget by greedy
//     one-stream moves; a level whose rounded start, or whose repaired
//     counts, repeat the previous level's reuses its value;
//   * inner: for fixed streams, the buffer split is a convex water-fill —
//     marginals lambda_i (l_i - B_i)/(n_i l_i) equalize at a level nu found
//     with MonotoneThreshold (root_finding).
//
// The repair pops moves from a heap in (delta, movie) order, delta being
// the move's change in lambda l / (2n). Along one movie's own moves delta
// never decreases: in doubles 1/(n-1) - 1/n is exact (Sterbenz), its values
// fall strictly with n while n^2 < 2^52, and scaling by lambda l / 2 keeps
// their order. So with every max_streams at most 2^20 the moves below a
// threshold tau are the heap's next pops: a threshold step counts them per
// movie in closed form, applies them at once, and leaves the heap the few
// moves left. A repair costs O(k) per threshold probe (one or two), O(k)
// to build the heap and O(log k) per move the heap makes.
//
// Fully deterministic: no RNG, stable tie-breaks by movie index, buffer
// quantized so float dust cannot flip a plan comparison.

#ifndef VOD_CTRL_PLANNER_H_
#define VOD_CTRL_PLANNER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/partition_layout.h"

namespace vod {

/// Largest per-movie stream cap SolvePlan accepts (see the header comment).
inline constexpr int kPlannerMaxStreams = 1 << 20;

/// One movie's planning inputs.
struct PlannerMovie {
  double movie_length = 120.0;  ///< l_i, minutes
  double rate = 0.5;            ///< lambda_i estimate, arrivals/minute
  int min_streams = 1;
  int max_streams = kPlannerMaxStreams;
  /// Largest buffered fraction of the movie (B_i <= fraction * l_i).
  double max_buffer_fraction = 0.9;
};

/// Outer water-level grid resolution (log-spaced samples).
inline constexpr int kPlannerMuGridPoints = 48;
/// Buffer quantum in minutes; plans snap to it (hysteresis support).
inline constexpr double kPlannerBufferQuantumMinutes = 0.25;

/// One movie's allocation in a plan.
struct MoviePlanEntry {
  int streams = 1;
  double buffer_minutes = 0.0;
  /// Marginal value of one more buffered minute at this allocation
  /// (lambda_i (l_i - B_i) / (n_i l_i)); drives priority classes.
  double marginal_value = 0.0;
};

/// A committed or candidate allocation across the catalog.
struct BufferPlan {
  int64_t epoch = 0;
  std::vector<MoviePlanEntry> movies;
  /// The rate vector the plan was solved for (hysteresis reference).
  std::vector<double> solved_rates;
  double objective = 0.0;  ///< J at the returned allocation

  /// True when stream counts and quantized buffers match entry-for-entry.
  bool SameAllocation(const BufferPlan& other) const;
};

/// \brief Solves the constrained allocation. Requires sum min_streams <= N
/// and non-negative budgets; every rate must be positive and finite, and
/// every max_streams at most kPlannerMaxStreams.
Result<BufferPlan> SolvePlan(const std::vector<PlannerMovie>& movies,
                             int64_t stream_budget, double buffer_budget);

/// Builds the PartitionLayout for one plan entry (clamping B into [0, l]).
Result<PartitionLayout> LayoutForEntry(double movie_length,
                                       const MoviePlanEntry& entry);

}  // namespace vod

#endif  // VOD_CTRL_PLANNER_H_
