// Planner oracle wall (ctrl/planner.h).
//
// SolvePlan repairs each grid level's rounded square-root start to the
// stream budget with a threshold step and then heap-ordered greedy moves,
// and reuses the objective of a level whose start, or whose repaired
// counts, repeat the previous level's. All of that is a pure speedup, so
// the plan must equal, bit for bit, the ones from the two planners kept
// below as references:
//   * the straightforward one: one full catalog scan per repair move and a
//     fresh solve at every grid level. Seeded random catalogs of 1–600
//     movies cover exact λ·l ties, min_streams > 1, caps that bind and caps
//     that leave slack, and stream budgets at Σmin, between Σmin and Σmax,
//     and above Σmax;
//   * the heap planner the threshold step replaced: one heap pop per move,
//     a level whose start repeats the previous one reusing its objective.
//     It reaches what the scan cannot: the perf_planner flash catalog at
//     384 and 1536 movies, and caps of 2^20 with budgets near 10^6 streams,
//     in both repair directions and with exact λ·l ties.
// The references read the planner's grid and buffer quantum constants.
// Property checks pin the budget laws, and the malformed-input /
// Infeasible / overflow paths return their statuses.

#include "ctrl/planner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "numerics/optimize.h"
#include "numerics/root_finding.h"

namespace vod {
namespace {

// ---- the reference planners ----------------------------------------------

namespace reference {

double Quantize(double buffer) {
  return std::floor(buffer / kPlannerBufferQuantumMinutes + 1e-9) *
         kPlannerBufferQuantumMinutes;
}

double MovieObjective(const PlannerMovie& m, int streams, double buffer) {
  const double gap = m.movie_length - buffer;
  return m.rate * gap * gap / (2.0 * streams * m.movie_length);
}

struct InnerSolution {
  std::vector<double> buffers;
  double objective = 0.0;
};

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

double StreamDelta(const PlannerMovie& m, int from, int to) {
  return m.rate * m.movie_length / 2.0 * (1.0 / to - 1.0 / from);
}

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

/// One scan of the catalog per move: give back the smallest loss while
/// over budget, take the largest gain while under.
void ScanRepair(const std::vector<PlannerMovie>& movies, int64_t budget,
                std::vector<int>* streams) {
  std::vector<int>& n = *streams;
  const size_t k = movies.size();
  int64_t sum = 0;
  for (int s : n) sum += s;
  while (sum > budget) {
    size_t best = k;
    double best_loss = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < k; ++i) {
      if (n[i] <= movies[i].min_streams) continue;
      const double loss = StreamDelta(movies[i], n[i], n[i] - 1);
      if (loss < best_loss) {
        best_loss = loss;
        best = i;
      }
    }
    if (best == k) break;
    --n[best];
    --sum;
  }
  while (sum < budget) {
    size_t best = k;
    double best_gain = 0.0;
    for (size_t i = 0; i < k; ++i) {
      if (n[i] >= movies[i].max_streams) continue;
      const double gain = -StreamDelta(movies[i], n[i], n[i] + 1);
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == k) break;
    ++n[best];
    ++sum;
  }
}

/// One heap pop per move, (delta, movie) ordered: the same greedy as the
/// scan in O(log k) a move.
void HeapRepair(const std::vector<PlannerMovie>& movies, int64_t budget,
                std::vector<int>* streams) {
  std::vector<int>& n = *streams;
  int64_t sum = 0;
  for (int s : n) sum += s;
  if (sum == budget) return;
  const int step = sum > budget ? -1 : 1;
  const double stop = step < 0 ? std::numeric_limits<double>::infinity() : 0.0;
  auto movable = [&](size_t i) {
    return step < 0 ? n[i] > movies[i].min_streams
                    : n[i] < movies[i].max_streams;
  };
  struct Move {
    double delta;
    size_t movie;
  };
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

enum class Oracle {
  kScan,  ///< ScanRepair, every level solved
  kHeap,  ///< HeapRepair, a repeated start reuses the previous level's value
};

/// SolvePlan for inputs it accepts.
BufferPlan SolvePlan(const std::vector<PlannerMovie>& movies,
                     int64_t stream_budget, double buffer_budget,
                     Oracle oracle) {
  const auto repair = oracle == Oracle::kScan ? ScanRepair : HeapRepair;
  double scale_lo = std::numeric_limits<double>::infinity();
  double scale_hi = 0.0;
  for (const PlannerMovie& m : movies) {
    scale_lo = std::min(scale_lo, m.rate * m.movie_length);
    scale_hi = std::max(scale_hi, m.rate * m.movie_length);
  }
  const double mu_lo =
      scale_lo / (2.0 * static_cast<double>(stream_budget) *
                  static_cast<double>(stream_budget));
  const double mu_hi = 2.0 * scale_hi;
  std::vector<int> last_start;
  double last_objective = 0.0;
  auto eval = [&](double log_mu) {
    std::vector<int> n = RoundedStreams(movies, std::exp(log_mu));
    if (oracle == Oracle::kHeap && n == last_start) return last_objective;
    last_start = n;
    repair(movies, stream_budget, &n);
    last_objective = SolveBuffers(movies, n, buffer_budget).objective;
    return last_objective;
  };
  const Minimum best = GridMinimize(eval, std::log(mu_lo), std::log(mu_hi),
                                    kPlannerMuGridPoints);
  std::vector<int> n = RoundedStreams(movies, std::exp(best.x));
  repair(movies, stream_budget, &n);
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

}  // namespace reference

// ---- seeded catalogs -----------------------------------------------------

enum class Caps {
  kTight,  ///< max_streams within 4 of min: caps bind at most levels
  kLoose,  ///< 8–64 streams of headroom per movie
  k64,     ///< the controller's cap of 64 streams
  kNone,   ///< the 2^20 default: only the budget binds
};

enum class Budget { kAtMin, kBetween, kAboveMax };

struct PlanCase {
  std::vector<PlannerMovie> movies;
  int64_t stream_budget = 0;
  double buffer_budget = 0.0;
  int64_t min_sum = 0;
  int64_t max_sum = 0;
};

PlanCase RandomCase(uint64_t seed, int count, Caps caps, Budget budget) {
  Rng rng(seed);
  PlanCase c;
  // Even seeds draw λ and l from small sets whose products collide exactly
  // (60 × 0.5 == 120 × 0.25), so repair marginals tie across movies.
  const bool shared_products = seed % 2 == 0;
  const double kLengths[] = {60.0, 90.0, 120.0, 180.0};
  const double kRates[] = {0.125, 0.25, 0.5, 0.75, 1.0};
  const double kFractions[] = {0.0, 0.5, 0.9, 1.0};
  double cap_minutes = 0.0;
  for (int i = 0; i < count; ++i) {
    PlannerMovie m;
    if (shared_products) {
      m.movie_length = kLengths[rng.UniformInt(4)];
      m.rate = kRates[rng.UniformInt(5)];
    } else {
      m.movie_length = rng.Uniform(30.0, 180.0);
      m.rate = rng.Uniform(0.01, 2.0);
    }
    if (rng.Bernoulli(0.5)) {
      m.min_streams = 2 + static_cast<int>(rng.UniformInt(4));
    }
    switch (caps) {
      case Caps::kTight:
        m.max_streams = m.min_streams + static_cast<int>(rng.UniformInt(5));
        break;
      case Caps::kLoose:
        m.max_streams =
            m.min_streams + 8 + static_cast<int>(rng.UniformInt(57));
        break;
      case Caps::k64:
        m.max_streams = 64;
        break;
      case Caps::kNone:
        break;
    }
    m.max_buffer_fraction = rng.Bernoulli(0.5) ? kFractions[rng.UniformInt(4)]
                                               : rng.Uniform01();
    c.min_sum += m.min_streams;
    c.max_sum += m.max_streams;
    cap_minutes += m.max_buffer_fraction * m.movie_length;
    c.movies.push_back(m);
  }
  const auto span = static_cast<uint64_t>(c.max_sum - c.min_sum);
  switch (budget) {
    case Budget::kAtMin:
      c.stream_budget = c.min_sum;
      break;
    case Budget::kBetween:
      c.stream_budget =
          c.min_sum + 1 +
          static_cast<int64_t>(rng.UniformInt(
              caps == Caps::kNone ? 8 * static_cast<uint64_t>(count)
                                  : std::max<uint64_t>(span, 2) - 1));
      break;
    case Budget::kAboveMax:
      c.stream_budget = c.max_sum + 1 +
                        static_cast<int64_t>(rng.UniformInt(
                            static_cast<uint64_t>(count)));
      break;
  }
  // No buffer, a binding buffer budget, or room for every cap.
  const double share = rng.Uniform01();
  c.buffer_budget = share < 0.15   ? 0.0
                    : share < 0.85 ? rng.Uniform(0.05, 0.95) * cap_minutes
                                   : 2.0 * cap_minutes + 1.0;
  return c;
}

/// The controller's planning input at a flash-crowd peak: bench/perf_
/// sharded.cc's mixed catalog with every 16th title's rate quadrupled, 64
/// streams per movie at most, and the live streams and buffers as budgets.
PlanCase FlashCrowdCase(int count) {
  struct Template {
    double length;
    int streams;
    double buffer;
  };
  const Template kTemplates[] = {{120.0, 40, 80.0},
                                 {90.0, 30, 45.0},
                                 {100.0, 20, 50.0},
                                 {110.0, 25, 60.0}};
  PlanCase c;
  for (int i = 0; i < count; ++i) {
    const Template& t = kTemplates[(i + i / 4) % 4];
    PlannerMovie m;
    m.movie_length = t.length;
    m.rate = (0.15 + 0.45 * ((i * 7) % 16) / 15.0) * (i % 16 == 0 ? 4.0 : 1.0);
    m.max_streams = 64;
    c.movies.push_back(m);
    c.stream_budget += t.streams;
    c.buffer_budget += t.buffer;
    c.min_sum += m.min_streams;
    c.max_sum += m.max_streams;
  }
  return c;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// Bit-identical plans: streams, buffers, marginals, rates and objective.
void ExpectSamePlan(const BufferPlan& got, const BufferPlan& want) {
  ASSERT_EQ(got.movies.size(), want.movies.size());
  EXPECT_EQ(Bits(got.objective), Bits(want.objective))
      << got.objective << " vs " << want.objective;
  for (size_t i = 0; i < want.movies.size(); ++i) {
    const MoviePlanEntry& g = got.movies[i];
    const MoviePlanEntry& w = want.movies[i];
    ASSERT_EQ(g.streams, w.streams) << "movie " << i;
    ASSERT_EQ(Bits(g.buffer_minutes), Bits(w.buffer_minutes)) << "movie " << i;
    ASSERT_EQ(Bits(g.marginal_value), Bits(w.marginal_value)) << "movie " << i;
    ASSERT_EQ(Bits(got.solved_rates[i]), Bits(want.solved_rates[i]));
  }
}

/// Σn = min(N, Σmax); ΣB within the buffer budget; every B a non-negative
/// multiple of the quantum and at most its cap.
void ExpectBudgetLaws(const PlanCase& c, const BufferPlan& plan) {
  int64_t stream_sum = 0;
  double buffer_sum = 0.0;
  const double q = kPlannerBufferQuantumMinutes;
  for (size_t i = 0; i < plan.movies.size(); ++i) {
    const MoviePlanEntry& e = plan.movies[i];
    const PlannerMovie& m = c.movies[i];
    stream_sum += e.streams;
    buffer_sum += e.buffer_minutes;
    EXPECT_GE(e.streams, m.min_streams) << "movie " << i;
    EXPECT_LE(e.streams, m.max_streams) << "movie " << i;
    EXPECT_GE(e.buffer_minutes, 0.0) << "movie " << i;
    EXPECT_EQ(e.buffer_minutes, std::nearbyint(e.buffer_minutes / q) * q)
        << "movie " << i << " buffer off the quantum grid";
    // Quantize's 1e-9 rounding guard may lift B by at most 1e-9 quanta.
    EXPECT_LE(e.buffer_minutes,
              m.max_buffer_fraction * m.movie_length + 1e-9 * q)
        << "movie " << i;
  }
  EXPECT_EQ(stream_sum, std::min(c.stream_budget, c.max_sum));
  EXPECT_LE(buffer_sum, c.buffer_budget + 1e-6);
}

void CheckCase(const PlanCase& c,
               reference::Oracle oracle = reference::Oracle::kScan) {
  const Result<BufferPlan> got =
      SolvePlan(c.movies, c.stream_budget, c.buffer_budget);
  ASSERT_TRUE(got.ok()) << got.status().message();
  ExpectSamePlan(*got, reference::SolvePlan(c.movies, c.stream_budget,
                                            c.buffer_budget, oracle));
  ExpectBudgetLaws(c, *got);
}

// ---- the walls -----------------------------------------------------------

TEST(PlannerTest, MatchesLinearScanOracleOnRandomCatalogs) {
  // The oracle scans all k movies for every repair move, and a level's
  // moves grow with the headroom between the caps and the budget: keep
  // uncapped catalogs small and loose caps off the 600-movie catalog.
  const int kCappedSizes[] = {1, 2, 3, 7, 16, 41, 120, 600};
  const int kUncappedSizes[] = {1, 2, 5, 13, 40};
  uint64_t seed = 1;
  for (Budget budget : {Budget::kAtMin, Budget::kBetween, Budget::kAboveMax}) {
    for (Caps caps : {Caps::kTight, Caps::kLoose}) {
      for (int count : kCappedSizes) {
        if (caps == Caps::kLoose && count > 120) continue;
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     std::to_string(count) + " movies");
        CheckCase(RandomCase(seed++, count, caps, budget));
      }
    }
    if (budget == Budget::kAboveMax) continue;  // Σmax = k × 2^20
    for (int count : kUncappedSizes) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                   std::to_string(count) + " movies, uncapped");
      CheckCase(RandomCase(seed++, count, Caps::kNone, budget));
    }
  }
}

TEST(PlannerTest, MatchesLinearScanOracleOnManySmallCatalogs) {
  // A stale reused objective moves the plan only on a small share of
  // catalogs, so sweep many cheap ones.
  const Caps kCaps[] = {Caps::kTight, Caps::kLoose};
  const Budget kBudgets[] = {Budget::kAtMin, Budget::kBetween,
                             Budget::kBetween, Budget::kAboveMax};
  for (uint64_t seed = 1000; seed < 1600; ++seed) {
    const int count = 2 + static_cast<int>(seed % 30);
    SCOPED_TRACE("seed " + std::to_string(seed));
    CheckCase(RandomCase(seed, count, kCaps[seed % 2], kBudgets[seed / 2 % 4]));
    if (HasFailure()) return;
  }
}

TEST(PlannerTest, MatchesLinearScanOracleAtFlashCrowdPeak) {
  // Most levels clamp every title at 64 streams or at 1, so starts repeat
  // across whole runs of adjacent levels.
  for (int count : {16, 96}) {
    SCOPED_TRACE(std::to_string(count) + " movies");
    CheckCase(FlashCrowdCase(count));
  }
}

TEST(PlannerTest, MatchesHeapOracleAtScale) {
  // The flash crowd peaks perf_planner times: at the low levels every title
  // starts at its cap of 64 and thousands of streams go back.
  for (int count : {384, 1536}) {
    SCOPED_TRACE(std::to_string(count) + " flash-crowd movies");
    CheckCase(FlashCrowdCase(count), reference::Oracle::kHeap);
  }
  // Caps of 64 over a few hundred movies, budgets between Σmin and Σmax and
  // above Σmax (the take phase saturates); even seeds tie λ·l exactly.
  for (uint64_t seed = 2000; seed < 2004; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed) + ", caps of 64");
    CheckCase(RandomCase(seed, 300, Caps::k64,
                         seed < 2002 ? Budget::kBetween : Budget::kAboveMax),
              reference::Oracle::kHeap);
  }
  // Caps of 2^20 and budgets of 10^5 and 10^6 streams: levels give back
  // and take hundreds of thousands of streams, and the counts reach the
  // cap's range, where consecutive move costs differ least.
  uint64_t seed = 3000;
  for (int count : {2, 5}) {
    for (int64_t budget : {100000, 1000000}) {
      PlanCase c = RandomCase(seed, count, Caps::kNone, Budget::kBetween);
      c.stream_budget = budget;
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                   std::to_string(count) + " movies, budget " +
                   std::to_string(budget));
      ++seed;
      CheckCase(c, reference::Oracle::kHeap);
    }
  }
}

TEST(PlannerTest, RejectsMalformedInputs) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(SolvePlan({}, 4, 10.0).status().IsInvalidArgument());
  for (double budget : {-1.0, inf, nan}) {
    EXPECT_TRUE(
        SolvePlan({PlannerMovie{}}, 4, budget).status().IsInvalidArgument())
        << budget;
  }
  auto rejects = [](PlannerMovie m) {
    return SolvePlan({PlannerMovie{}, m}, 8, 10.0).status().IsInvalidArgument();
  };
  for (double bad : {0.0, -1.0, inf, nan}) {
    PlannerMovie length;
    length.movie_length = bad;
    EXPECT_TRUE(rejects(length)) << "length " << bad;
    PlannerMovie rate;
    rate.rate = bad;
    EXPECT_TRUE(rejects(rate)) << "rate " << bad;
  }
  PlannerMovie no_min;
  no_min.min_streams = 0;
  EXPECT_TRUE(rejects(no_min));
  PlannerMovie inverted;
  inverted.min_streams = 3;
  inverted.max_streams = 2;
  EXPECT_TRUE(rejects(inverted));
  for (double fraction : {-0.1, 1.1, nan}) {
    PlannerMovie m;
    m.max_buffer_fraction = fraction;
    EXPECT_TRUE(rejects(m)) << "fraction " << fraction;
  }
  // Past 2^20 streams consecutive repair moves may cost the same, which
  // the threshold step's exactness rules out.
  PlannerMovie huge_cap;
  huge_cap.max_streams = kPlannerMaxStreams + 1;
  const Status st = SolvePlan({PlannerMovie{}, huge_cap}, 8, 10.0).status();
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("max_streams"), std::string::npos) << st;
  huge_cap.max_streams = kPlannerMaxStreams;
  EXPECT_TRUE(SolvePlan({PlannerMovie{}, huge_cap}, 8, 10.0).ok());
}

TEST(PlannerTest, RejectsOverflowingRateTimesLength) {
  // Each factor is finite, but λ·l sets the stream scale and every repair
  // marginal; an infinite product would plan 1 stream at an infinite cost.
  PlannerMovie hot;
  hot.rate = 1e200;
  hot.movie_length = 1e200;
  const Result<BufferPlan> plan = SolvePlan({PlannerMovie{}, hot}, 8, 10.0);
  EXPECT_TRUE(plan.status().IsInvalidArgument()) << plan.status().message();
  // The check is on the product, not the factors.
  hot.movie_length = 1e-200;
  EXPECT_TRUE(SolvePlan({PlannerMovie{}, hot}, 8, 10.0).ok());
}

TEST(PlannerTest, HugeDemandSaturatesInsteadOfWrapping) {
  // lambda l = 1e30 puts the hot movie's square-root ideal far past INT_MAX
  // at the grid's low water levels. Rounded to int there it wrapped; clamped
  // in double first it saturates at max_streams.
  PlannerMovie hot;
  hot.rate = 1e28;
  hot.movie_length = 100.0;
  hot.max_streams = 64;
  const std::vector<PlannerMovie> movies = {PlannerMovie{}, hot};
  const Result<BufferPlan> plan = SolvePlan(movies, 65, 10.0);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->movies[1].streams, 64);
  EXPECT_EQ(plan->movies[0].streams, 1);
  ExpectSamePlan(*plan, reference::SolvePlan(movies, 65, 10.0,
                                             reference::Oracle::kScan));
}

TEST(PlannerTest, InfeasibleWhenBudgetCannotCoverMinimums) {
  PlannerMovie m;
  m.min_streams = 3;
  EXPECT_TRUE(SolvePlan({m, m}, 5, 10.0).status().IsInfeasible());
  EXPECT_TRUE(SolvePlan({m, m}, 6, 10.0).ok());
}

}  // namespace
}  // namespace vod
