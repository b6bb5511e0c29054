// Microbenchmark of the controller's re-plan (google-benchmark).
//
// BM_SolvePlan/k solves one (B, n) allocation over k movies: the input a
// sharded server's controller hands SolvePlan at a flash-crowd peak.
// The catalog is bench/perf_sharded.cc's mixed catalog with every 16th
// title's rate quadrupled; each movie may hold at most 64 streams, and the
// budgets are the streams and buffer minutes the catalog's layouts hold.
// A re-plan runs inside the sharded barrier's fold, so its cost blocks
// every shard for that window.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "ctrl/planner.h"

namespace vod {
namespace {

struct PlanInput {
  std::vector<PlannerMovie> movies;
  int64_t stream_budget = 0;
  double buffer_budget = 0.0;
};

PlanInput FlashCrowdPlanInput(int count) {
  struct Template {
    double length;
    int streams;
    double buffer;
  };
  const Template kTemplates[] = {{120.0, 40, 80.0},
                                 {90.0, 30, 45.0},
                                 {100.0, 20, 50.0},
                                 {110.0, 25, 60.0}};
  PlanInput input;
  for (int i = 0; i < count; ++i) {
    const Template& t = kTemplates[(i + i / 4) % 4];
    PlannerMovie m;
    m.movie_length = t.length;
    m.rate = (0.15 + 0.45 * ((i * 7) % 16) / 15.0) * (i % 16 == 0 ? 4.0 : 1.0);
    m.max_streams = 64;
    input.movies.push_back(m);
    input.stream_budget += t.streams;
    input.buffer_budget += t.buffer;
  }
  return input;
}

void BM_SolvePlan(benchmark::State& state) {
  const PlanInput input = FlashCrowdPlanInput(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const auto plan =
        SolvePlan(input.movies, input.stream_budget, input.buffer_budget);
    benchmark::DoNotOptimize(plan);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel("items = movies planned");
}
BENCHMARK(BM_SolvePlan)->Arg(96)->Arg(384)->Arg(1536)->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace vod

BENCHMARK_MAIN();
