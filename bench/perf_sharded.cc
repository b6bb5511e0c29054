// Microbenchmarks of the sharded multi-core server (google-benchmark).
//
// BM_ShardedRun drives one mixed-behavior many-movie server through the
// sharded coordinator at shard counts 1/2/4/8 and reports event and viewer
// throughput. The 1-shard row is the serial baseline (one event kernel, one
// heap); higher rows buy (a) real parallelism up to the machine's core
// count and (b) smaller per-shard heaps and event slabs whose hot paths
// stay cache-resident — at large catalogs the second effect makes the
// speedup superlinear in cores. The BM_ShardedRun* rows are gated:
// tools/perf_gate.py runs them from a change's and its parent's Release
// builds in interleaved pairs and compares their real-time ns/event.
//
// BM_ShardedRunDegraded is the same catalog with disk faults and the
// windowed degradation ladder armed — the barrier's in-place pressure read,
// rung step and quota apportionment, and the shards' queued-VCR retry
// machinery all on the hot path — pricing graceful degradation against the
// plain rows.
//
// BM_ShardedRunGiant is the 10M-viewer scaling run behind EXPERIMENTS.md's
// shards-vs-throughput table: an 8192-movie catalog with ~450k concurrent
// viewers, minutes of wall clock per row. It only registers when
// VOD_BENCH_GIANT is set in the environment so that a default invocation
// (CI smoke, `for b in build/bench/*`) stays fast:
//
//   VOD_BENCH_GIANT=1 bench/perf_sharded --benchmark_filter=Giant

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics_registry.h"
#include "sim/sharded_server.h"
#include "workload/paper_presets.h"

namespace vod {
namespace {

/// A mixed catalog: four layout/behavior templates cycled over `count`
/// movies with rates fanned across a 4x range, so shards see different
/// event densities and the barrier must handle imbalance. The template
/// pattern is decorrelated from i % shards for every power-of-two shard
/// count.
std::vector<ServerMovieSpec> MixedCatalog(int count) {
  struct Template {
    double length;
    int streams;
    double buffer;
    VcrBehavior behavior;
  };
  const Template kTemplates[] = {
      {120.0, 40, 80.0, paper::Fig7MixedBehavior()},
      {90.0, 30, 45.0, paper::Fig7SingleOpBehavior(VcrOp::kFastForward)},
      {100.0, 20, 50.0, paper::Fig7MixedBehavior()},
      {110.0, 25, 60.0, paper::Fig7SingleOpBehavior(VcrOp::kPause)},
  };
  std::vector<ServerMovieSpec> movies;
  movies.reserve(count);
  for (int i = 0; i < count; ++i) {
    const Template& t = kTemplates[(i + i / 4) % 4];
    const double rate = 0.15 + 0.45 * ((i * 7) % 16) / 15.0;
    auto layout = PartitionLayout::FromBuffer(t.length, t.streams, t.buffer);
    movies.push_back({"movie" + std::to_string(i), *layout, rate, nullptr,
                      t.behavior});
  }
  return movies;
}

/// Observability posture for a bench row (DESIGN.md §14).
enum class BenchObs {
  kOff,   ///< no bus at all — the historical baseline
  kIdle,  ///< bus attached with no sinks: prices the dormant branches
  kOn,    ///< ring-buffered trace + sampled metrics: full telemetry cost
};

/// Runs the sharded server over `movie_count` movies at the benchmark's
/// shard count, with one worker thread per shard up to the hardware limit.
/// `degraded` arms faults plus the windowed degradation ladder, so the
/// barrier's pressure fold / rung step / quota apportionment and the
/// shards' queued-VCR machinery are all on the measured path.
void RunSharded(benchmark::State& state, int movie_count,
                double measurement_minutes, bool degraded = false,
                BenchObs obs = BenchObs::kOff) {
  const int shards = static_cast<int>(state.range(0));
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const auto movies = MixedCatalog(movie_count);
  ShardedServerOptions options;
  options.base.rates = paper::Rates();
  options.base.dynamic_stream_reserve = 2 * movie_count;
  options.base.warmup_minutes = 200.0;
  options.base.measurement_minutes = measurement_minutes;
  options.shards = shards;
  options.threads = shards < hw ? shards : hw;
  options.window_minutes = 60.0;
  if (degraded) {
    options.base.faults.enabled = true;
    options.base.faults.disks = 4;
    options.base.faults.profile.mtbf_minutes = 600.0;
    options.base.faults.profile.mttr_minutes = 300.0;
    options.base.degradation.enabled = true;
    options.base.degradation.queue_deadline_minutes = 5.0;
  }
  EventLog event_log;
  EventRing trace_ring(1 << 16);
  MetricsRegistry registry;
  if (obs == BenchObs::kIdle) {
    // Bus wired but sink-less: every emission site runs its ShouldEmit
    // check and the shard lanes stay dark. This is the overhead a run pays
    // for obs *capability* without a consumer — the ≤2% budget row.
    options.base.obs.event_log = &event_log;
  } else if (obs == BenchObs::kOn) {
    event_log.AddSink(&trace_ring);
    options.base.obs.event_log = &event_log;
    options.base.obs.metrics = &registry;
    options.base.obs.metrics_sample_minutes = 120.0;
  }
  uint64_t seed = 1;
  uint64_t total_events = 0;
  int64_t total_viewers = 0;
  double simulated_minutes = 0.0;
  for (auto _ : state) {
    options.base.seed = seed++;
    const auto report = RunShardedServerSimulation(movies, options);
    benchmark::DoNotOptimize(report);
    if (report.ok()) {
      total_events += report->executed_events;
      total_viewers += report->aggregate.admissions;
      simulated_minutes +=
          options.base.warmup_minutes + options.base.measurement_minutes;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(simulated_minutes));
  state.SetLabel("items = simulated minutes");
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(total_events), benchmark::Counter::kIsRate);
  state.counters["viewers_per_second"] = benchmark::Counter(
      static_cast<double>(total_viewers), benchmark::Counter::kIsRate);
  state.counters["viewers"] = benchmark::Counter(
      static_cast<double>(total_viewers) /
      static_cast<double>(state.iterations()));
}

void BM_ShardedRun(benchmark::State& state) {
  RunSharded(state, /*movie_count=*/384, /*measurement_minutes=*/3000.0);
}

void BM_ShardedRunDegraded(benchmark::State& state) {
  RunSharded(state, /*movie_count=*/384, /*measurement_minutes=*/3000.0,
             /*degraded=*/true);
}

void BM_ShardedRunObsIdle(benchmark::State& state) {
  RunSharded(state, /*movie_count=*/384, /*measurement_minutes=*/3000.0,
             /*degraded=*/false, BenchObs::kIdle);
}

void BM_ShardedRunTraced(benchmark::State& state) {
  RunSharded(state, /*movie_count=*/384, /*measurement_minutes=*/3000.0,
             /*degraded=*/false, BenchObs::kOn);
}

void BM_ShardedRunGiant(benchmark::State& state) {
  // ~10.1M viewers admitted per measured iteration (8192 movies, mean rate
  // 0.375/min, 3300 measured minutes), ~450k concurrently live.
  RunSharded(state, /*movie_count=*/8192, /*measurement_minutes=*/3300.0);
}

void RegisterBenches() {
  auto* smoke = benchmark::RegisterBenchmark("BM_ShardedRun", BM_ShardedRun);
  smoke->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()->Unit(
      benchmark::kMillisecond);
  // Faults + windowed ladder live: what graceful degradation costs at the
  // barrier. Shares the BM_ShardedRun name prefix so the perf gate's filter
  // picks it up.
  auto* degraded = benchmark::RegisterBenchmark("BM_ShardedRunDegraded",
                                                BM_ShardedRunDegraded);
  degraded->Arg(1)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);
  // Obs postures at the 4-shard row (vs. the plain BM_ShardedRun/4 row):
  // idle prices the dormant branches (the telemetry-only budget is ≤ ~2%),
  // traced prices full per-shard lanes + barrier merge + sampled metrics.
  auto* obs_idle = benchmark::RegisterBenchmark("BM_ShardedRunObsIdle",
                                                BM_ShardedRunObsIdle);
  obs_idle->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);
  auto* traced = benchmark::RegisterBenchmark("BM_ShardedRunTraced",
                                              BM_ShardedRunTraced);
  traced->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);
  if (std::getenv("VOD_BENCH_GIANT") != nullptr) {
    auto* giant =
        benchmark::RegisterBenchmark("BM_ShardedRunGiant", BM_ShardedRunGiant);
    giant->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()->Unit(
        benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace vod

int main(int argc, char** argv) {
  vod::RegisterBenches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
