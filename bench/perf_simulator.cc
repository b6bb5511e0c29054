// Microbenchmarks of the discrete-event simulator (google-benchmark).
//
// Reports event throughput (ns/event) and simulated minutes per second for
// the workloads the validation benches run, so regressions in the event
// kernel or the partition lookup are visible. The BM_SimulationRun* rows are
// gated: tools/perf_gate.py runs them from a change's and its parent's
// Release builds in interleaved pairs and compares their ns/event.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/check.h"
#include "obs/event_log.h"
#include "obs/metrics_registry.h"
#include "sim/event_queue.h"
#include "sim/partition_schedule.h"
#include "sim/simulator.h"
#include "workload/paper_presets.h"

namespace vod {
namespace {

/// Runs the Fig-7 mixed workload, state.range(0) measured minutes after a
/// 100-minute warm-up, with `options`' audit and observability settings.
/// Every iteration replays seed 1, so each row exports its exact work next
/// to its time: `events` per iteration, and `events_per_second`, whose
/// inverse is the ns/event the perf gate compares.
void RunFig7(benchmark::State& state, SimulationOptions options) {
  const auto layout = PartitionLayout::FromMaxWait(120.0, 40, 1.0);
  options.behavior = paper::Fig7MixedBehavior();
  options.warmup_minutes = 100.0;
  options.measurement_minutes = static_cast<double>(state.range(0));
  options.seed = 1;
  uint64_t events = 0;
  for (auto _ : state) {
    const auto report = RunSimulation(*layout, paper::Rates(), options);
    VOD_CHECK_OK(report.status());
    benchmark::DoNotOptimize(report);
    events = report->executed_events;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel("items = simulated minutes");
  state.counters["events"] = static_cast<double>(events);
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(events) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_SimulationRun(benchmark::State& state) {
  RunFig7(state, SimulationOptions());
}
BENCHMARK(BM_SimulationRun)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

// Same workload with the invariant auditor at its default cadence; the
// delta against BM_SimulationRun is the auditor's overhead (EXPERIMENTS.md
// quotes it: ~5-7% of the post-kernel-rewrite baseline).
void BM_SimulationRunAudited(benchmark::State& state) {
  SimulationOptions options;
  options.audit.enabled = true;
  RunFig7(state, options);
}
BENCHMARK(BM_SimulationRunAudited)
    ->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

// Same workload with an event log attached but no sinks: every emission
// site pays its guard (one pointer test + one masked branch) and nothing
// else. The delta against BM_SimulationRun is the cost of *carrying* the
// observability layer while it is off — DESIGN.md §9 quotes it, and the
// acceptance bar is <= 2%.
void BM_SimulationRunObsIdle(benchmark::State& state) {
  EventLog log;  // no sinks attached: ShouldEmit() is false at every site
  SimulationOptions options;
  options.obs.event_log = &log;
  RunFig7(state, options);
}
BENCHMARK(BM_SimulationRunObsIdle)
    ->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

// Full tracing into a bounded in-memory ring plus cadenced metrics
// sampling: the cost of observability when it is *on*.
void BM_SimulationRunTraced(benchmark::State& state) {
  EventLog log;
  EventRing ring(1 << 16);
  log.AddSink(&ring);
  MetricsRegistry registry;
  SimulationOptions options;
  options.obs.event_log = &log;
  options.obs.metrics = &registry;
  options.obs.metrics_sample_minutes = 100.0;
  RunFig7(state, options);
}
BENCHMARK(BM_SimulationRunTraced)
    ->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue q;
    int counter = 0;
    for (int i = 0; i < 1000; ++i) {
      q.Schedule(static_cast<double>((i * 7919) % 1000),
                 [&counter] { ++counter; });
    }
    while (q.RunNext()) {
    }
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_PartitionLookup(benchmark::State& state) {
  const auto layout = PartitionLayout::FromMaxWait(120.0, 40, 1.0);
  PartitionSchedule schedule(*layout);
  double t = 0.0;
  double p = 0.0;
  int64_t hits = 0;
  for (auto _ : state) {
    t += 0.37;
    p += 0.73;
    if (p > 120.0) p -= 120.0;
    const auto covering = schedule.FindCoveringStream(t, p);
    hits += covering.has_value() ? 1 : 0;
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_PartitionLookup);

}  // namespace
}  // namespace vod

BENCHMARK_MAIN();
