// Microbenchmarks of the analytic engine (google-benchmark).
//
// Not a paper artifact: measures the cost of one P(hit) evaluation — the
// unit of work in every sizing sweep — across stream counts, operations,
// and evaluation paths (closed-form engine vs literal paper equations vs
// brute-force reference), plus the one-off table compilation.

#include <benchmark/benchmark.h>

#include "core/hit_model.h"
#include "core/paper_equations.h"
#include "core/reference_model.h"
#include "workload/paper_presets.h"

namespace vod {
namespace {

void BM_HitProbabilityVsStreams(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto layout = PartitionLayout::FromMaxWait(120.0, n, 1.0);
  const auto model = AnalyticHitModel::Create(*layout, paper::Rates());
  const auto compiled =
      CompiledDuration::Create(paper::Fig7Duration(), 120.0);
  for (auto _ : state) {
    const auto p = model->HitProbability(VcrOp::kFastForward, *compiled);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_HitProbabilityVsStreams)->Arg(10)->Arg(40)->Arg(100);

void BM_HitProbabilityByOp(benchmark::State& state) {
  const auto op = static_cast<VcrOp>(state.range(0));
  const auto layout = PartitionLayout::FromMaxWait(120.0, 40, 1.0);
  const auto model = AnalyticHitModel::Create(*layout, paper::Rates());
  const auto compiled =
      CompiledDuration::Create(paper::Fig7Duration(), 120.0);
  for (auto _ : state) {
    const auto p = model->HitProbability(op, *compiled);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_HitProbabilityByOp)->Arg(0)->Arg(1)->Arg(2);

void BM_CompileDuration(benchmark::State& state) {
  const auto gamma = paper::Fig7Duration();
  for (auto _ : state) {
    const auto compiled = CompiledDuration::Create(gamma, 120.0);
    benchmark::DoNotOptimize(compiled);
  }
}
BENCHMARK(BM_CompileDuration);

void BM_PaperEquationsFF(benchmark::State& state) {
  const auto layout = PartitionLayout::FromMaxWait(120.0, 40, 1.0);
  const auto gamma = paper::Fig7Duration();
  for (auto _ : state) {
    const auto p =
        PaperFastForwardHitProbability(*layout, paper::Rates(), *gamma, 24);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PaperEquationsFF);

void BM_ReferenceModelFF(benchmark::State& state) {
  const auto layout = PartitionLayout::FromMaxWait(120.0, 40, 1.0);
  const auto gamma = paper::Fig7Duration();
  ReferenceModelOptions options;
  options.vc_panels = 64;
  for (auto _ : state) {
    const auto p = ReferenceHitProbability(VcrOp::kFastForward, *layout,
                                           paper::Rates(), *gamma, options);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_ReferenceModelFF);

}  // namespace
}  // namespace vod

BENCHMARK_MAIN();
