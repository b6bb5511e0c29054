// Microbenchmarks of the distribution library (google-benchmark):
// sampling and CDF evaluation costs, which bound both simulator and model
// throughput.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "dist/exponential.h"
#include "dist/gamma.h"
#include "dist/lognormal.h"
#include "dist/special_functions.h"
#include "dist/weibull.h"

namespace vod {
namespace {

void BM_SampleExponential(benchmark::State& state) {
  ExponentialDistribution dist(5.0);
  Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(dist.Sample(&rng));
}
BENCHMARK(BM_SampleExponential);

void BM_SampleGamma(benchmark::State& state) {
  GammaDistribution dist(2.0, 4.0);
  Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(dist.Sample(&rng));
}
BENCHMARK(BM_SampleGamma);

// Gamma(k, 4) at the integer shapes k = 1..12: the Erlang sum of k
// exponentials up to Rng::kErlangMaxShape, Marsaglia–Tsang above it.
void BM_SampleGammaShape(benchmark::State& state) {
  GammaDistribution dist(static_cast<double>(state.range(0)), 4.0);
  Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(dist.Sample(&rng));
}
BENCHMARK(BM_SampleGammaShape)->DenseRange(1, 12);

void BM_SampleGammaShapeBelowOne(benchmark::State& state) {
  GammaDistribution dist(0.5, 1.0);
  Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(dist.Sample(&rng));
}
BENCHMARK(BM_SampleGammaShapeBelowOne);

void BM_SampleWeibull(benchmark::State& state) {
  WeibullDistribution dist(1.5, 3.0);
  Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(dist.Sample(&rng));
}
BENCHMARK(BM_SampleWeibull);

void BM_SampleLognormal(benchmark::State& state) {
  LognormalDistribution dist(0.0, 1.0);
  Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(dist.Sample(&rng));
}
BENCHMARK(BM_SampleLognormal);

void BM_CdfExponential(benchmark::State& state) {
  ExponentialDistribution dist(5.0);
  double x = 0.0;
  for (auto _ : state) {
    x += 0.001;
    if (x > 40.0) x = 0.0;
    benchmark::DoNotOptimize(dist.Cdf(x));
  }
}
BENCHMARK(BM_CdfExponential);

void BM_CdfGamma(benchmark::State& state) {
  GammaDistribution dist(2.0, 4.0);
  double x = 0.0;
  for (auto _ : state) {
    x += 0.001;
    if (x > 40.0) x = 0.0;
    benchmark::DoNotOptimize(dist.Cdf(x));
  }
}
BENCHMARK(BM_CdfGamma);

void BM_CdfLognormal(benchmark::State& state) {
  LognormalDistribution dist(0.0, 1.0);
  double x = 0.0;
  for (auto _ : state) {
    x += 0.001;
    if (x > 40.0) x = 0.0;
    benchmark::DoNotOptimize(dist.Cdf(x));
  }
}
BENCHMARK(BM_CdfLognormal);

void BM_RegularizedGammaP(benchmark::State& state) {
  double x = 0.0;
  for (auto _ : state) {
    x += 0.001;
    if (x > 30.0) x = 0.0;
    benchmark::DoNotOptimize(RegularizedGammaP(2.0, x));
  }
}
BENCHMARK(BM_RegularizedGammaP);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Uniform01());
}
BENCHMARK(BM_RngUniform);

}  // namespace
}  // namespace vod

BENCHMARK_MAIN();
