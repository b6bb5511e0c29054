// Microbenchmarks of the event-queue kernel in isolation (google-benchmark).
//
// The simulator-level benches (perf_simulator.cc) measure the kernel through
// a full workload; these isolate the kernel's own operations so a regression
// in the slab, the 4-ary heap, or the dispatch path is attributable without
// profiling. Sweeps run at 1e3..1e6 pending events to expose cache effects —
// the queue-size regimes a single simulation never covers in one run.
//
// The hold model (schedule-one, pop-one at steady size) is the classic
// future-event-list benchmark: most DES kernels spend their life in it.
// BM_HoldModel pops and schedules from outside the kernel;
// BM_HoldModelRunUntil reschedules from inside a handler, the path every
// simulation's RunUntil takes.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "sim/event_queue.h"

namespace vod {
namespace {

/// Deterministic 64-bit LCG; cheap enough to be invisible next to the
/// kernel operations under test.
class BenchRng {
 public:
  explicit BenchRng(uint64_t seed) : state_(seed * 2862933555777941757ULL + 1) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 11;
  }
  /// Uniform double in [0, range).
  double Time(double range) {
    return static_cast<double>(Next() % (1u << 20)) * range / (1u << 20);
  }

 private:
  uint64_t state_;
};

/// The handlers the rows register, in the (fn, ctx) form MovieWorld's
/// handlers use, so every row times the dispatch a simulation runs.
/// AddPayload folds payloads into a sink so the work cannot be elided.
void AddPayload(void* sink, uint64_t payload) {
  *static_cast<uint64_t*>(sink) += payload;
}
void Ignore(void*, uint64_t) {}

/// Fills `q` with `n` handler events uniformly over [now, now + n) minutes
/// and returns their tokens.
std::vector<EventToken> Fill(EventQueue& q, uint64_t kind, size_t n,
                             BenchRng& rng) {
  std::vector<EventToken> tokens;
  tokens.reserve(n);
  const double base = q.Now();
  const double range = static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    tokens.push_back(q.ScheduleHandler(base + rng.Time(range), kind, i));
  }
  return tokens;
}

// Hold model: at a steady population of `range(0)` pending events, pop the
// head and schedule a replacement. One iteration = one pop + one schedule.
void BM_HoldModel(benchmark::State& state) {
  const size_t population = static_cast<size_t>(state.range(0));
  EventQueue q;
  uint64_t sink = 0;
  const uint64_t kind = q.AddHandler(&AddPayload, &sink);
  q.Reserve(population + 1);
  BenchRng rng(7);
  Fill(q, kind, population, rng);
  const double range = static_cast<double>(population);
  for (auto _ : state) {
    q.RunNext();
    q.ScheduleHandler(q.Now() + rng.Time(range), kind, 1);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HoldModel)
    ->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);

// Hold model as simulations run it: every handler reschedules itself from
// inside RunUntil, so its new key replaces the spent root in one sift-down
// (the fused hold), where BM_HoldModel pops with RunNext and schedules from
// outside. One iteration = one RunUntil over about 1024 events (the
// population turns over at 2 events per minute whatever its size); items
// are the events it executed.
struct SelfHold {
  SelfHold() = default;
  SelfHold(const SelfHold&) = delete;  // the queue holds `this`
  SelfHold& operator=(const SelfHold&) = delete;

  EventQueue q;
  BenchRng rng{29};
  double range = 0.0;
  uint64_t kind = 0;
  uint64_t sink = 0;

  static void Reschedule(void* ctx, uint64_t payload) {
    auto* h = static_cast<SelfHold*>(ctx);
    h->sink += payload;
    h->q.ScheduleHandler(h->q.Now() + h->rng.Time(h->range), h->kind,
                         payload);
  }
};

void BM_HoldModelRunUntil(benchmark::State& state) {
  const size_t population = static_cast<size_t>(state.range(0));
  SelfHold h;
  h.kind = h.q.AddHandler(&SelfHold::Reschedule, &h);
  h.range = static_cast<double>(population);
  h.q.Reserve(population + 1);
  Fill(h.q, h.kind, population, h.rng);
  const uint64_t start = h.q.executed();
  for (auto _ : state) h.q.RunUntil(h.q.Now() + 512.0);
  benchmark::DoNotOptimize(h.sink);
  state.SetItemsProcessed(static_cast<int64_t>(h.q.executed() - start));
}
BENCHMARK(BM_HoldModelRunUntil)->Arg(16)->Arg(64)->Arg(1000)->Arg(1000000);

// Pure schedule throughput into a growing heap, then drain outside the
// timed region. Measures PushKey/SiftUp and slab allocation.
void BM_ScheduleOnly(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  EventQueue q;
  uint64_t sink = 0;
  const uint64_t kind = q.AddHandler(&AddPayload, &sink);
  q.Reserve(n);
  BenchRng rng(11);
  const double range = static_cast<double>(n);
  for (auto _ : state) {
    const double base = q.Now();
    for (size_t i = 0; i < n; ++i) {
      q.ScheduleHandler(base + rng.Time(range), kind, i);
    }
    state.PauseTiming();
    q.RunUntil(base + range + 1.0);
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScheduleOnly)->Arg(1000)->Arg(10000)->Arg(100000);

// Pop throughput from a pre-filled heap of `range(0)` events (PopRoot /
// SiftDown plus dispatch). The refill runs untimed.
void BM_PopOnly(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  EventQueue q;
  uint64_t sink = 0;
  const uint64_t kind = q.AddHandler(&AddPayload, &sink);
  q.Reserve(n);
  BenchRng rng(13);
  for (auto _ : state) {
    state.PauseTiming();
    Fill(q, kind, n, rng);
    state.ResumeTiming();
    while (q.RunNext()) {
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PopOnly)->Arg(1000)->Arg(10000)->Arg(100000);

// Schedule/cancel churn at a steady population: every iteration schedules
// one event and cancels a pseudo-random live one. Measures token
// validation, FreeSlot, and the compaction amortization — the VCR
// abandon/reschedule pattern the simulator generates.
void BM_ScheduleCancelMix(benchmark::State& state) {
  const size_t population = static_cast<size_t>(state.range(0));
  EventQueue q;
  const uint64_t kind = q.AddHandler(&Ignore, nullptr);
  q.Reserve(population + 1);
  BenchRng rng(17);
  std::vector<EventToken> live = Fill(q, kind, population, rng);
  const double range = static_cast<double>(population);
  size_t cursor = 0;
  for (auto _ : state) {
    const size_t victim = rng.Next() % live.size();
    q.Cancel(live[victim]);
    live[victim] =
        q.ScheduleHandler(q.Now() + rng.Time(range), kind, cursor++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScheduleCancelMix)
    ->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);

// Worst case for lazy deletion: cancel an entire far-future wave, then pop
// through the tombstones. One iteration = schedule + cancel + drain of
// `range(0)` events; exercises CompactHeap end-to-end.
void BM_CancelBurstThenDrain(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  EventQueue q;
  const uint64_t kind = q.AddHandler(&Ignore, nullptr);
  q.Reserve(n + 1);
  BenchRng rng(19);
  for (auto _ : state) {
    std::vector<EventToken> tokens = Fill(q, kind, n, rng);
    for (size_t i = 0; i + 1 < tokens.size(); ++i) q.Cancel(tokens[i]);
    while (q.RunNext()) {
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CancelBurstThenDrain)->Arg(1000)->Arg(10000)->Arg(100000);

// Closure path (std::function allocation per schedule) at hold steady
// state, for comparison against BM_HoldModel's handler path. The gap is
// what the tagged-dispatch table buys.
void BM_HoldModelClosure(benchmark::State& state) {
  const size_t population = static_cast<size_t>(state.range(0));
  EventQueue q;
  q.Reserve(population + 1);
  BenchRng rng(23);
  uint64_t sink = 0;
  const double range = static_cast<double>(population);
  for (size_t i = 0; i < population; ++i) {
    q.Schedule(rng.Time(range), [&sink] { ++sink; });
  }
  for (auto _ : state) {
    q.RunNext();
    q.Schedule(q.Now() + rng.Time(range), [&sink] { ++sink; });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HoldModelClosure)->Arg(1000)->Arg(100000);

}  // namespace
}  // namespace vod

BENCHMARK_MAIN();
