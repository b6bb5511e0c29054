// Shard-aware observability wall (sim/sharded_server.h + src/obs).
//
// Extends the telemetry-only contract to the sharded engine: attaching the
// full observability stack — per-shard telemetry lanes merged into a trace
// bus, the metrics registry, the profiler's named lanes, the crash flight
// recorder — to a run with faults, the controller, the degradation ladder,
// and the paranoid auditor all live must not change one report byte, for
// any shard or thread count. The merged trace itself must be byte-identical
// across thread counts for a fixed shard count (lane buffers are folded at
// the barrier in shard-index order, and each shard sorts its window's
// records by time, so the merge is (window, shard, time, movie) ordered by
// construction). And an injected audit-law failure
// must leave a readable postmortem bundle ending at the violating window.
//
// Labelled `sharded` so the TSAN CI leg runs the lanes under real threads.

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "gtest/gtest.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/trace_reader.h"
#include "sim/sharded_server.h"
#include "workload/paper_presets.h"

namespace vod {
namespace {

/// Self-cleaning bundle path in the test's working directory.
class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_("sharded_obs_test_" + name + ".jsonl") {
    std::remove(path_.c_str());
  }
  ~TempPath() { std::remove(path_.c_str()); }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

PartitionLayout MakeLayout(double l, int n, double b) {
  auto layout = PartitionLayout::FromBuffer(l, n, b);
  VOD_CHECK(layout.ok());
  return *layout;
}

std::vector<ServerMovieSpec> SixMovies() {
  std::vector<ServerMovieSpec> movies;
  movies.push_back({"alpha", MakeLayout(120.0, 40, 80.0), 0.6, nullptr,
                    paper::Fig7MixedBehavior()});
  movies.push_back({"beta", MakeLayout(90.0, 30, 45.0), 0.3, nullptr,
                    paper::Fig7SingleOpBehavior(VcrOp::kFastForward)});
  movies.push_back({"gamma", MakeLayout(100.0, 20, 50.0), 0.45, nullptr,
                    paper::Fig7MixedBehavior()});
  movies.push_back({"delta", MakeLayout(110.0, 25, 60.0), 0.35, nullptr,
                    paper::Fig7MixedBehavior()});
  movies.push_back({"epsilon", MakeLayout(80.0, 16, 32.0), 0.2, nullptr,
                    paper::Fig7SingleOpBehavior(VcrOp::kPause)});
  movies.push_back({"zeta", MakeLayout(130.0, 36, 72.0), 0.5, nullptr,
                    paper::Fig7MixedBehavior()});
  return movies;
}

/// Six movies on one layout: their restarts fall on the same instants, so
/// type-1 admissions of different movies tie in time.
std::vector<ServerMovieSpec> SharedLayoutMovies() {
  std::vector<ServerMovieSpec> movies;
  const double rates[] = {0.5, 0.3, 0.45, 0.35, 0.6, 0.4};
  for (int i = 0; i < 6; ++i) {
    movies.push_back({"shared" + std::to_string(i),
                      MakeLayout(120.0, 40, 80.0), rates[i], nullptr,
                      paper::Fig7MixedBehavior()});
  }
  return movies;
}

/// The whole machine at once — scarce reserve, frequent faults, the
/// controller, the windowed ladder, the paranoid auditor — so telemetry
/// rides every code path that could plausibly leak into a report.
ShardedServerOptions LadderMachineOptions(int shards, int threads,
                                          uint64_t seed) {
  ShardedServerOptions options;
  options.base.rates = paper::Rates();
  options.base.dynamic_stream_reserve = 24;
  options.base.warmup_minutes = 300.0;
  options.base.measurement_minutes = 2500.0;
  options.base.seed = seed;
  options.base.faults.enabled = true;
  options.base.faults.disks = 8;
  options.base.faults.profile.mtbf_minutes = 500.0;
  options.base.faults.profile.mttr_minutes = 90.0;
  options.base.controller.enabled = true;
  options.base.controller.poll_interval_minutes = 15.0;
  options.base.audit.enabled = true;
  options.base.audit.every_events = 1;
  options.base.degradation.enabled = true;
  options.base.degradation.queue_deadline_minutes = 5.0;
  options.shards = shards;
  options.threads = threads;
  options.window_minutes = 40.0;
  return options;
}

/// Full observability stack for one run; the trace lands in `trace_out`.
struct ObsStack {
  explicit ObsStack(std::ostream* trace_out) : sink(trace_out) {
    event_log.AddSink(&sink);
    registry.set_sample_every(120.0);
  }
  ObsOptions Options() {
    ObsOptions obs;
    obs.event_log = &event_log;
    obs.metrics = &registry;
    obs.profiler = &profiler;
    return obs;
  }
  EventLog event_log;
  JsonlSink sink;
  MetricsRegistry registry;
  PhaseProfiler profiler;
};

TEST(ShardedObsTest, ReportsByteIdenticalWithObsOnOrOff) {
  const auto movies = SixMovies();
  for (uint64_t seed : {11u, 29u}) {
    const auto golden =
        RunShardedServerSimulation(movies, LadderMachineOptions(1, 1, seed));
    ASSERT_TRUE(golden.ok()) << golden.status().message();
    const std::string golden_text = golden->ToString();
    for (int shards : {1, 2, 8}) {
      for (int threads : {1, 4}) {
        std::ostringstream trace;
        ObsStack obs(&trace);
        ShardedServerOptions options =
            LadderMachineOptions(shards, threads, seed);
        options.base.obs = obs.Options();
        const auto got = RunShardedServerSimulation(movies, options);
        ASSERT_TRUE(got.ok()) << "seed=" << seed << " shards=" << shards
                              << " threads=" << threads << ": "
                              << got.status().message();
        EXPECT_EQ(got->ToString(), golden_text)
            << "seed=" << seed << " shards=" << shards
            << " threads=" << threads;
        // The run must actually have traced (lanes lit, merge ran) —
        // otherwise the byte comparison proves nothing.
        EXPECT_NE(trace.str().find("\"cat\":\"shard\""), std::string::npos);
        EXPECT_GT(obs.registry.samples_taken(), 0);
      }
    }
  }
}

TEST(ShardedObsTest, MergedTraceByteIdenticalAcrossThreadCounts) {
  const auto movies = SixMovies();
  for (int shards : {2, 4}) {
    std::string golden_trace;
    for (int threads : {1, 4}) {
      std::ostringstream trace;
      ObsStack obs(&trace);
      ShardedServerOptions options = LadderMachineOptions(shards, threads, 7);
      options.base.obs = obs.Options();
      const auto got = RunShardedServerSimulation(movies, options);
      ASSERT_TRUE(got.ok()) << got.status().message();
      if (threads == 1) {
        golden_trace = trace.str();
        ASSERT_FALSE(golden_trace.empty());
      } else {
        EXPECT_EQ(trace.str(), golden_trace)
            << "shards=" << shards
            << ": merged trace depends on thread count";
      }
    }
  }
}

TEST(ShardedObsTest, ShardBlocksAreTimeOrderedWithTiesInMovieOrder) {
  // A shard runs each of its movies to the barrier in turn, then sorts the
  // window's lane records by time (stable) before it closes the window. So
  // inside every (window, shard) block of the merged trace, time never
  // decreases, and records of different movies at one instant follow global
  // movie order.
  const auto movies = SharedLayoutMovies();
  std::ostringstream trace;
  ObsStack obs(&trace);
  ShardedServerOptions options;
  options.base.rates = paper::Rates();
  options.base.dynamic_stream_reserve = 20;
  options.base.warmup_minutes = 100.0;
  options.base.measurement_minutes = 600.0;
  options.base.seed = 5;
  options.base.obs = obs.Options();
  options.shards = 3;
  options.threads = 2;
  options.window_minutes = 60.0;
  const auto got = RunShardedServerSimulation(movies, options);
  ASSERT_TRUE(got.ok()) << got.status().message();

  std::istringstream in(trace.str());
  const auto events = ReadJsonlTrace(in);
  ASSERT_TRUE(events.ok()) << events.status().message();
  const auto is_shard = [](const TraceEvent& e, ShardEvent sub) {
    return e.category == EventCategory::kShard &&
           e.subtype == static_cast<uint8_t>(sub);
  };
  int64_t blocks = 0;
  int64_t cross_movie_ties = 0;
  bool in_block = false;
  TraceEvent prev;
  for (const TraceEvent& e : *events) {
    if (is_shard(e, ShardEvent::kWindowOpen)) {
      ASSERT_FALSE(in_block) << "block opened inside a block, seq " << e.seq;
      in_block = true;
      ++blocks;
      prev = e;
      continue;
    }
    if (!in_block) continue;  // coordinator records between blocks
    ASSERT_GE(e.time, prev.time) << "time went back at seq " << e.seq;
    if (e.time == prev.time && e.movie >= 0 && prev.movie >= 0 &&
        e.movie != prev.movie) {
      EXPECT_LT(prev.movie, e.movie) << "tie out of movie order, seq " << e.seq;
      ++cross_movie_ties;
    }
    if (is_shard(e, ShardEvent::kWindowClose)) in_block = false;
    prev = e;
  }
  EXPECT_FALSE(in_block);
  EXPECT_EQ(blocks, got->windows * options.shards);
  // The shared layout must actually produce ties, or the check proves
  // nothing.
  EXPECT_GT(cross_movie_ties, 0);
}

/// One complete span read back from a profiler's Chrome trace.
struct TraceSpan {
  int tid = 0;
  double ts = 0.0;
  double dur = 0.0;
};

std::vector<TraceSpan> SpansNamed(const PhaseProfiler& profiler,
                                  const std::string& name) {
  std::ostringstream os;
  profiler.WriteChromeTrace(os);
  std::istringstream in(os.str());
  std::vector<TraceSpan> spans;
  std::string line;
  char span_name[128];
  TraceSpan span;
  while (std::getline(in, line)) {
    if (std::sscanf(line.c_str(),
                    "{\"name\":\"%127[^\"]\",\"cat\":\"phase\",\"ph\":\"X\","
                    "\"pid\":0,\"tid\":%d,\"ts\":%lf,\"dur\":%lf}",
                    span_name, &span.tid, &span.ts, &span.dur) == 4 &&
        name == span_name) {
      spans.push_back(span);
    }
  }
  return spans;
}

TEST(ShardedObsTest, ControllerReplaySpanNestsInEveryFold) {
  // The re-plan runs inside the controller replay, so a traced run must
  // attribute fold time to it: one controller_replay span per window, on
  // the coordinator lane, inside that window's coordinator_fold — and none
  // when the controller is off.
  const auto movies = SixMovies();
  for (bool controller : {true, false}) {
    PhaseProfiler profiler;
    ShardedServerOptions options = LadderMachineOptions(2, 2, 11);
    options.base.controller.enabled = controller;
    options.base.obs.profiler = &profiler;
    const auto got = RunShardedServerSimulation(movies, options);
    ASSERT_TRUE(got.ok()) << got.status().message();
    const std::vector<TraceSpan> folds =
        SpansNamed(profiler, "coordinator_fold");
    const std::vector<TraceSpan> replays =
        SpansNamed(profiler, "controller_replay");
    ASSERT_EQ(static_cast<int64_t>(folds.size()), got->windows);
    if (!controller) {
      EXPECT_TRUE(replays.empty());
      continue;
    }
    ASSERT_EQ(replays.size(), folds.size());
    const double rounding_us = 0.002;  // the trace prints ts/dur to 1 ns
    for (size_t w = 0; w < folds.size(); ++w) {
      EXPECT_EQ(replays[w].tid, folds[w].tid) << "window " << w + 1;
      EXPECT_GE(replays[w].ts, folds[w].ts - rounding_us) << "window " << w + 1;
      EXPECT_LE(replays[w].ts + replays[w].dur,
                folds[w].ts + folds[w].dur + rounding_us)
          << "window " << w + 1;
    }
  }
}

TEST(ShardedObsTest, BarrierWaitIsRecordedOncePerWorker) {
  // Four shards on one worker run back to back. Only the last one's finish
  // to the join is barrier wait; the time the first three shards spent
  // queued behind each other is work, so Σ barrier_wait stays far below
  // Σ shard_work (it exceeded Σ shard_work when each shard counted the wait
  // from its own finish).
  const auto movies = SixMovies();
  PhaseProfiler profiler;
  ShardedServerOptions options = LadderMachineOptions(4, 1, 11);
  options.base.obs.profiler = &profiler;
  const auto got = RunShardedServerSimulation(movies, options);
  ASSERT_TRUE(got.ok()) << got.status().message();
  const std::vector<TraceSpan> work = SpansNamed(profiler, "shard_work");
  const std::vector<TraceSpan> waits = SpansNamed(profiler, "barrier_wait");
  EXPECT_EQ(static_cast<int64_t>(work.size()), 4 * got->windows);
  EXPECT_EQ(static_cast<int64_t>(waits.size()), got->windows);
  double work_us = 0.0;
  double wait_us = 0.0;
  for (const TraceSpan& span : work) work_us += span.dur;
  for (const TraceSpan& span : waits) wait_us += span.dur;
  EXPECT_GT(work_us, 0.0);
  EXPECT_LT(wait_us, 0.25 * work_us);
}

TEST(ShardedObsTest, FlightRecorderDumpsOnInjectedAuditFailure) {
  const auto movies = SixMovies();
  TempPath bundle_path("postmortem");
  ShardedServerOptions options = LadderMachineOptions(4, 2, 11);
  options.postmortem_path = bundle_path.str();
  options.corrupt_audit_window = 3;
  const auto got = RunShardedServerSimulation(movies, options);
  ASSERT_FALSE(got.ok());  // the injected violation surfaces as the status
  EXPECT_NE(got.status().message().find("shard-reserve-ledger"),
            std::string::npos)
      << got.status().message();

  const auto bundle = ReadPostmortem(bundle_path.str());
  ASSERT_TRUE(bundle.ok()) << bundle.status().message();
  EXPECT_EQ(bundle->shards, 4);
  EXPECT_EQ(bundle->reason, got.status().message());
  ASSERT_FALSE(bundle->windows.empty());
  // The bundle ends at the violating window and, well inside the
  // recorder's 16-window history, retains every window before it.
  EXPECT_EQ(bundle->windows.back().window, 3);
  EXPECT_EQ(bundle->windows.size(), 3u);
  EXPECT_EQ(bundle->windows.back().shard_events.size(), 4u);
  // Lanes were lit by the postmortem path alone (no tracing), so the rings
  // carry kShard window records for context.
  ASSERT_FALSE(bundle->events.empty());
  for (const PostmortemEvent& pe : bundle->events) {
    EXPECT_EQ(pe.event.category, EventCategory::kShard);
  }
}

TEST(ShardedObsTest, CorruptionHookLeavesTrajectoryUntouched) {
  // The injection perturbs only the audit snapshot copy, never the run.
  // Proof: corrupt the same configuration at window 3 and at window 6 —
  // both bundles retain window 3, and its ledger digest must be identical,
  // i.e. the window-3 injection left no trace in the digest chain.
  const auto movies = SixMovies();
  uint64_t digest_at_3[2] = {0, 0};
  const int64_t corrupt_at[2] = {3, 6};
  for (int i = 0; i < 2; ++i) {
    TempPath bundle_path("trajectory_" + std::to_string(i));
    ShardedServerOptions options = LadderMachineOptions(2, 2, 13);
    options.postmortem_path = bundle_path.str();
    options.corrupt_audit_window = corrupt_at[i];
    const auto got = RunShardedServerSimulation(movies, options);
    ASSERT_FALSE(got.ok());
    const auto bundle = ReadPostmortem(bundle_path.str());
    ASSERT_TRUE(bundle.ok()) << bundle.status().message();
    bool found = false;
    for (const FlightWindowRecord& fw : bundle->windows) {
      if (fw.window == 3) {
        digest_at_3[i] = fw.digest;
        found = true;
      }
    }
    ASSERT_TRUE(found) << "bundle " << i << " does not retain window 3";
  }
  EXPECT_EQ(digest_at_3[0], digest_at_3[1]);
  EXPECT_NE(digest_at_3[0], 0u);
}

}  // namespace
}  // namespace vod
