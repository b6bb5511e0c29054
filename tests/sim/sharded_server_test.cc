#include "sim/sharded_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "sim/shard.h"
#include "sim/arrival_process.h"
#include "workload/paper_presets.h"

namespace vod {
namespace {

PartitionLayout MakeLayout(double l, int n, double b) {
  auto layout = PartitionLayout::FromBuffer(l, n, b);
  EXPECT_TRUE(layout.ok());
  return *layout;
}

std::vector<ServerMovieSpec> FourMovies() {
  std::vector<ServerMovieSpec> movies;
  movies.push_back({"alpha", MakeLayout(120.0, 40, 80.0), 0.5, nullptr,
                    paper::Fig7MixedBehavior()});
  movies.push_back({"beta", MakeLayout(90.0, 30, 45.0), 0.25, nullptr,
                    paper::Fig7SingleOpBehavior(VcrOp::kFastForward)});
  movies.push_back({"gamma", MakeLayout(100.0, 20, 50.0), 0.4, nullptr,
                    paper::Fig7MixedBehavior()});
  movies.push_back({"delta", MakeLayout(110.0, 25, 60.0), 0.3, nullptr,
                    paper::Fig7MixedBehavior()});
  return movies;
}

ShardedServerOptions BaseOptions(int shards, int threads) {
  ShardedServerOptions options;
  options.base.rates = paper::Rates();
  options.base.dynamic_stream_reserve = 60;
  options.base.warmup_minutes = 500.0;
  options.base.measurement_minutes = 4000.0;
  options.base.seed = 17;
  options.shards = shards;
  options.threads = threads;
  options.window_minutes = 50.0;
  return options;
}

TEST(ShardedServerTest, Validation) {
  auto movies = FourMovies();
  auto bad_shards = BaseOptions(0, 1);
  EXPECT_TRUE(RunShardedServerSimulation(movies, bad_shards)
                  .status()
                  .IsInvalidArgument());
  auto bad_window = BaseOptions(2, 1);
  bad_window.window_minutes = 0.0;
  EXPECT_TRUE(RunShardedServerSimulation(movies, bad_window)
                  .status()
                  .IsInvalidArgument());
  // The shard count is bounded before anything is allocated per shard.
  const Status too_many =
      ValidateShardedInputs(movies, BaseOptions(kMaxShards + 1, 1));
  EXPECT_TRUE(too_many.IsInvalidArgument());
  EXPECT_NE(too_many.message().find("65536"), std::string::npos);
  EXPECT_TRUE(ValidateShardedInputs(movies, BaseOptions(kMaxShards, 1)).ok());
  // So is the window count, in double before its cast: 1e-300 would
  // overflow the cast, and 1e-9 asks for 4.5e12 barriers.
  for (const double window : {1e-300, 1e-9}) {
    auto tiny_window = BaseOptions(2, 1);
    tiny_window.window_minutes = window;
    const Status st_window = ValidateShardedInputs(movies, tiny_window);
    EXPECT_TRUE(st_window.IsInvalidArgument()) << window;
    EXPECT_NE(st_window.message().find("window_minutes"), std::string::npos)
        << st_window;
  }
  auto small_window = BaseOptions(2, 1);
  small_window.window_minutes = 0.01;  // 450 000 windows over 4500 minutes
  EXPECT_TRUE(ValidateShardedInputs(movies, small_window).ok());
  // The metric cadence is bounded the same way: 0.001 minutes asks for
  // 4.5 million samples over 4500 minutes.
  for (const double cadence : {1e-300, 1e-3}) {
    auto tiny_cadence = BaseOptions(2, 1);
    tiny_cadence.base.obs.metrics_sample_minutes = cadence;
    const Status st_cadence = ValidateShardedInputs(movies, tiny_cadence);
    EXPECT_TRUE(st_cadence.IsInvalidArgument()) << cadence;
    EXPECT_NE(st_cadence.message().find("metrics_sample_minutes"),
              std::string::npos)
        << st_cadence;
  }
  auto small_cadence = BaseOptions(2, 1);
  small_cadence.base.obs.metrics_sample_minutes = 0.01;  // 450 000 samples
  EXPECT_TRUE(ValidateShardedInputs(movies, small_cadence).ok());
}

TEST(ShardedServerTest, PoolStartsAtMostOneWorkerPerShard) {
  // ParallelFor runs one task per shard, so workers past the shard count
  // would only idle: two shards start two workers however many are asked.
  auto options = BaseOptions(/*shards=*/2, /*threads=*/8);
  options.base.measurement_minutes = 500.0;
  const auto report = RunShardedServerSimulation(FourMovies(), options);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->shards, 2);
  EXPECT_EQ(report->threads, 2);
}

ShardedServerOptions LadderOptions(int shards, int threads) {
  ShardedServerOptions options = BaseOptions(shards, threads);
  options.base.dynamic_stream_reserve = 24;  // scarce: the ladder must work
  options.base.degradation.enabled = true;
  options.base.degradation.queue_deadline_minutes = 5.0;
  options.base.faults.enabled = true;
  options.base.faults.disks = 4;
  options.base.faults.profile.mtbf_minutes = 700.0;
  options.base.faults.profile.mttr_minutes = 350.0;
  options.base.audit.enabled = true;
  return options;
}

TEST(ShardedServerTest, WindowedLadderEngagesUnderFaults) {
  const auto report =
      RunShardedServerSimulation(FourMovies(), LadderOptions(2, 2));
  ASSERT_TRUE(report.ok()) << report.status().message();
  const ResilienceReport& rz = report->server.resilience;
  // The run must actually walk the ladder: rungs above normal, queued VCR
  // work, and a closed queue ledger.
  EXPECT_GT(rz.total_transitions, 0);
  double above_normal = 0.0;
  for (int level = 1; level < kNumDegradationLevels; ++level) {
    above_normal += rz.time_in_level[level];
  }
  EXPECT_GT(above_normal, 0.0);
  EXPECT_GT(rz.vcr_queued, 0);
  EXPECT_EQ(rz.vcr_queued, rz.vcr_queue_grants + rz.vcr_queue_expirations +
                               rz.vcr_queue_pending);
  // Dwell times integrate to the horizon exactly (the barrier integrates
  // every window into the level it ran under): warmup + measurement.
  double total = 0.0;
  for (int level = 0; level < kNumDegradationLevels; ++level) {
    total += rz.time_in_level[level];
  }
  EXPECT_DOUBLE_EQ(total, 500.0 + 4000.0);
}

TEST(ShardedServerTest, LadderReportIndependentOfShardAndThreadCount) {
  // The acceptance matrix: ladder + faults + audit live, byte-identical
  // across (shards, threads).
  const auto golden =
      RunShardedServerSimulation(FourMovies(), LadderOptions(1, 1));
  ASSERT_TRUE(golden.ok()) << golden.status().message();
  const std::string golden_text = golden->ToString();
  EXPECT_GT(golden->server.resilience.total_transitions, 0);
  for (int shards : {2, 3, 4}) {
    for (int threads : {1, 2}) {
      const auto got = RunShardedServerSimulation(FourMovies(),
                                                  LadderOptions(shards, threads));
      ASSERT_TRUE(got.ok()) << got.status().message();
      EXPECT_EQ(got->ToString(), golden_text)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

TEST(ShardedServerTest, LadderOffPreservesFaultsOnlyBytes) {
  // Arming machinery must be inert when the ladder is off: a faults-only
  // run reports the legacy hardcoded-normal resilience block.
  auto faults_only = LadderOptions(2, 2);
  faults_only.base.degradation.enabled = false;
  const auto report = RunShardedServerSimulation(FourMovies(), faults_only);
  ASSERT_TRUE(report.ok()) << report.status().message();
  const ResilienceReport& rz = report->server.resilience;
  EXPECT_EQ(rz.total_transitions, 0);
  EXPECT_EQ(rz.final_level, DegradationLevel::kNormal);
  EXPECT_EQ(rz.vcr_queued, 0);
}

TEST(ShardedServerTest, RunsAndReportsEveryMovie) {
  const auto report = RunShardedServerSimulation(FourMovies(),
                                                 BaseOptions(2, 2));
  ASSERT_TRUE(report.ok()) << report.status().message();
  ASSERT_EQ(report->server.movies.size(), 4u);
  EXPECT_EQ(report->server.movies[0].name, "alpha");
  EXPECT_EQ(report->server.movies[3].name, "delta");
  EXPECT_GT(report->server.movies[0].report.total_resumes, 0);
  EXPECT_GT(report->aggregate.total_resumes,
            report->server.movies[0].report.total_resumes);
  EXPECT_GT(report->windows, 0);
  EXPECT_TRUE(report->complete);
}

TEST(ShardedServerTest, AggregateMatchesSumOfMovies) {
  const auto report = RunShardedServerSimulation(FourMovies(),
                                                 BaseOptions(3, 2));
  ASSERT_TRUE(report.ok()) << report.status().message();
  int64_t resumes = 0;
  int64_t admissions = 0;
  for (const auto& m : report->server.movies) {
    resumes += m.report.total_resumes;
    admissions += m.report.admissions;
  }
  EXPECT_EQ(report->aggregate.total_resumes, resumes);
  EXPECT_EQ(report->aggregate.admissions, admissions);
}

TEST(ShardedServerTest, ReportIndependentOfShardAndThreadCount) {
  const auto golden = RunShardedServerSimulation(FourMovies(),
                                                 BaseOptions(1, 1));
  ASSERT_TRUE(golden.ok()) << golden.status().message();
  const std::string golden_text = golden->ToString();
  for (int shards : {2, 3, 4}) {
    for (int threads : {1, 2}) {
      const auto got = RunShardedServerSimulation(
          FourMovies(), BaseOptions(shards, threads));
      ASSERT_TRUE(got.ok()) << got.status().message();
      EXPECT_EQ(got->ToString(), golden_text)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

TEST(ShardedServerTest, ReserveLedgerConservedUnderAudit) {
  auto options = BaseOptions(2, 2);
  options.base.audit.enabled = true;
  options.base.dynamic_stream_reserve = 10;  // scarce: credits matter
  const auto report = RunShardedServerSimulation(FourMovies(), options);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_GT(report->server.refused_acquisitions, 0);
}

TEST(ShardedServerTest, ScarceReserveRefusesMoreThanAmpleReserve) {
  auto scarce = BaseOptions(2, 1);
  scarce.base.dynamic_stream_reserve = 5;
  auto ample = BaseOptions(2, 1);
  ample.base.dynamic_stream_reserve = 500;
  const auto scarce_report = RunShardedServerSimulation(FourMovies(), scarce);
  const auto ample_report = RunShardedServerSimulation(FourMovies(), ample);
  ASSERT_TRUE(scarce_report.ok() && ample_report.ok());
  EXPECT_GT(scarce_report->server.refusal_probability,
            ample_report->server.refusal_probability);
  EXPECT_LE(ample_report->server.refusal_probability, 0.01);
}

/// FNV-1a over everything a sharded run computes: the server and aggregate
/// reports, the ledger-digest chain, the window count and the executed
/// events.
uint64_t RunHash(const ShardedServerReport& report) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ULL;
  };
  for (const char c : report.server.ToString() + report.aggregate.ToString()) {
    mix(static_cast<uint8_t>(c));
  }
  for (const uint64_t v : {report.ledger_digest,
                           static_cast<uint64_t>(report.windows),
                           report.executed_events}) {
    for (int i = 0; i < 8; ++i) mix(static_cast<uint8_t>(v >> (8 * i)));
  }
  return h;
}

/// Six movies on one layout and one behavior: their restarts fall on the
/// same instants, so type-1 admissions of different movies tie in time, and
/// at three shards each shard holds two of them.
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

/// Arrivals of an inner process, each moved up to the next multiple of
/// `grid` minutes. With a grid that divides the controller's poll
/// interval, some arrivals fall exactly on a decision wakeup, which must
/// observe them only after it decides.
class GridArrivals final : public ArrivalProcess {
 public:
  GridArrivals(ArrivalProcessPtr inner, double grid)
      : inner_(std::move(inner)), grid_(grid) {}

  double NextArrivalAfter(double after, Rng* rng) const override {
    return std::ceil(inner_->NextArrivalAfter(after, rng) / grid_) * grid_;
  }
  double MeanRatePerMinute() const override {
    return inner_->MeanRatePerMinute();
  }

 private:
  ArrivalProcessPtr inner_;
  double grid_;
};

/// 96 titles on four layouts (bench/perf_sharded.cc's mixed catalog), with
/// a 4x flash crowd on every 16th and arrivals on a 15/16-minute grid, so
/// the re-plan moves thousands of streams and replays arrivals that tie
/// with its 15-minute wakeups.
std::vector<ServerMovieSpec> FlashCatalog() {
  struct Template {
    double length;
    int streams;
    double buffer;
  };
  const Template kTemplates[] = {{120.0, 40, 80.0},
                                 {90.0, 30, 45.0},
                                 {100.0, 20, 50.0},
                                 {110.0, 25, 60.0}};
  std::vector<ServerMovieSpec> movies;
  for (int i = 0; i < 96; ++i) {
    const Template& t = kTemplates[(i + i / 4) % 4];
    const double rate = 0.15 + 0.45 * ((i * 7) % 16) / 15.0;
    ArrivalProcessPtr inner = std::make_shared<PoissonArrivals>(rate);
    if (i % 16 == 0) {
      const auto flash = FlashArrivals::Create(rate, 4.0, 600.0, 800.0);
      EXPECT_TRUE(flash.ok());
      inner = std::make_shared<FlashArrivals>(*flash);
    }
    std::string name = "title";
    name += std::to_string(i);
    movies.push_back({name, MakeLayout(t.length, t.streams, t.buffer), rate,
                      std::make_shared<GridArrivals>(inner, 15.0 / 16.0),
                      paper::Fig7MixedBehavior()});
  }
  return movies;
}

TEST(ShardedServerTest, ReportBytesArePinned) {
  // Fixed hashes of each configuration, so any change to what the barrier
  // reads or writes, or to the order a shard runs its movies' events in,
  // fails here and not only in a cross-build byte comparison. A deliberate
  // change of results updates the constants.
  auto tight = BaseOptions(3, 2);
  tight.base.dynamic_stream_reserve = 8;

  auto machine = LadderOptions(2, 2);  // faults + ladder + audit

  std::vector<ServerMovieSpec> flash_movies = FourMovies();
  const auto flash = FlashArrivals::Create(0.5, 4.0, 1500.0, 1000.0);
  ASSERT_TRUE(flash.ok());
  flash_movies[0].arrivals = std::make_shared<FlashArrivals>(*flash);
  auto steered = BaseOptions(4, 2);
  steered.window_minutes = 30.0;
  steered.base.dynamic_stream_reserve = 30;
  steered.base.controller.enabled = true;
  steered.base.piggyback.enabled = true;

  // Tied admissions across movies: one shard and three give one hash.
  auto shared_one = BaseOptions(1, 1);
  shared_one.base.dynamic_stream_reserve = 20;
  auto shared_three = shared_one;
  shared_three.shards = 3;
  shared_three.threads = 2;

  // Every barrier mechanism at once: faults, ladder, controller, flash
  // crowd, piggyback and audit.
  auto everything = LadderOptions(3, 2);
  everything.base.controller.enabled = true;
  everything.base.piggyback.enabled = true;

  // The controller re-planning a 96-title catalog at its flash crowds; one
  // shard and four give one hash.
  auto at_scale_one = BaseOptions(1, 1);
  at_scale_one.base.warmup_minutes = 200.0;
  at_scale_one.base.measurement_minutes = 1800.0;
  at_scale_one.base.dynamic_stream_reserve = 400;
  at_scale_one.base.controller.enabled = true;
  at_scale_one.window_minutes = 60.0;
  auto at_scale_four = at_scale_one;
  at_scale_four.shards = 4;
  at_scale_four.threads = 2;

  const struct {
    const char* name;
    const std::vector<ServerMovieSpec> movies;
    const ShardedServerOptions& options;
    uint64_t hash;
    bool replans = false;
  } cases[] = {
      {"tight reserve", FourMovies(), tight, 0xdaa2c2a5bfa7f2daULL},
      {"faults + ladder + audit", FourMovies(), machine, 0xb955e518fab14bb7ULL},
      {"controller + flash + piggyback", flash_movies, steered,
       0xab5798bed4e8bcacULL},
      {"shared layout, 1 shard", SharedLayoutMovies(), shared_one,
       0xa8b45f315be00877ULL},
      {"shared layout, 3 shards", SharedLayoutMovies(), shared_three,
       0xa8b45f315be00877ULL},
      {"faults + ladder + controller + flash + piggyback + audit",
       flash_movies, everything, 0xb21a5c064c7f16eaULL, true},
      {"controller at scale, 1 shard", FlashCatalog(), at_scale_one,
       0xd236054add7fa950ULL, true},
      {"controller at scale, 4 shards", FlashCatalog(), at_scale_four,
       0xd236054add7fa950ULL, true},
  };
  for (const auto& c : cases) {
    const auto report = RunShardedServerSimulation(c.movies, c.options);
    ASSERT_TRUE(report.ok()) << c.name << ": " << report.status().message();
    EXPECT_EQ(RunHash(*report), c.hash)
        << c.name << ": got 0x" << std::hex << RunHash(*report);
    if (c.replans) {
      EXPECT_GE(report->server.controller.plans_solved, 1) << c.name;
      EXPECT_GE(report->server.controller.migrations_committed, 1) << c.name;
    }
  }
}

TEST(CreditStreamSupplierTest, CreditAndDebtLifecycle) {
  CreditStreamSupplier supplier;
  supplier.SetLedger(/*credit=*/2, /*debt=*/0);
  EXPECT_TRUE(supplier.TryAcquire(1.0));
  EXPECT_TRUE(supplier.TryAcquire(2.0));
  EXPECT_FALSE(supplier.TryAcquire(3.0));  // credit exhausted
  EXPECT_EQ(supplier.held(), 2);
  EXPECT_EQ(supplier.refused(), 1);
  // A fault assigns retirement debt: the next release retires instead of
  // re-lending.
  supplier.SetLedger(/*credit=*/0, /*debt=*/1);
  supplier.Release(4.0);
  EXPECT_EQ(supplier.held(), 1);
  EXPECT_EQ(supplier.debt(), 0);
  EXPECT_EQ(supplier.credit(), 0);
  supplier.Release(5.0);
  EXPECT_EQ(supplier.credit(), 1);
  // Cumulative demand: the barrier weights credit by its change.
  EXPECT_EQ(supplier.refused(), 1);
  EXPECT_EQ(supplier.acquired(), 2);
}

DegradationPolicy QueueingPolicy() {
  DegradationPolicy policy;
  policy.enabled = true;
  policy.queue_deadline_minutes = 5.0;
  return policy;
}

TEST(CreditStreamSupplierTest, UnarmedRefusesQueueingWithoutCountingDenial) {
  CreditStreamSupplier supplier;
  bool invoked = false;
  EXPECT_FALSE(supplier.TryQueueAcquire(
      1.0, [&invoked](double, bool) { invoked = true; }));
  EXPECT_FALSE(invoked);
  EXPECT_EQ(supplier.vcr_denied(), 0);
  EXPECT_EQ(supplier.vcr_queued(), 0);
  EXPECT_EQ(supplier.queue_length(), 0);
}

TEST(CreditStreamSupplierTest, QueuedRequestsGrantedFifoAtWindowOpen) {
  EventQueue queue;
  CreditStreamSupplier supplier;
  supplier.ArmLadder(QueueingPolicy(), &queue, /*measurement_start=*/0.0);
  std::vector<int> order;
  std::vector<double> decided_at;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(supplier.TryQueueAcquire(
        0.1 * i, [&order, &decided_at, i](double t, bool granted) {
          EXPECT_TRUE(granted);
          order.push_back(i);
          decided_at.push_back(t);
        }));
  }
  EXPECT_EQ(supplier.queue_length(), 2);
  EXPECT_EQ(supplier.vcr_queued(), 2);
  supplier.SetLedger(/*credit=*/1, /*debt=*/0);
  supplier.OpenWindow(0.2);
  ASSERT_EQ(order, std::vector<int>({0}));
  supplier.SetLedger(/*credit=*/1, /*debt=*/0);
  supplier.OpenWindow(0.3);
  EXPECT_EQ(order, std::vector<int>({0, 1}));
  EXPECT_EQ(decided_at, std::vector<double>({0.2, 0.3}));
  EXPECT_EQ(supplier.vcr_queue_grants(), 2);
  EXPECT_EQ(supplier.queue_length(), 0);
  EXPECT_EQ(supplier.held(), 2);
  EXPECT_EQ(supplier.credit(), 0);
  EXPECT_EQ(supplier.queued_wait().count(), 2);
  EXPECT_NEAR(supplier.queued_wait().mean(), 0.2, 1e-12);
}

TEST(CreditStreamSupplierTest, QueuedRequestExpiresAtDeadline) {
  EventQueue queue;
  CreditStreamSupplier supplier;
  supplier.ArmLadder(QueueingPolicy(), &queue, /*measurement_start=*/0.0);
  bool granted = true;
  double decision_time = -1.0;
  ASSERT_TRUE(supplier.TryQueueAcquire(0.0, [&](double t, bool g) {
    granted = g;
    decision_time = t;
  }));
  queue.RunUntil(10.0);  // no credit ever arrives
  EXPECT_FALSE(granted);
  EXPECT_NEAR(decision_time, 5.0, 1e-12);  // the configured deadline
  EXPECT_EQ(supplier.vcr_queue_expirations(), 1);
  EXPECT_EQ(supplier.vcr_queue_grants(), 0);
  EXPECT_EQ(supplier.queue_length(), 0);
}

TEST(CreditStreamSupplierTest, ShedRungDeniesAndCountsTheDenial) {
  EventQueue queue;
  CreditStreamSupplier supplier;
  supplier.ArmLadder(QueueingPolicy(), &queue, /*measurement_start=*/0.0);
  for (DegradationLevel rung :
       {DegradationLevel::kShedVcr, DegradationLevel::kReclaim,
        DegradationLevel::kBatchingOnly}) {
    supplier.SetRung(rung);
    bool invoked = false;
    EXPECT_FALSE(supplier.TryQueueAcquire(
        1.0, [&invoked](double, bool) { invoked = true; }));
    EXPECT_FALSE(invoked);
  }
  EXPECT_EQ(supplier.vcr_denied(), 3);
  EXPECT_EQ(supplier.vcr_queued(), 0);
  EXPECT_EQ(supplier.queue_length(), 0);
}

TEST(CreditStreamSupplierTest, WarmupRequestsStayOutOfMeasuredCounts) {
  EventQueue queue;
  CreditStreamSupplier supplier;
  supplier.ArmLadder(QueueingPolicy(), &queue, /*measurement_start=*/10.0);
  int decided = 0;
  ASSERT_TRUE(
      supplier.TryQueueAcquire(1.0, [&decided](double, bool) { ++decided; }));
  ASSERT_TRUE(
      supplier.TryQueueAcquire(2.0, [&decided](double, bool) { ++decided; }));
  EXPECT_EQ(supplier.queue_length(), 2);
  EXPECT_EQ(supplier.vcr_queued(), 0);
  EXPECT_EQ(supplier.measured_queue_pending(), 0);
  supplier.SetLedger(/*credit=*/1, /*debt=*/0);
  supplier.OpenWindow(2.5);  // grants the first, still inside warmup
  EXPECT_EQ(decided, 1);
  EXPECT_EQ(supplier.vcr_queue_grants(), 0);
  EXPECT_EQ(supplier.queued_wait().count(), 0);
  EXPECT_EQ(supplier.measured_queue_pending(), 0);
  EXPECT_EQ(supplier.queue_length(), 1);
}

}  // namespace
}  // namespace vod
