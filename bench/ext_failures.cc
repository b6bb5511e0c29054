// Extension: disk failures, graceful degradation, and QoS recovery.
//
// ext_blocking showed the fault-free reserve economics. Here the reserve is
// striped across disks that fail (exponential MTBF) and get repaired
// (exponential MTTR), shrinking capacity while a disk is down. The
// degradation ladder (sim/degradation.h) queues dry-reserve VCR requests
// with a retry deadline, sheds new VCR work under deep loss, and forcibly
// reclaims dedicated streams when the pool becomes oversubscribed — instead
// of the seed's hard-refusal cliff.
//
// The sweep shows two convergences and one invariant:
//   * MTBF -> infinity or MTTR -> 0 recovers the fault-free baseline row.
//   * The quasi-stationary Erlang prediction (core/erlang.h,
//     ErlangBlockingWithFailures) tracks the observed refusal probability.
//   * Accounting closes: queued = grants + expired + pending, and
//     blocked FF/RW = denied + expired — no request is silently dropped.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/check.h"
#include "common/flags.h"
#include "common/table.h"
#include "core/erlang.h"
#include "exp/experiment.h"
#include "sim/server.h"
#include "sim/sharded_server.h"
#include "sim/simulator.h"
#include "workload/paper_presets.h"

namespace {

constexpr int kDisks = 4;

std::vector<vod::ServerMovieSpec> Movies() {
  using namespace vod;
  std::vector<ServerMovieSpec> movies;
  auto layout_a = PartitionLayout::FromBuffer(120.0, 40, 60.0);
  auto layout_b = PartitionLayout::FromBuffer(90.0, 30, 45.0);
  auto layout_c = PartitionLayout::FromBuffer(105.0, 35, 52.5);
  VOD_CHECK_OK(layout_a.status());
  VOD_CHECK_OK(layout_b.status());
  VOD_CHECK_OK(layout_c.status());
  movies.push_back({"top-1", *layout_a, 0.5, nullptr, paper::Fig7MixedBehavior()});
  movies.push_back({"top-2", *layout_b, 0.33, nullptr, paper::Fig7MixedBehavior()});
  movies.push_back({"top-3", *layout_c, 0.25, nullptr, paper::Fig7MixedBehavior()});
  return movies;
}

struct FaultPoint {
  const char* label;
  bool faults;       // false = fault-free baseline (ladder still on)
  double mtbf;
  double mttr;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace vod;
  FlagSet flags("ext_failures");
  flags.AddBool("csv", false, "emit CSV");
  flags.AddDouble("measure", 6000.0, "measured minutes");
  flags.AddDouble("deadline", 5.0, "queued-VCR retry deadline (minutes)");
  AddExperimentFlags(&flags);
  VOD_CHECK_OK(flags.Parse(argc, argv));

  std::printf("Extension: disk failures vs graceful degradation "
              "(3 movies, reserve striped over %d disks, mixed VCR "
              "workload)\n\n", kDisks);

  const double measure = flags.GetDouble("measure");
  const double deadline = flags.GetDouble("deadline");
  const auto movies = Movies();
  const auto parsed = ExperimentOptionsFromFlags(flags, /*base_seed=*/901);
  VOD_CHECK_OK(parsed.status());
  const ExperimentOptions& experiment = *parsed;

  // Offered load for the Erlang prediction: mean busy dedicated streams
  // under unlimited supply, summed over the movies (as in ext_blocking).
  std::vector<int> movie_indices;
  for (size_t m = 0; m < movies.size(); ++m) {
    movie_indices.push_back(static_cast<int>(m));
  }
  const auto offered_reports = RunExperimentGrid(
      movie_indices, experiment,
      [&](int movie_index, const CellContext& context) {
        const auto& movie = movies[movie_index];
        SimulationOptions options;
        options.mean_interarrival_minutes =
            1.0 / movie.arrival_rate_per_minute;
        options.behavior = movie.behavior;
        options.warmup_minutes = 1000.0;
        options.measurement_minutes = measure;
        options.seed = context.seed;
        const auto report =
            RunSimulation(movie.layout, paper::Rates(), options);
        VOD_CHECK_OK(report.status());
        return *report;
      });
  double offered = 0.0;
  for (const auto& row : offered_reports) {
    offered += row[0].mean_dedicated_streams;
  }
  std::printf("offered load: %.1f Erlangs\n\n", offered);

  const std::vector<FaultPoint> fault_points = {
      {"fault-free", false, 0.0, 0.0},
      {"mtbf=1e12 mttr=120", true, 1e12, 120.0},   // -> fault-free
      {"mtbf=4000 mttr=1e-3", true, 4000.0, 1e-3}, // -> fault-free
      {"mtbf=4000 mttr=120", true, 4000.0, 120.0},
      {"mtbf=4000 mttr=480", true, 4000.0, 480.0},
      {"mtbf=1000 mttr=480", true, 1000.0, 480.0},
  };
  struct GridPoint {
    const FaultPoint* fault;
    int64_t reserve;
  };
  std::vector<GridPoint> grid;
  for (const FaultPoint& point : fault_points) {
    for (int64_t reserve : {20, 40, 80}) grid.push_back({&point, reserve});
  }

  ExperimentOptions server_experiment = experiment;
  server_experiment.base_seed = 555;
  const auto server_reports = RunExperimentGrid(
      grid, server_experiment,
      [&](const GridPoint& cell, const CellContext& context) {
        const FaultPoint& point = *cell.fault;
        ServerOptions options;
        options.rates = paper::Rates();
        options.dynamic_stream_reserve = cell.reserve;
        options.warmup_minutes = 1000.0;
        options.measurement_minutes = measure;
        // Every fault point at a given reserve shares one seed: identical
        // arrival/VCR streams are what let the mtbf=1e12 and mttr~0 rows
        // reproduce the fault-free row exactly (the convergence check).
        options.seed = CellSeed(server_experiment.base_seed,
                                context.config_index % 3,
                                context.replication);
        options.degradation.enabled = true;
        options.degradation.queue_deadline_minutes = deadline;
        if (point.faults) {
          options.faults.enabled = true;
          options.faults.disks = kDisks;
          options.faults.profile.mtbf_minutes = point.mtbf;
          options.faults.profile.mttr_minutes = point.mttr;
        }
        const auto report = RunServerSimulation(movies, options);
        VOD_CHECK_OK(report.status());
        return *report;
      });

  TableWriter table({"faults", "reserve", "avail", "p_refuse", "Erlang pred",
                     "blocked", "queued", "q-wait p99", "reclaims",
                     "degraded %", "recover mean", "accounting"});
  bool all_closed = true;
  for (size_t i = 0; i < grid.size(); ++i) {
    const FaultPoint& point = *grid[i].fault;
    const int64_t reserve = grid[i].reserve;
    const ServerReport& report = server_reports[i][0];
    const ResilienceReport& rz = report.resilience;

    DiskFaultProfile profile;
    profile.mtbf_minutes = point.mtbf;
    profile.mttr_minutes = point.mttr;
    const double availability =
        point.faults ? profile.StationaryAvailability() : 1.0;
    const auto predicted = ErlangBlockingWithFailures(
        kDisks, static_cast<int>(reserve / kDisks), offered, availability);
    VOD_CHECK_OK(predicted.status());

    const double horizon = 1000.0 + measure;
    const double degraded_fraction = 1.0 - rz.time_in_level[0] / horizon;
    // Every queued request and every blocked FF/RW must be accounted for.
    const bool queue_closed =
        rz.vcr_queued ==
        rz.vcr_queue_grants + rz.vcr_queue_expirations + rz.vcr_queue_pending;
    const bool blocked_closed =
        report.total_blocked_vcr == rz.vcr_denied + rz.vcr_queue_expirations;
    all_closed = all_closed && queue_closed && blocked_closed;

    table.AddRow({point.label, std::to_string(reserve),
                  FormatDouble(availability, 4),
                  FormatDouble(report.refusal_probability, 4),
                  FormatDouble(*predicted, 4),
                  std::to_string(report.total_blocked_vcr),
                  std::to_string(rz.vcr_queued),
                  FormatDouble(rz.p99_queued_wait_minutes, 2),
                  std::to_string(rz.forced_reclaims),
                  FormatDouble(100.0 * degraded_fraction, 1),
                  FormatDouble(rz.mean_recovery_minutes, 1),
                  queue_closed && blocked_closed ? "closed" : "VIOLATED"});
  }

  if (flags.GetBool("csv")) {
    table.RenderCsv(std::cout);
  } else {
    table.RenderText(std::cout);
  }

  // ---- sharded leg: the windowed ladder at scale ---------------------------
  //
  // The same failure regimes on the sharded multi-core engine with the
  // windowed degradation ladder armed: shards x fault intensity, 1 shard as
  // the reference. Three checks ride along: the report must be
  // byte-identical across shard counts (the ladder decision is a pure
  // function of summed pressure at the barrier, so shard count cannot leak
  // into it), the queue accounting must close, and the resilience view —
  // time under degradation, blocked VCR work, P2 queued-wait quantiles
  // pooled across every shard's queue — is the row payload.
  std::printf("\nsharded windowed ladder (6 movies, shards x faults, "
              "reserve=24):\n");
  std::vector<ServerMovieSpec> sharded_movies;
  for (int copy = 0; copy < 2; ++copy) {
    for (const ServerMovieSpec& movie : movies) {
      ServerMovieSpec spec = movie;
      spec.arrival_rate_per_minute *= 0.5;
      sharded_movies.push_back(spec);
    }
  }
  const std::vector<FaultPoint> sharded_faults = {
      {"mtbf=4000 mttr=240", true, 4000.0, 240.0},
      {"mtbf=1000 mttr=480", true, 1000.0, 480.0},
  };
  TableWriter sharded_table({"faults", "shards", "windows", "blocked",
                             "queued", "q-wait p50", "q-wait p99",
                             "reclaims", "degraded %", "identical"});
  bool all_identical = true;
  for (const FaultPoint& point : sharded_faults) {
    std::string reference;  // 1-shard report bytes
    for (const int shards : {1, 4, 8}) {
      ShardedServerOptions options;
      options.base.rates = paper::Rates();
      options.base.dynamic_stream_reserve = 24;
      options.base.warmup_minutes = 1000.0;
      options.base.measurement_minutes = measure;
      options.base.seed = 555;
      options.base.degradation.enabled = true;
      options.base.degradation.queue_deadline_minutes = deadline;
      options.base.faults.enabled = true;
      options.base.faults.disks = kDisks;
      options.base.faults.profile.mtbf_minutes = point.mtbf;
      options.base.faults.profile.mttr_minutes = point.mttr;
      options.base.audit.enabled = true;
      options.shards = shards;
      options.threads = shards;
      const auto sharded = RunShardedServerSimulation(sharded_movies, options);
      VOD_CHECK_OK(sharded.status());
      const std::string bytes = sharded->ToString();
      if (reference.empty()) reference = bytes;
      const bool identical = bytes == reference;
      all_identical = all_identical && identical;

      const ResilienceReport& rz = sharded->server.resilience;
      const double horizon = 1000.0 + measure;
      const double degraded_fraction = 1.0 - rz.time_in_level[0] / horizon;
      const bool queue_closed =
          rz.vcr_queued == rz.vcr_queue_grants + rz.vcr_queue_expirations +
                               rz.vcr_queue_pending;
      all_closed = all_closed && queue_closed;
      sharded_table.AddRow(
          {point.label, std::to_string(shards),
           std::to_string(sharded->windows),
           std::to_string(sharded->server.total_blocked_vcr),
           std::to_string(rz.vcr_queued),
           FormatDouble(rz.p50_queued_wait_minutes, 2),
           FormatDouble(rz.p99_queued_wait_minutes, 2),
           std::to_string(rz.forced_reclaims),
           FormatDouble(100.0 * degraded_fraction, 1),
           identical && queue_closed ? "yes" : "DIVERGED"});
    }
  }
  if (flags.GetBool("csv")) {
    sharded_table.RenderCsv(std::cout);
  } else {
    sharded_table.RenderText(std::cout);
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "ext_failures: sharded ladder reports DIVERGED across "
                 "shard counts\n");
    return 1;
  }

  std::printf("\nReading: the mtbf=1e12 and mttr~0 rows reproduce the "
              "fault-free row (convergence); harsher failure regimes raise "
              "refusals, queueing, and forced reclaims, and the "
              "quasi-stationary Erlang mixture tracks the observed refusal "
              "probability. Accounting closes on every row: queued = grants "
              "+ expired + pending and blocked = denied + expired.\n");
  if (!all_closed) {
    std::fprintf(stderr, "ext_failures: accounting identity VIOLATED\n");
    return 1;
  }
  return 0;
}
