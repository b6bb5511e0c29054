// A whole-server scenario: a Zipf-popular catalog, sized pre-allocations,
// and a single discrete-event simulation of every popular movie sharing one
// finite VCR stream reserve — including what happens when that reserve is
// too small, and how piggyback merging changes the answer.
//
//   ./build/examples/vod_server_sim --movies=8 --rate=4 --reserve=60
//   ./build/examples/vod_server_sim --piggyback --reserve=30

#include <cstdio>
#include <iostream>

#include "common/check.h"
#include "common/flags.h"
#include "common/table.h"
#include "core/sizing.h"
#include "sim/server.h"
#include "workload/catalog.h"
#include "workload/paper_presets.h"

int main(int argc, char** argv) {
  using namespace vod;
  FlagSet flags("vod_server_sim");
  flags.AddInt64("movies", 8, "catalog size");
  flags.AddDouble("rate", 4.0, "total arrivals per minute");
  flags.AddDouble("zipf", 1.0, "popularity skew exponent");
  flags.AddDouble("popular", 0.8,
                  "fraction of arrivals the popular (batched) set must cover");
  flags.AddInt64("reserve", 60, "dynamic VCR stream reserve");
  flags.AddBool("piggyback", false, "enable phase-2 piggyback merging");
  flags.AddDouble("measure", 10000.0, "measured minutes");
  flags.AddInt64("seed", 7, "base seed");
  VOD_CHECK_OK(flags.Parse(argc, argv));

  const auto catalog = Catalog::Synthetic(
      static_cast<int>(flags.GetInt64("movies")), flags.GetDouble("zipf"),
      flags.GetDouble("rate"), paper::Fig7MixedBehavior());
  VOD_CHECK_OK(catalog.status());

  const int popular_count =
      catalog->PopularSetSize(flags.GetDouble("popular"));
  std::printf("catalog: %zu titles, %.1f arrivals/min, Zipf(%.1f); the top "
              "%d titles cover %.0f%% of arrivals and get batching + "
              "buffering\n\n",
              catalog->size(), flags.GetDouble("rate"),
              flags.GetDouble("zipf"), popular_count,
              100.0 * flags.GetDouble("popular"));

  // --- size every popular title against its QoS targets --------------------
  std::vector<MovieSizingSpec> specs;
  for (int rank = 1; rank <= popular_count; ++rank) {
    const MovieEntry& entry = catalog->movie(rank);
    MovieSizingSpec spec;
    spec.name = entry.title;
    spec.length_minutes = entry.length_minutes;
    spec.max_wait_minutes = entry.max_wait_minutes;
    spec.min_hit_probability = entry.min_hit_probability;
    spec.mix = entry.behavior.mix;
    spec.durations = entry.behavior.durations;
    spec.rates = paper::Rates();
    specs.push_back(std::move(spec));
  }
  const int pure = PureBatchingStreams(specs);
  const auto sized = SizeSystem(specs, pure);
  VOD_CHECK_OK(sized.status());

  // --- one layout per sized title ------------------------------------------
  const auto reserve = flags.GetInt64("reserve");
  std::vector<ServerMovieSpec> server_movies;
  for (size_t i = 0; i < specs.size(); ++i) {
    const auto& allocation = sized->movies[i];
    const auto layout = PartitionLayout::FromMaxWait(
        specs[i].length_minutes, allocation.streams,
        specs[i].max_wait_minutes);
    VOD_CHECK_OK(layout.status());
    server_movies.push_back(
        {allocation.name, *layout,
         catalog->ArrivalRate(static_cast<int>(i) + 1), /*arrivals=*/nullptr,
         catalog->movie(static_cast<int>(i) + 1).behavior});
  }

  // --- one shared simulation over the whole popular set --------------------
  ServerOptions options;
  options.rates = paper::Rates();
  options.dynamic_stream_reserve = reserve;
  options.warmup_minutes = 1000.0;
  options.measurement_minutes = flags.GetDouble("measure");
  options.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  options.piggyback.enabled = flags.GetBool("piggyback");
  options.piggyback.speed_delta = 0.05;
  const auto report = RunServerSimulation(server_movies, options);
  VOD_CHECK_OK(report.status());

  TableWriter table({"movie", "l", "rate/min", "n", "B", "P(hit) sim",
                     "max wait", "blocked", "stalls", "viewers"});
  for (size_t i = 0; i < report->movies.size(); ++i) {
    const auto& m = report->movies[i];
    const auto& allocation = sized->movies[i];
    table.AddRow({m.name, FormatDouble(specs[i].length_minutes, 0),
                  FormatDouble(server_movies[i].arrival_rate_per_minute, 2),
                  std::to_string(allocation.streams),
                  FormatDouble(allocation.buffer_minutes, 1),
                  FormatDouble(m.report.hit_probability, 4),
                  FormatDouble(m.report.max_wait_minutes, 3),
                  std::to_string(m.report.blocked_vcr_requests),
                  std::to_string(m.report.stalled_resumes),
                  FormatDouble(m.report.mean_concurrent_viewers, 1)});
  }
  table.RenderText(std::cout);

  std::printf(
      "\npre-allocated: %lld batching streams + %.1f buffer-minutes "
      "(pure batching would need %d streams)\n",
      static_cast<long long>(sized->total_streams),
      sized->total_buffer_minutes, pure);
  std::printf("dynamic reserve: %lld streams, mean use %.1f, peak %lld, "
              "refusal probability %.4f (piggyback %s)\n",
              static_cast<long long>(report->reserve_capacity),
              report->mean_reserve_in_use,
              static_cast<long long>(report->peak_reserve_in_use),
              report->refusal_probability,
              options.piggyback.enabled ? "on" : "off");
  if (report->refusal_probability > 0.0) {
    std::printf("=> the reserve is undersized for this workload: %lld VCR "
                "requests were refused and %lld resumes stalled. Retry with "
                "a larger --reserve or with --piggyback.\n",
                static_cast<long long>(report->total_blocked_vcr),
                static_cast<long long>(report->total_stalls));
  }
  return 0;
}
