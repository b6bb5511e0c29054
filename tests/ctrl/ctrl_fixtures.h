// Scenarios shared by the controller's tests: Poisson feeds for the rate
// estimator, and the three-movie server the property and rate tests run,
// with and without a flash crowd.

#ifndef VOD_TESTS_CTRL_CTRL_FIXTURES_H_
#define VOD_TESTS_CTRL_CTRL_FIXTURES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/partition_layout.h"
#include "ctrl/controller.h"
#include "ctrl/rate_estimator.h"
#include "gtest/gtest.h"
#include "sim/arrival_process.h"
#include "sim/server.h"
#include "workload/paper_presets.h"

namespace vod {

// Feeds Poisson(rate) arrivals over `minutes`, returns the final time.
inline double FeedPoisson(RateEstimator* estimator, double rate,
                          double minutes, Rng* rng, double t0 = 0.0) {
  double t = t0;
  for (;;) {
    t += rng->Exponential(1.0 / rate);
    if (t > t0 + minutes) return t0 + minutes;
    estimator->Observe(t);
  }
}

// Three movies at 0.3, 0.15 and 0.1 arrivals a minute with the paper's
// mixed VCR behavior.
inline std::vector<ServerMovieSpec> ThreeMovies() {
  std::vector<ServerMovieSpec> movies;
  const double rates[] = {0.3, 0.15, 0.1};
  const int streams[] = {14, 9, 7};
  for (int i = 0; i < 3; ++i) {
    auto layout = PartitionLayout::FromMaxWait(120.0, streams[i], 1.0);
    VOD_CHECK_OK(layout.status());
    movies.push_back({"m" + std::to_string(i), *layout, rates[i],
                      /*arrivals=*/nullptr, paper::Fig7MixedBehavior()});
  }
  return movies;
}

inline ServerOptions BaseOptions(uint64_t seed) {
  ServerOptions options;
  options.rates = paper::Rates();
  options.dynamic_stream_reserve = 20;
  options.warmup_minutes = 100.0;
  options.measurement_minutes = 2000.0;
  options.seed = seed;
  options.degradation.enabled = true;
  options.degradation.queue_deadline_minutes = 5.0;
  return options;
}

// ThreeMovies with a 4x flash crowd on the first from minute 200 to 1400,
// over 3000 measured minutes, with the controller on and the audit checking
// every law (a violated law fails the run).
inline Result<ServerReport> RunFlashCrowd(uint64_t seed) {
  std::vector<ServerMovieSpec> movies = ThreeMovies();
  const auto flash = FlashArrivals::Create(
      movies[0].arrival_rate_per_minute, /*peak_factor=*/4.0,
      /*start_minutes=*/200.0, /*duration_minutes=*/1200.0);
  VOD_CHECK_OK(flash.status());
  movies[0].arrivals = std::make_shared<FlashArrivals>(*flash);

  ServerOptions options = BaseOptions(seed);
  options.measurement_minutes = 3000.0;
  options.controller.enabled = true;
  options.audit.enabled = true;
  return RunServerSimulation(movies, options);
}

// What a flash crowd makes the controller do at every seed: re-plan and
// migrate, and end every migration it starts.
inline void ExpectControllerActed(const ControllerReport& c, uint64_t seed) {
  EXPECT_TRUE(c.Active()) << "seed " << seed;
  EXPECT_GT(c.plans_solved, 0) << "seed " << seed;
  EXPECT_GT(c.migrations_committed, 0) << "seed " << seed;
  EXPECT_EQ(c.migrations_started, c.migrations_committed + c.rollbacks)
      << "seed " << seed
      << ": every started migration must end committed or rolled back";
}

}  // namespace vod

#endif  // VOD_TESTS_CTRL_CTRL_FIXTURES_H_
