// Extension: piggyback merging as the phase-2 fallback for misses.
//
// The paper (§2) leaves miss-viewers holding their dedicated stream "until
// [they] can join a partition, for instance, using the piggybacking
// technique" and cites adaptive piggybacking (Golubchik–Lui–Muntz) without
// evaluating it. This bench closes that loop: sweeping the speed offset Δ,
// it measures the dedicated-stream demand with and without merging, plus
// the mean drift time against the analytic w/(4Δ) expectation.

#include <cstdio>
#include <iostream>

#include "common/check.h"
#include "common/flags.h"
#include "common/table.h"
#include "core/piggyback.h"
#include "exp/experiment.h"
#include "sim/simulator.h"
#include "workload/paper_presets.h"

int main(int argc, char** argv) {
  using namespace vod;
  FlagSet flags("ext_piggyback");
  flags.AddInt64("streams", 40, "partition count n");
  flags.AddDouble("buffer", 40.0, "buffer minutes B (small => miss-heavy)");
  flags.AddBool("csv", false, "emit CSV");
  AddExperimentFlags(&flags);
  VOD_CHECK_OK(flags.Parse(argc, argv));

  const auto layout = PartitionLayout::FromBuffer(
      paper::kFig7MovieLength, static_cast<int>(flags.GetInt64("streams")),
      flags.GetDouble("buffer"));
  VOD_CHECK_OK(layout.status());

  std::printf("Extension: phase-2 piggyback merging, %s\n",
              layout->ToString().c_str());
  std::printf("mixed VCR workload; 'streams' = mean dedicated streams "
              "pinned by VCR activity\n\n");

  const std::vector<double> deltas = {0.0, 0.02, 0.05, 0.10, 0.20};
  const auto experiment = ExperimentOptionsFromFlags(flags, /*base_seed=*/31);
  VOD_CHECK_OK(experiment.status());
  const auto reports = RunExperimentGrid(
      deltas, *experiment,
      [&](double delta, const CellContext& context) {
        SimulationOptions options;
        options.mean_interarrival_minutes = paper::kFig7MeanInterarrival;
        options.behavior = paper::Fig7MixedBehavior();
        options.warmup_minutes = 2000.0;
        options.measurement_minutes = 30000.0;
        options.seed = context.seed;
        options.piggyback.enabled = delta > 0.0;
        options.piggyback.speed_delta = delta > 0.0 ? delta : 0.05;
        const auto report = RunSimulation(*layout, paper::Rates(), options);
        VOD_CHECK_OK(report.status());
        return *report;
      });

  TableWriter table({"delta", "streams (mean)", "streams (peak)", "merges",
                     "mean merge (min)", "analytic w/(4*delta)", "misses"});
  for (size_t i = 0; i < deltas.size(); ++i) {
    const double delta = deltas[i];
    const SimulationReport& report = reports[i][0];

    PiggybackOptions analytic_options;
    analytic_options.enabled = delta > 0.0;
    analytic_options.speed_delta = delta > 0.0 ? delta : 0.05;
    const double analytic =
        delta > 0.0
            ? ExpectedPiggybackMergeMinutes(*layout, analytic_options)
            : 0.0;

    table.AddRow({FormatDouble(delta, 2),
                  FormatDouble(report.mean_dedicated_streams, 2),
                  FormatDouble(report.peak_dedicated_streams, 0),
                  std::to_string(report.piggyback_merges),
                  FormatDouble(report.mean_merge_minutes, 2),
                  delta > 0.0 ? FormatDouble(analytic, 2) : "-",
                  std::to_string(report.misses)});
  }

  if (flags.GetBool("csv")) {
    table.RenderCsv(std::cout);
  } else {
    table.RenderText(std::cout);
  }
  std::printf("\nWithout merging (delta = 0) a miss pins its stream until "
              "the movie ends; with a 5%% speed offset it is released after "
              "~w/(4*0.05) minutes of drift.\n");
  return 0;
}
