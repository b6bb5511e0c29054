// Extension: diurnal load.
//
// The paper assumes stationary Poisson arrivals. Two structural properties
// make its pre-allocation robust to real (time-varying) load, and this
// bench demonstrates both:
//   1. the QoS side (max wait = w, P(hit)) depends only on the restart
//      schedule and buffer geometry — it is load-INdependent;
//   2. the resource side (concurrent viewers, dedicated VCR streams)
//      scales linearly with the instantaneous arrival rate — so the VCR
//      reserve must be sized for the peak, not the average (offered-load
//      column feeds Erlang-B; see bench/ext_blocking).

#include <cstdio>
#include <iostream>

#include "common/check.h"
#include "common/flags.h"
#include "common/table.h"
#include "exp/experiment.h"
#include "sim/arrival_process.h"
#include "sim/simulator.h"
#include "workload/paper_presets.h"

int main(int argc, char** argv) {
  using namespace vod;
  FlagSet flags("ext_diurnal");
  flags.AddBool("csv", false, "emit CSV");
  AddExperimentFlags(&flags);
  VOD_CHECK_OK(flags.Parse(argc, argv));

  const auto layout = PartitionLayout::FromBuffer(120.0, 40, 80.0);
  VOD_CHECK_OK(layout.status());

  std::printf("Extension: load dependence, %s, mixed VCR workload\n\n",
              layout->ToString().c_str());

  // Quasi-static sweep over the day's instantaneous rates, plus one
  // genuinely non-stationary cell: a 24-hour sinusoid with 90% swing.
  struct LoadPoint {
    double rate = 0.0;   // constant Poisson rate, or
    bool diurnal = false;  // the sinusoidal day
  };
  const std::vector<LoadPoint> points = {{0.1, false},  {0.25, false},
                                         {0.5, false},  {1.0, false},
                                         {2.0, false},  {0.5, true}};
  const auto experiment = ExperimentOptionsFromFlags(flags, /*base_seed=*/606);
  VOD_CHECK_OK(experiment.status());
  const auto reports = RunExperimentGrid(
      points, *experiment,
      [&](const LoadPoint& point, const CellContext& context) {
        SimulationOptions options;
        if (point.diurnal) {
          const auto diurnal =
              SinusoidalArrivals::Create(point.rate, 0.9, 1440.0);
          VOD_CHECK_OK(diurnal.status());
          options.arrivals = std::make_shared<SinusoidalArrivals>(*diurnal);
        } else {
          options.arrivals = std::make_shared<PoissonArrivals>(point.rate);
        }
        options.behavior = paper::Fig7MixedBehavior();
        options.warmup_minutes = 1500.0;
        options.measurement_minutes = 25000.0;
        options.seed = context.seed;
        const auto report = RunSimulation(*layout, paper::Rates(), options);
        VOD_CHECK_OK(report.status());
        return *report;
      });

  TableWriter table({"arrivals/min", "viewers", "VCR streams (mean)",
                     "P(hit) in-partition", "max wait", "p99 wait"});
  for (size_t i = 0; i < points.size(); ++i) {
    if (points[i].diurnal) continue;
    const SimulationReport& report = reports[i][0];
    table.AddRow({FormatDouble(points[i].rate, 2),
                  FormatDouble(report.mean_concurrent_viewers, 1),
                  FormatDouble(report.mean_dedicated_streams, 2),
                  FormatDouble(report.hit_probability_in_partition, 4),
                  FormatDouble(report.max_wait_minutes, 3),
                  FormatDouble(report.p99_wait_minutes, 3)});
  }
  if (flags.GetBool("csv")) {
    table.RenderCsv(std::cout);
  } else {
    table.RenderText(std::cout);
  }

  const SimulationReport& report = reports.back()[0];
  std::printf("\nsinusoidal day (mean 0.5/min, swing ±90%%): "
              "P(hit) = %.4f, max wait = %.3f (guarantee %.3f), "
              "peak VCR streams = %.0f vs %.2f mean\n",
              report.hit_probability_in_partition,
              report.max_wait_minutes, layout->max_wait(),
              report.peak_dedicated_streams,
              report.mean_dedicated_streams);
  std::printf("=> QoS columns are flat in load; resource columns scale "
              "with it. Size reserves for the peak.\n");
  return 0;
}
