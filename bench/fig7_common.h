// Shared harness for the Figure 7 validation benches (7a–7d).
//
// Each bench sweeps the number of partitions n for several maximum-wait
// targets w, printing the analytic model prediction next to the simulated
// estimate — the same series the paper plots. The simulation cells fan out
// over the replication harness (src/exp): `--threads=N` changes only
// wall-clock, never a digit of the table, and `--replications=R` averages R
// decorrelated runs per point with a Student-t interval instead of the
// single-run Wilson interval.

#ifndef VOD_BENCH_FIG7_COMMON_H_
#define VOD_BENCH_FIG7_COMMON_H_

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/table.h"
#include "core/hit_model.h"
#include "exp/experiment.h"
#include "exp/replication.h"
#include "sim/simulator.h"
#include "workload/paper_presets.h"

namespace vod {
namespace bench {

struct Fig7Config {
  std::string figure;       // e.g. "7(a)"
  std::string description;  // e.g. "fast-forward only"
  VcrBehavior behavior;
  VcrMix mix;
};

inline int RunFig7(int argc, char** argv, const Fig7Config& config) {
  FlagSet flags("fig7_validation");
  flags.AddInt64("seed", 20240707, "base RNG seed for the simulations");
  flags.AddDouble("warmup", 2000.0, "simulation warmup (minutes)");
  flags.AddDouble("measure", 30000.0, "simulation measurement span (minutes)");
  flags.AddBool("csv", false, "emit CSV instead of an aligned table");
  flags.AddInt64("n_step", 10, "stride of the partition-count sweep");
  AddExperimentFlags(&flags, /*with_replications=*/true);
  VOD_CHECK_OK(flags.Parse(argc, argv));

  std::printf("Figure %s: P(hit) vs number of partitions n — %s\n",
              config.figure.c_str(), config.description.c_str());
  std::printf("l = %.0f min, 1/lambda = %.0f min, durations gamma(2,4) "
              "(mean 8), R_FF = R_RW = 3 R_PB\n\n",
              paper::kFig7MovieLength, paper::kFig7MeanInterarrival);

  struct SweepPoint {
    double w = 0.0;
    int n = 0;
  };
  std::vector<SweepPoint> points;
  for (double w : {0.5, 1.0, 2.0}) {
    for (int n = 10; n * w < paper::kFig7MovieLength;
         n += static_cast<int>(flags.GetInt64("n_step"))) {
      points.push_back({w, n});
    }
  }

  const auto parsed = ExperimentOptionsFromFlags(
      flags, static_cast<uint64_t>(flags.GetInt64("seed")));
  VOD_CHECK_OK(parsed.status());
  const ExperimentOptions& experiment = *parsed;
  const double warmup = flags.GetDouble("warmup");
  const double measure = flags.GetDouble("measure");
  const auto reports = RunExperimentGrid(
      points, experiment,
      [&](const SweepPoint& point, const CellContext& context) {
        const auto layout = PartitionLayout::FromMaxWait(
            paper::kFig7MovieLength, point.n, point.w);
        VOD_CHECK_OK(layout.status());
        SimulationOptions options;
        options.mean_interarrival_minutes = paper::kFig7MeanInterarrival;
        options.behavior = config.behavior;
        options.warmup_minutes = warmup;
        options.measurement_minutes = measure;
        options.seed = context.seed;
        const auto report = RunSimulation(*layout, paper::Rates(), options);
        VOD_CHECK_OK(report.status());
        return *report;
      });

  TableWriter table({"w", "n", "B", "P(hit) model", "P(hit) sim",
                     "sim 95% lo", "sim 95% hi", "resumes"});
  const auto durations = VcrDurations::AllSame(paper::Fig7Duration());
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& point = points[i];
    const auto layout = PartitionLayout::FromMaxWait(paper::kFig7MovieLength,
                                                     point.n, point.w);
    VOD_CHECK_OK(layout.status());
    const auto model = AnalyticHitModel::Create(*layout, paper::Rates());
    VOD_CHECK_OK(model.status());
    const auto p_model = model->HitProbability(config.mix, durations);
    VOD_CHECK_OK(p_model.status());

    double p_sim = 0.0, lo = 0.0, hi = 0.0;
    int64_t resumes = 0;
    if (reports[i].size() == 1) {
      // Single replication: the run's own Wilson interval.
      const SimulationReport& report = reports[i][0];
      p_sim = report.hit_probability_in_partition;
      lo = report.hit_probability_in_partition_low;
      hi = report.hit_probability_in_partition_high;
      resumes = report.in_partition_resumes;
    } else {
      const auto summary = SummarizeReplications(reports[i]);
      const auto metric = summary.hit_probability_in_partition();
      p_sim = metric.mean;
      lo = metric.lower();
      hi = metric.upper();
      resumes = summary.total_in_partition_resumes();
    }
    table.AddRow({FormatDouble(point.w, 1), std::to_string(point.n),
                  FormatDouble(layout->buffer_minutes(), 0),
                  FormatDouble(*p_model, 4), FormatDouble(p_sim, 4),
                  FormatDouble(lo, 4), FormatDouble(hi, 4),
                  std::to_string(resumes)});
  }

  if (flags.GetBool("csv")) {
    table.RenderCsv(std::cout);
  } else {
    table.RenderText(std::cout);
  }
  return 0;
}

}  // namespace bench
}  // namespace vod

#endif  // VOD_BENCH_FIG7_COMMON_H_
