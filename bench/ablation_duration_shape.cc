// Ablation: does P(hit) depend on the VCR-duration distribution beyond its
// mean?
//
// The paper's model is general in f(x) and its evaluation uses exponential
// and gamma durations. This bench fixes the mean at 8 minutes and sweeps
// the *shape*: deterministic, uniform, gamma, exponential, lognormal, and
// heavy-tailed Lomax. Coverage intuition says only the mean should matter
// for large n; the model (confirmed by simulation) shows the shape does
// matter near the boundaries — heavy tails push more mass past the movie
// end (FF releases) and past the movie start (RW misses).

#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/check.h"
#include "common/flags.h"
#include "common/table.h"
#include "core/hit_model.h"
#include "dist/deterministic.h"
#include "dist/exponential.h"
#include "dist/gamma.h"
#include "dist/lognormal.h"
#include "dist/pareto.h"
#include "dist/uniform.h"
#include "exp/experiment.h"
#include "sim/simulator.h"
#include "workload/paper_presets.h"

int main(int argc, char** argv) {
  using namespace vod;
  FlagSet flags("ablation_duration_shape");
  flags.AddInt64("streams", 40, "partition count n");
  flags.AddDouble("wait", 1.0, "max wait w (minutes)");
  flags.AddDouble("mean", 8.0, "common duration mean (minutes)");
  flags.AddBool("csv", false, "emit CSV");
  AddExperimentFlags(&flags);
  VOD_CHECK_OK(flags.Parse(argc, argv));
  const double mean = flags.GetDouble("mean");

  const auto layout = PartitionLayout::FromMaxWait(
      paper::kFig7MovieLength, static_cast<int>(flags.GetInt64("streams")),
      flags.GetDouble("wait"));
  VOD_CHECK_OK(layout.status());
  const auto model = AnalyticHitModel::Create(*layout, paper::Rates());
  VOD_CHECK_OK(model.status());

  std::printf("Ablation: P(hit) across equal-mean (%.0f min) duration "
              "shapes, %s\n\n",
              mean, layout->ToString().c_str());

  struct Case {
    const char* label;
    DistributionPtr dist;
  };
  // lognormal(mu, sigma) with mean 8: mu = ln(8) − sigma²/2.
  const double sigma = 1.0;
  const std::vector<Case> cases = {
      {"deterministic", std::make_shared<DeterministicDistribution>(mean)},
      {"uniform(0,2m)", std::make_shared<UniformDistribution>(0.0, 2 * mean)},
      {"gamma(2, m/2)", std::make_shared<GammaDistribution>(2.0, mean / 2)},
      {"exponential", std::make_shared<ExponentialDistribution>(mean)},
      {"lognormal", std::make_shared<LognormalDistribution>(
                        std::log(mean) - 0.5 * sigma * sigma, sigma)},
      {"lomax(2.5)", std::make_shared<LomaxDistribution>(
                         LomaxDistribution::FromMean(mean, 2.5))},
  };

  const auto experiment =
      ExperimentOptionsFromFlags(flags, /*base_seed=*/20240708);
  VOD_CHECK_OK(experiment.status());
  const auto reports = RunExperimentGrid(
      cases, *experiment,
      [&](const Case& c, const CellContext& context) {
        SimulationOptions options;
        options.behavior.mix = VcrMix::Only(VcrOp::kFastForward);
        options.behavior.durations = VcrDurations::AllSame(c.dist);
        options.behavior.interactivity = paper::DefaultInteractivity();
        options.warmup_minutes = 1500.0;
        options.measurement_minutes = 20000.0;
        options.seed = context.seed;
        const auto report = RunSimulation(*layout, paper::Rates(), options);
        VOD_CHECK_OK(report.status());
        return *report;
      });

  TableWriter table({"duration shape", "P(hit|FF)", "(end part)",
                     "P(hit|RW)", "P(hit|PAU)", "sim P(hit|FF)"});
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const auto ff = model->Breakdown(VcrOp::kFastForward, c.dist);
    const auto rw = model->HitProbability(VcrOp::kRewind, c.dist);
    const auto pau = model->HitProbability(VcrOp::kPause, c.dist);
    VOD_CHECK_OK(ff.status());
    VOD_CHECK_OK(rw.status());
    VOD_CHECK_OK(pau.status());

    table.AddRow({c.label, FormatDouble(ff->total(), 4),
                  FormatDouble(ff->end, 4), FormatDouble(*rw, 4),
                  FormatDouble(*pau, 4),
                  FormatDouble(reports[i][0].hit_probability_in_partition, 4)});
  }

  if (flags.GetBool("csv")) {
    table.RenderCsv(std::cout);
  } else {
    table.RenderText(std::cout);
  }
  return 0;
}
