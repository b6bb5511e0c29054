// Ablation: display-speed sensitivity (the α and γ factors of Eq. 1).
//
// The paper fixes R_FF = R_RW = 3·R_PB. This bench sweeps the speeds and
// shows the catch-up factors at work: faster fast-forward lowers α toward 1
// (a duration covers more relative distance, overshooting the own window
// sooner but jumping farther), while faster rewind raises γ toward 1 (the
// PAU limit). Model and simulation move together throughout.

#include <cstdio>
#include <iostream>

#include "common/check.h"
#include "common/flags.h"
#include "common/table.h"
#include "core/hit_model.h"
#include "exp/experiment.h"
#include "sim/simulator.h"
#include "workload/paper_presets.h"

int main(int argc, char** argv) {
  using namespace vod;
  FlagSet flags("ablation_speed");
  flags.AddInt64("streams", 40, "partition count n");
  flags.AddDouble("wait", 1.0, "max wait w (minutes)");
  flags.AddBool("csv", false, "emit CSV");
  AddExperimentFlags(&flags);
  VOD_CHECK_OK(flags.Parse(argc, argv));

  const auto layout = PartitionLayout::FromMaxWait(
      paper::kFig7MovieLength, static_cast<int>(flags.GetInt64("streams")),
      flags.GetDouble("wait"));
  VOD_CHECK_OK(layout.status());

  std::printf("Ablation: P(hit) vs display speed, %s, gamma(2,4) durations\n\n",
              layout->ToString().c_str());

  struct SpeedPoint {
    VcrOp op;
    double speed;
  };
  std::vector<SpeedPoint> points;
  for (VcrOp op : {VcrOp::kFastForward, VcrOp::kRewind}) {
    for (double speed : {1.5, 2.0, 3.0, 5.0, 10.0}) points.push_back({op, speed});
  }
  const auto rates_for = [](const SpeedPoint& point) {
    PlaybackRates rates = paper::Rates();
    if (point.op == VcrOp::kFastForward) {
      rates.fast_forward = point.speed;
    } else {
      rates.rewind = point.speed;
    }
    return rates;
  };

  const auto experiment = ExperimentOptionsFromFlags(flags, /*base_seed=*/77);
  VOD_CHECK_OK(experiment.status());
  const auto reports = RunExperimentGrid(
      points, *experiment,
      [&](const SpeedPoint& point, const CellContext& context) {
        SimulationOptions options;
        options.mean_interarrival_minutes = paper::kFig7MeanInterarrival;
        options.behavior = paper::Fig7SingleOpBehavior(point.op);
        options.warmup_minutes = 1500.0;
        options.measurement_minutes = 20000.0;
        options.seed = context.seed;
        const auto report = RunSimulation(*layout, rates_for(point), options);
        VOD_CHECK_OK(report.status());
        return *report;
      });

  TableWriter table({"op", "speed", "alpha/gamma", "P(hit) model",
                     "P(hit) sim"});
  for (size_t i = 0; i < points.size(); ++i) {
    const SpeedPoint& point = points[i];
    const PlaybackRates rates = rates_for(point);
    const double factor =
        point.op == VcrOp::kFastForward ? rates.Alpha() : rates.Gamma();
    const auto model = AnalyticHitModel::Create(*layout, rates);
    VOD_CHECK_OK(model.status());
    const auto p_model = model->HitProbability(point.op, paper::Fig7Duration());
    VOD_CHECK_OK(p_model.status());

    table.AddRow({VcrOpName(point.op), FormatDouble(point.speed, 1),
                  FormatDouble(factor, 3), FormatDouble(*p_model, 4),
                  FormatDouble(reports[i][0].hit_probability_in_partition, 4)});
  }

  if (flags.GetBool("csv")) {
    table.RenderCsv(std::cout);
  } else {
    table.RenderText(std::cout);
  }
  return 0;
}
