// vodctl reproduce — the paper's eight evaluation artifacts and the ten
// ablations and extensions (tools/reproduce_extensions.cc) from one table.
//
//   vodctl reproduce                          # all eighteen, DESIGN.md §4 order
//   vodctl reproduce --artifact=fig7b --csv
//
// Each artifact runs at fixed constants: the paper's parameters, and ours
// where the paper leaves one unstated (EXPERIMENTS.md names which). Its
// output is therefore a function of the build alone, which lets
// data/paper_artifacts.csv hold `vodctl reproduce --csv` byte for byte.

#include "tools/reproduce.h"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/table.h"
#include "core/cost_model.h"
#include "core/hit_model.h"
#include "core/sizing.h"
#include "exp/experiment.h"
#include "sim/simulator.h"
#include "storage/disk_model.h"
#include "workload/paper_presets.h"

namespace vod {

void RenderTable(const TableWriter& table, bool csv) {
  if (csv) {
    table.RenderCsv(std::cout);
  } else {
    table.RenderText(std::cout);
  }
}

namespace {

// ---- Figure 7: model vs simulation over n, for several w (§4) -------------
//
// The paper states neither its w values nor its run length. One run per
// point, so each sim column carries that run's own Wilson interval. The
// cells fan out over every core; results never depend on the thread count.

constexpr double kFig7Waits[] = {0.5, 1.0, 2.0};
/// n runs 10, 20, 30, ... while n·w < l.
constexpr int kFig7StreamStep = 10;
constexpr uint64_t kFig7Seed = 20240707;
constexpr double kFig7WarmupMinutes = 2000.0;
constexpr double kFig7MeasureMinutes = 30000.0;

Status PrintFig7(const char* figure, const char* description,
                 const VcrBehavior& behavior, const VcrMix& mix, bool csv) {
  std::printf("Figure %s: P(hit) vs number of partitions n — %s\n", figure,
              description);
  std::printf("l = %.0f min, 1/lambda = %.0f min, durations gamma(2,4) "
              "(mean 8), R_FF = R_RW = 3 R_PB\n\n",
              paper::kFig7MovieLength, paper::kFig7MeanInterarrival);

  struct Point {
    double w;
    PartitionLayout layout;
  };
  std::vector<Point> points;
  for (double w : kFig7Waits) {
    for (int n = kFig7StreamStep; n * w < paper::kFig7MovieLength;
         n += kFig7StreamStep) {
      VOD_ASSIGN_OR_RETURN(
          const PartitionLayout layout,
          PartitionLayout::FromMaxWait(paper::kFig7MovieLength, n, w));
      points.push_back({w, layout});
    }
  }

  ExperimentOptions experiment;
  experiment.base_seed = kFig7Seed;
  const auto reports = RunExperimentGrid(
      points, experiment, [&](const Point& point, const CellContext& context) {
        SimulationOptions options;
        options.mean_interarrival_minutes = paper::kFig7MeanInterarrival;
        options.behavior = behavior;
        options.warmup_minutes = kFig7WarmupMinutes;
        options.measurement_minutes = kFig7MeasureMinutes;
        options.seed = context.seed;
        const auto report =
            RunSimulation(point.layout, paper::Rates(), options);
        VOD_CHECK_OK(report.status());
        return *report;
      });

  TableWriter table({"w", "n", "B", "P(hit) model", "P(hit) sim",
                     "sim 95% lo", "sim 95% hi", "resumes"});
  const auto durations = VcrDurations::AllSame(paper::Fig7Duration());
  for (size_t i = 0; i < points.size(); ++i) {
    const PartitionLayout& layout = points[i].layout;
    VOD_ASSIGN_OR_RETURN(const AnalyticHitModel model,
                         AnalyticHitModel::Create(layout, paper::Rates()));
    VOD_ASSIGN_OR_RETURN(const double p_model,
                         model.HitProbability(mix, durations));
    const SimulationReport& sim = reports[i][0];
    table.AddRow({FormatDouble(points[i].w, 1),
                  std::to_string(layout.streams()),
                  FormatDouble(layout.buffer_minutes(), 0),
                  FormatDouble(p_model, 4),
                  FormatDouble(sim.hit_probability_in_partition, 4),
                  FormatDouble(sim.hit_probability_in_partition_low, 4),
                  FormatDouble(sim.hit_probability_in_partition_high, 4),
                  std::to_string(sim.in_partition_resumes)});
  }
  RenderTable(table, csv);
  return Status::OK();
}

// ---- Figure 8: feasible (B, n) pairs for Example 1's movies (§5) ----------
//
// A pair is feasible when P(hit) >= P* = 0.5. The rightmost feasible point
// per movie (minimum buffer, maximum streams) is the one Example 1's
// optimizer selects.

/// The paper's buffer step, in minutes.
constexpr double kFig8BufferStep = 5.0;

Status PrintFig8(bool csv) {
  std::printf("Figure 8: feasible (B, n) pairs per movie, %.0f-minute "
              "buffer step, P* = 0.5\n\n",
              kFig8BufferStep);

  TableWriter table({"movie", "l", "w", "B", "n", "P(hit)", "feasible"});
  for (const MovieSizingSpec& spec : paper::Example1Movies()) {
    for (double buffer = kFig8BufferStep; buffer < spec.length_minutes;
         buffer += kFig8BufferStep) {
      // Eq. (2): n = (l − B)/w, rounded to the nearest integer stream count.
      const int streams = static_cast<int>(std::lround(
          (spec.length_minutes - buffer) / spec.max_wait_minutes));
      if (streams < 1) continue;
      const auto layout = PartitionLayout::FromMaxWait(
          spec.length_minutes, streams, spec.max_wait_minutes);
      if (!layout.ok()) continue;
      VOD_ASSIGN_OR_RETURN(const AnalyticHitModel model,
                           AnalyticHitModel::Create(*layout, spec.rates));
      VOD_ASSIGN_OR_RETURN(const double p,
                           model.HitProbability(spec.mix, spec.durations));
      table.AddRow({spec.name, FormatDouble(spec.length_minutes, 0),
                    FormatDouble(spec.max_wait_minutes, 2),
                    FormatDouble(layout->buffer_minutes(), 1),
                    std::to_string(streams), FormatDouble(p, 4),
                    p >= spec.min_hit_probability ? "yes" : "no"});
    }
  }
  RenderTable(table, csv);
  return Status::OK();
}

// ---- Example 1: allocation vs pure batching (§5) --------------------------
//
// The paper's [(B, n)] = [(39, 360), (30, 60), (44.5, 182)] depends on a
// VCR-operation mix it leaves unstated, so the FF-only sizing (the
// operation the paper derives) and the Fig 7(d) mixed sizing print side by
// side.

Status PrintExample1Case(const char* label,
                         const std::vector<MovieSizingSpec>& movies,
                         bool csv) {
  const int pure = PureBatchingStreams(movies);
  VOD_ASSIGN_OR_RETURN(const AllocationResult sized, SizeSystem(movies, pure));

  std::printf("--- %s ---\n", label);
  TableWriter table({"movie", "B* (min)", "n*", "P(hit) at (B*, n*)"});
  for (const MovieSizingSpec& movie : movies) {
    VOD_ASSIGN_OR_RETURN(const SizingPoint choice, MinimumBufferChoice(movie));
    table.AddRow({movie.name, FormatDouble(choice.buffer_minutes, 1),
                  std::to_string(choice.streams),
                  FormatDouble(choice.hit_probability, 4)});
  }
  RenderTable(table, csv);
  std::printf(
      "pure batching baseline : %4d streams, 0 buffer, P(hit) = 0\n"
      "sized allocation       : %4d streams, %.1f buffer-minutes\n"
      "streams saved          : %4d (%.0f%%)\n\n",
      pure, sized.total_streams, sized.total_buffer_minutes,
      pure - sized.total_streams,
      100.0 * (pure - sized.total_streams) / pure);
  return Status::OK();
}

Status PrintExample1(bool csv) {
  std::printf("Example 1: resource pre-allocation for movies "
              "{75, 60, 90} min, w = {0.1, 0.5, 0.25} min, P* = 0.5\n"
              "paper reference: [(39, 360), (30, 60), (44.5, 182)], "
              "113.5 buffer-minutes, 602 streams vs 1230 pure batching\n\n");
  VOD_RETURN_IF_ERROR(PrintExample1Case(
      "FF-only sizing (the operation the paper derives)",
      paper::Example1Movies(VcrMix::Only(VcrOp::kFastForward)), csv));
  return PrintExample1Case("mixed sizing (P_FF=0.2, P_RW=0.2, P_PAU=0.6)",
                           paper::Example1Movies(VcrMix::PaperMixed()), csv);
}

// ---- Example 2: cost constants from the 1997 parts list (§5) --------------

Status PrintExample2(bool csv) {
  const HardwareCosts costs;  // the paper's parts list
  std::printf("Example 2: cost constants from hardware parameters\n");
  std::printf("paper reference: C_b = $750/movie-minute, C_n = $70/stream, "
              "phi ~= 11\n\n");

  TableWriter table({"quantity", "value"});
  table.AddRow({"disk price ($)", FormatDouble(costs.disk_price_dollars, 0)});
  table.AddRow({"disk transfer (MB/s)",
                FormatDouble(costs.disk_transfer_mbytes_per_sec, 1)});
  table.AddRow({"memory price ($/MB)",
                FormatDouble(costs.memory_price_per_mbyte, 2)});
  table.AddRow({"video rate (Mbit/s)",
                FormatDouble(costs.video_rate_mbits_per_sec, 1)});
  table.AddRow({"streams per disk", FormatDouble(costs.StreamsPerDisk(), 1)});
  table.AddRow({"C_n ($/stream)", FormatDouble(costs.StreamCost(), 2)});
  table.AddRow({"C_b ($/movie-minute)",
                FormatDouble(costs.BufferCostPerMovieMinute(), 2)});
  table.AddRow({"phi = C_b / C_n", FormatDouble(costs.Phi(), 2)});

  VOD_ASSIGN_OR_RETURN(
      const DiskModel disk_model,
      DiskModel::Create(DiskSpec{2.0, costs.disk_transfer_mbytes_per_sec,
                                 costs.disk_price_dollars},
                        VideoFormat{costs.video_rate_mbits_per_sec}));
  table.AddRow({"storage minutes per 2GB disk",
                FormatDouble(disk_model.StorageMinutesPerDisk(), 1)});

  // Price the Example 1 allocation with these constants.
  const auto movies = paper::Example1Movies();
  VOD_ASSIGN_OR_RETURN(const AllocationResult sized,
                       SizeSystem(movies, PureBatchingStreams(movies)));
  table.AddRow({"Example-1 allocation streams",
                std::to_string(sized.total_streams)});
  table.AddRow({"Example-1 allocation buffer (min)",
                FormatDouble(sized.total_buffer_minutes, 1)});
  table.AddRow({"Example-1 allocation cost ($)",
                FormatDouble(AllocationCostDollars(sized, costs), 0)});
  table.AddRow({"disks for its bandwidth",
                std::to_string(disk_model.DisksForBandwidth(
                    sized.total_streams))});
  RenderTable(table, csv);
  return Status::OK();
}

// ---- Figure 9(a)–(f): normalized cost φ·ΣB + Σn vs total streams (§5) -----
//
// Paper §5: for large φ (memory dominates, 9(e) and 9(f)) the minimum sits
// at the maximum feasible stream count; for small φ it moves into the
// interior of the curve.

constexpr int kFig9PointsPerCurve = 25;

Status PrintFig9(bool csv) {
  // Per-movie feasibility bounds from the sizing model (P* = 0.5).
  std::vector<MovieAllocationBound> bounds;
  for (const MovieSizingSpec& spec : paper::Example1Movies()) {
    VOD_ASSIGN_OR_RETURN(const SizingPoint choice, MinimumBufferChoice(spec));
    bounds.push_back({spec.name, spec.length_minutes, spec.max_wait_minutes,
                      choice.streams});
  }

  std::printf("Figure 9: system cost vs number of I/O streams "
              "(Example 1 movie set, P* = 0.5)\n\n");

  TableWriter table({"phi", "streams", "buffer (min)", "cost (phi*B + n)",
                     "minimum?"});
  char subfigure = 'a';
  for (double phi : paper::Fig9PhiValues()) {
    VOD_ASSIGN_OR_RETURN(const std::vector<CostCurvePoint> curve,
                         ComputeCostCurve(bounds, phi, kFig9PointsPerCurve));
    const CostCurvePoint best = MinimumCostPoint(curve);
    std::printf("Figure 9(%c): phi = %.0f -> minimum cost %.0f at %d "
                "streams (%s)\n",
                subfigure++, phi, best.normalized_cost, best.total_streams,
                best.total_streams == curve.back().total_streams
                    ? "maximum feasible streams"
                    : "interior optimum");
    for (const CostCurvePoint& point : curve) {
      table.AddRow({FormatDouble(phi, 0), std::to_string(point.total_streams),
                    FormatDouble(point.total_buffer_minutes, 1),
                    FormatDouble(point.normalized_cost, 1),
                    point.total_streams == best.total_streams ? "*" : ""});
    }
  }
  std::printf("\n");
  RenderTable(table, csv);
  return Status::OK();
}

// ---- the table -------------------------------------------------------------

struct Artifact {
  const char* name;       ///< the --artifact value
  const char* reference;  ///< where the paper, or DESIGN.md §4, has it
  Status (*print)(bool csv);
};

/// DESIGN.md §4's order, which --artifact=all prints: the paper's artifacts,
/// then the ablations and extensions.
const Artifact kArtifacts[] = {
    {"fig7a", "Fig 7(a)",
     [](bool csv) {
       return PrintFig7("7(a)", "fast-forward (FF) requests only",
                        paper::Fig7SingleOpBehavior(VcrOp::kFastForward),
                        VcrMix::Only(VcrOp::kFastForward), csv);
     }},
    {"fig7b", "Fig 7(b)",
     [](bool csv) {
       return PrintFig7("7(b)", "rewind (RW) requests only",
                        paper::Fig7SingleOpBehavior(VcrOp::kRewind),
                        VcrMix::Only(VcrOp::kRewind), csv);
     }},
    {"fig7c", "Fig 7(c)",
     [](bool csv) {
       return PrintFig7("7(c)", "pause (PAU) requests only",
                        paper::Fig7SingleOpBehavior(VcrOp::kPause),
                        VcrMix::Only(VcrOp::kPause), csv);
     }},
    {"fig7d", "Fig 7(d)",
     [](bool csv) {
       return PrintFig7("7(d)",
                        "mixed workload (P_FF=0.2, P_RW=0.2, P_PAU=0.6)",
                        paper::Fig7MixedBehavior(), VcrMix::PaperMixed(),
                        csv);
     }},
    {"fig8", "Fig 8", PrintFig8},
    {"example1", "Example 1", PrintExample1},
    {"example2", "Example 2", PrintExample2},
    {"fig9", "Fig 9(a)-(f)", PrintFig9},
    {"interactivity", "X1", PrintInteractivity},
    {"population", "X2", PrintPopulation},
    {"speed", "X3", PrintSpeed},
    {"piggyback", "X4", PrintPiggyback},
    {"blocking", "X5", PrintBlocking},
    {"duration_shape", "X6", PrintDurationShape},
    {"diurnal", "X7", PrintDiurnal},
    {"abandonment", "X8", PrintAbandonment},
    {"failures", "X9", PrintFailures},
    {"drift", "X10", PrintDrift},
};

}  // namespace

Result<int> ReproduceCommand(int argc, char** argv) {
  std::string names = "all";
  for (const Artifact& artifact : kArtifacts) {
    names += std::string(", ") + artifact.name + " (" + artifact.reference +
             ")";
  }
  FlagSet flags("vodctl reproduce");
  flags.AddString("artifact", "all", "the artifact to print: " + names +
                  "; all prints every one, in this order");
  flags.AddBool("csv", false, "CSV tables instead of aligned text");
  VOD_RETURN_IF_ERROR(flags.Parse(argc, argv));

  const std::string& wanted = flags.GetString("artifact");
  bool found = false;
  for (const Artifact& artifact : kArtifacts) {
    if (wanted != "all" && wanted != artifact.name) continue;
    found = true;
    VOD_RETURN_IF_ERROR(artifact.print(flags.GetBool("csv")));
  }
  if (!found) {
    return Status::InvalidArgument("--artifact=" + wanted +
                                   " is not one of " + names);
  }
  return 0;
}

}  // namespace vod
