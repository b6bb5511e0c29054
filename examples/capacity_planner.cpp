// Capacity planner: turn QoS targets plus a hardware parts list into a
// bill of materials (disks, memory, dollars) — the paper's system-sizing
// application, usable with modern hardware numbers.
//
//   ./build/examples/capacity_planner                     # 1997 defaults
//   ./build/examples/capacity_planner --disk_price=150 --disk_mbps=3000
//       --mem_price=0.003 --video_mbps=8              # roughly 2020s NVMe

#include <cstdio>
#include <iostream>

#include "common/check.h"
#include "common/flags.h"
#include "common/table.h"
#include "core/cost_model.h"
#include "core/erlang.h"
#include "core/sizing.h"
#include "sim/simulator.h"
#include "storage/disk_model.h"
#include "workload/paper_presets.h"

int main(int argc, char** argv) {
  using namespace vod;
  FlagSet flags("capacity_planner");
  flags.AddDouble("disk_price", 700.0, "disk price, dollars");
  flags.AddDouble("disk_gb", 2.0, "disk capacity, GB");
  flags.AddDouble("disk_mbps", 5.0, "disk transfer rate, MB/s");
  flags.AddDouble("mem_price", 25.0, "memory price, $/MB");
  flags.AddDouble("video_mbps", 4.0, "video bitrate, Mbit/s");
  VOD_CHECK_OK(flags.Parse(argc, argv));

  HardwareCosts costs;
  costs.disk_price_dollars = flags.GetDouble("disk_price");
  costs.disk_transfer_mbytes_per_sec = flags.GetDouble("disk_mbps");
  costs.memory_price_per_mbyte = flags.GetDouble("mem_price");
  costs.video_rate_mbits_per_sec = flags.GetDouble("video_mbps");
  VOD_CHECK_OK(costs.Validate());

  const auto disk_model = DiskModel::Create(
      DiskSpec{flags.GetDouble("disk_gb"), costs.disk_transfer_mbytes_per_sec,
               costs.disk_price_dollars},
      VideoFormat{costs.video_rate_mbits_per_sec});
  VOD_CHECK_OK(disk_model.status());

  std::printf("hardware: $%.0f disk (%.0f GB, %.0f MB/s), $%.3f/MB memory, "
              "%.0f Mbit/s video\n",
              costs.disk_price_dollars, flags.GetDouble("disk_gb"),
              costs.disk_transfer_mbytes_per_sec,
              costs.memory_price_per_mbyte, costs.video_rate_mbits_per_sec);
  std::printf("derived: %.1f streams/disk, C_n = $%.2f/stream, "
              "C_b = $%.2f/movie-min, phi = %.2f\n\n",
              costs.StreamsPerDisk(), costs.StreamCost(),
              costs.BufferCostPerMovieMinute(), costs.Phi());

  // QoS targets: the paper's Example 1 movies.
  const auto movies = paper::Example1Movies();
  std::vector<MovieAllocationBound> bounds;
  double catalog_minutes = 0.0;
  for (const auto& spec : movies) {
    const auto choice = MinimumBufferChoice(spec);
    VOD_CHECK_OK(choice.status());
    bounds.push_back({spec.name, spec.length_minutes, spec.max_wait_minutes,
                      choice->streams});
    catalog_minutes += spec.length_minutes;
  }

  // Pick the stream count minimizing cost at this phi, then translate the
  // allocation into hardware.
  const auto curve = ComputeCostCurve(bounds, costs.Phi(), 400);
  VOD_CHECK_OK(curve.status());
  const CostCurvePoint best = MinimumCostPoint(*curve);
  const auto allocation = AllocateStreamBudget(bounds, best.total_streams);
  VOD_CHECK_OK(allocation.status());

  TableWriter table({"movie", "streams", "buffer (min)", "buffer (MB)"});
  const double mb_per_minute = 60.0 * costs.video_rate_mbits_per_sec / 8.0;
  for (const auto& m : allocation->movies) {
    table.AddRow({m.name, std::to_string(m.streams),
                  FormatDouble(m.buffer_minutes, 1),
                  FormatDouble(m.buffer_minutes * mb_per_minute, 0)});
  }
  table.RenderText(std::cout);

  const int disks = disk_model->DisksRequired(catalog_minutes,
                                              allocation->total_streams);
  const double memory_mb = allocation->total_buffer_minutes * mb_per_minute;
  const double dollars = AllocationCostDollars(*allocation, costs);
  std::printf(
      "\nbill of materials for the cost-optimal point (%d streams):\n"
      "  disks : %d (storage needs %d, bandwidth needs %d)\n"
      "  memory: %.0f MB of buffer\n"
      "  cost  : $%.0f  (buffer $%.0f + streams $%.0f)\n",
      best.total_streams, disks, disk_model->DisksForStorage(catalog_minutes),
      disk_model->DisksForBandwidth(allocation->total_streams), memory_mb,
      dollars,
      costs.BufferCostPerMovieMinute() * allocation->total_buffer_minutes,
      costs.StreamCost() * allocation->total_streams);
  std::printf("  (at phi = %.2f the optimum sits at the %s end of the "
              "curve)\n",
              costs.Phi(),
              best.total_streams == curve->back().total_streams
                  ? "max-streams"
                  : best.total_streams == curve->front().total_streams
                        ? "min-streams"
                        : "interior");

  // --- dynamic VCR reserve sizing (Erlang-B) --------------------------------
  // Offered load = mean busy dedicated streams under unlimited supply,
  // measured with a quick calibration simulation per movie.
  double offered = 0.0;
  for (size_t i = 0; i < movies.size(); ++i) {
    const auto layout = PartitionLayout::FromMaxWait(
        movies[i].length_minutes, allocation->movies[i].streams,
        movies[i].max_wait_minutes);
    VOD_CHECK_OK(layout.status());
    SimulationOptions options;
    options.mean_interarrival_minutes = 1.0;  // planning assumption
    options.behavior.mix = VcrMix::PaperMixed();
    options.behavior.durations = movies[i].durations;
    options.behavior.interactivity = paper::DefaultInteractivity();
    options.warmup_minutes = 500.0;
    options.measurement_minutes = 8000.0;
    options.seed = 31337 + i;
    const auto report = RunSimulation(*layout, paper::Rates(), options);
    VOD_CHECK_OK(report.status());
    offered += report->mean_dedicated_streams;
  }
  std::printf("\nVCR reserve sizing: offered load %.1f Erlangs\n", offered);
  for (double target : {0.05, 0.01, 0.001}) {
    const auto reserve = MinStreamsForBlocking(offered, target);
    VOD_CHECK_OK(reserve.status());
    std::printf("  refusal target %.3f -> reserve %d streams "
                "(+%d disks, $%.0f)\n",
                target, *reserve,
                disk_model->DisksForBandwidth(*reserve),
                costs.StreamCost() * *reserve);
  }
  return 0;
}
