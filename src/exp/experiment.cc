#include "exp/experiment.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/rng.h"

namespace vod {

uint64_t CellSeed(uint64_t base_seed, uint64_t config_index,
                  uint64_t replication) {
  // Same discipline as Rng::MakeChild: mix the parent seed with the stream
  // identity through SplitMix64 so neighboring indices land in decorrelated
  // states. Distinct non-commutative constants keep (config, replication)
  // and (replication, config) apart.
  SplitMix64 config_mixer(base_seed ^
                          (config_index * 0x9E3779B97F4A7C15ULL));
  const uint64_t config_stream = config_mixer.Next();
  SplitMix64 cell_mixer(config_stream ^
                        (replication * 0xC2B2AE3D27D4EB4FULL));
  return cell_mixer.Next();
}

int ResolveThreadCount(int requested, int64_t cells) {
  int threads = requested <= 0 ? ThreadPool::DefaultParallelism() : requested;
  threads = static_cast<int>(
      std::min<int64_t>(threads, std::max<int64_t>(cells, 1)));
  return std::max(threads, 1);
}

void AddExperimentFlags(FlagSet* flags) {
  flags->AddInt64("threads", 0,
                  "worker threads for the simulation sweep (0 = all cores, "
                  "1 = serial); results are identical for every value");
  flags->AddInt64("replications", 1,
                  "independent replications per configuration");
}

std::string GridCellSpanName(int config_index, int replication) {
  return "cell c" + std::to_string(config_index) + " r" +
         std::to_string(replication);
}

int64_t RecordGridCellDone(const GridObsOptions& obs, int64_t cells_done,
                           int64_t cell_index) {
  ++cells_done;
  const double grid_clock = static_cast<double>(cells_done);
  if (obs.metrics != nullptr) {
    obs.metrics
        ->AddCounter("grid_cells_completed",
                     "grid cells completed (this process + restored)")
        ->Add(1);
    obs.metrics->MaybeSample(grid_clock);
  }
  if (obs.event_log != nullptr) {
    obs.event_log->Emit(grid_clock, EventCategory::kCell, /*subtype=*/0,
                        /*movie=*/-1, /*id=*/cell_index,
                        /*value=*/grid_clock);
  }
  return cells_done;
}

Result<ExperimentOptions> ExperimentOptionsFromFlags(const FlagSet& flags,
                                                     uint64_t base_seed) {
  const int64_t replications = flags.GetInt64("replications");
  if (replications < 1 || replications > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(
        "--replications=" + std::to_string(replications) +
        " is out of range (must be >= 1 and fit in an int)");
  }
  const int64_t threads = flags.GetInt64("threads");
  if (threads < 0 || threads > kMaxGridThreads) {
    return Status::InvalidArgument(
        "--threads=" + std::to_string(threads) + " is out of range (must be " +
        "in [0, " + std::to_string(kMaxGridThreads) + "]; 0 = auto)");
  }
  ExperimentOptions options;
  options.threads = static_cast<int>(threads);
  options.replications = static_cast<int>(replications);
  options.base_seed = base_seed;
  return options;
}

}  // namespace vod
