// Parallel, deterministic experiment replication.
//
// Every validation artifact in this repo (the Figure-7 sweeps, the ablation
// and extension rows of `vodctl reproduce`, the model-vs-simulation test)
// runs a grid of independent simulation cells: configurations ×
// replications. This layer fans those cells out over a fixed thread pool
// with a contract of **bit-exact determinism independent of thread count**:
//
//   * each cell's RNG seed derives from its (config index, replication
//     index) through the same SplitMix64 child-seed discipline the
//     simulator uses internally — never from execution order;
//   * each cell writes its outcome into a pre-sized slot owned by it alone;
//   * workers share nothing mutable — every cell constructs its own
//     simulator, metrics, and report, and reduction happens single-threaded
//     after the pool drains.
//
// `--threads=1` and `--threads=N` therefore produce byte-identical tables
// (tests/exp/determinism_threads_test.cc enforces this).

#ifndef VOD_EXP_EXPERIMENT_H_
#define VOD_EXP_EXPERIMENT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/thread_pool.h"
#include "obs/observability.h"

namespace vod {

/// The largest `--threads` a grid accepts: the cap `--shards` and
/// `--movies` use. The flag is checked before its narrowing cast, so a
/// value past an int cannot wrap into a small worker count.
inline constexpr int kMaxGridThreads = 65536;

/// Knobs shared by every experiment grid.
struct ExperimentOptions {
  /// Worker threads; 0 means auto (hardware concurrency), 1 means serial.
  /// The choice never affects results, only wall-clock.
  int threads = 0;
  /// Independent replications per configuration (>= 1).
  int replications = 1;
  /// Base seed the per-cell seeds derive from.
  uint64_t base_seed = 20240707;
};

/// \brief Decorrelated seed for one (config, replication) cell.
///
/// Two SplitMix64 steps: base_seed and config_index mix into a per-config
/// stream seed, then replication indexes into that stream. The mapping is a
/// pure function of the three integers, so cells keep their randomness when
/// the grid is re-run with a different thread count, a different subset of
/// configs, or more replications appended.
uint64_t CellSeed(uint64_t base_seed, uint64_t config_index,
                  uint64_t replication);

/// Identity of the cell a run function is executing.
struct CellContext {
  int config_index = 0;
  int replication = 0;
  uint64_t seed = 0;  ///< CellSeed(base_seed, config_index, replication)
};

/// Effective worker count: resolves `auto`, never more threads than cells.
int ResolveThreadCount(int requested, int64_t cells);

/// Registers the standard experiment flags, `--threads` and
/// `--replications`, on a tool's flag set.
void AddExperimentFlags(FlagSet* flags);

/// Reads the flags registered by AddExperimentFlags. InvalidArgument when
/// `--replications` is below 1 or beyond an int, or `--threads` is outside
/// [0, kMaxGridThreads].
Result<ExperimentOptions> ExperimentOptionsFromFlags(const FlagSet& flags,
                                                     uint64_t base_seed);

/// Profiler span name for one grid cell ("cell c3 r7").
std::string GridCellSpanName(int config_index, int replication);

/// Shared per-completion bookkeeping for the grid runners: counts the cell
/// on the grid clock, emits its kCell event, and samples the registry.
/// `lock` must already hold the runner's completion mutex when obs.metrics
/// is set. Returns the new cells-done total.
int64_t RecordGridCellDone(const GridObsOptions& obs, int64_t cells_done,
                           int64_t cell_index);

/// \brief Runs `run_cell` for every (config, replication) cell of the grid.
///
/// Returns outcomes indexed `[config][replication]` — positions are fixed
/// up front, so the result is identical for any thread count. `run_cell`
/// receives the config and a CellContext carrying the cell's derived seed;
/// it must be thread-compatible (no shared mutable state) and its Outcome
/// must be default-constructible and movable. Errors inside a cell should
/// VOD_CHECK: a failed cell means a misconfigured grid, not a recoverable
/// condition.
template <typename Config, typename CellFn>
auto RunExperimentGrid(const std::vector<Config>& configs,
                       const ExperimentOptions& options, CellFn&& run_cell,
                       const GridObsOptions& obs = {})
    -> std::vector<std::vector<decltype(run_cell(
        std::declval<const Config&>(), std::declval<const CellContext&>()))>> {
  using Outcome = decltype(run_cell(std::declval<const Config&>(),
                                    std::declval<const CellContext&>()));
  VOD_CHECK_MSG(options.replications >= 1,
                "ExperimentOptions.replications must be >= 1");
  const int64_t reps = options.replications;
  const int64_t cells = static_cast<int64_t>(configs.size()) * reps;
  std::vector<std::vector<Outcome>> results(configs.size());
  for (auto& row : results) row.resize(static_cast<size_t>(reps));
  if (cells == 0) return results;

  // Telemetry only: the completion lock orders the obs bookkeeping, never
  // the cells themselves, so results stay bit-exact at any thread count.
  std::mutex obs_mu;
  int64_t cells_done = 0;
  const bool track_completions =
      obs.metrics != nullptr || obs.event_log != nullptr;

  ThreadPool pool(ResolveThreadCount(options.threads, cells));
  pool.ParallelFor(cells, [&](int64_t cell) {
    const int c = static_cast<int>(cell / reps);
    const int r = static_cast<int>(cell % reps);
    const CellContext context{
        c, r,
        CellSeed(options.base_seed, static_cast<uint64_t>(c),
                 static_cast<uint64_t>(r))};
    {
      PhaseProfiler::Scope span(obs.profiler, GridCellSpanName(c, r));
      results[static_cast<size_t>(c)][static_cast<size_t>(r)] =
          run_cell(configs[static_cast<size_t>(c)], context);
    }
    if (track_completions) {
      std::lock_guard<std::mutex> lock(obs_mu);
      cells_done = RecordGridCellDone(obs, cells_done, cell);
    }
  });
  return results;
}

}  // namespace vod

#endif  // VOD_EXP_EXPERIMENT_H_
