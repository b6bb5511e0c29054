// Crash-recoverable experiment grids: checkpoint / resume at cell
// granularity.
//
// A sweep is a grid of (configuration × replication) cells whose seeds are
// pure functions of their indices (exp/experiment.h). That makes the cell
// the natural unit of recovery: a checkpoint records *which* cells finished
// and their bit-exact SimulationReports; cells in flight when the process
// died are simply re-run from their deterministic seeds on resume. The
// recombined grid is therefore byte-identical to an uninterrupted run — at
// any `--threads`, killed at any point, resumed any number of times.
//
// The checkpoint file is a framed snapshot (common/serialize.h): versioned,
// CRC-checked, atomically published via write-to-temp + rename. A stale or
// foreign checkpoint (different grid shape, seed, or experiment fingerprint)
// is rejected with a diagnostic Status rather than silently merged.

#ifndef VOD_EXP_CHECKPOINT_H_
#define VOD_EXP_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "exp/experiment.h"
#include "sim/server.h"
#include "sim/simulator.h"

namespace vod {

/// Checkpoint/resume knobs for a grid run.
struct CheckpointOptions {
  /// Checkpoint file; empty disables checkpointing entirely.
  std::string path;
  /// Completed cells between checkpoint saves (>= 1). The final state is
  /// always saved once the run finishes or stops.
  int64_t checkpoint_every = 16;
  /// Load `path` and skip its completed cells before running. An absent
  /// file is an error: resuming from nothing is a misspelled path more
  /// often than a fresh start.
  bool resume = false;
  /// Stop (checkpoint and return, `complete == false`) after this many
  /// *newly executed* cells; -1 = run to completion. This is the in-process
  /// crash-emulation hook the tests and the soak harness use.
  int64_t max_cells = -1;

  Status Validate() const;
};

/// \brief Serializes every field of a report, in declaration order, as raw
/// little-endian bits. Bit-exact round-trip (doubles keep their IEEE-754
/// pattern).
void SerializeSimulationReport(const SimulationReport& report,
                               ByteWriter* out);
Status DeserializeSimulationReport(ByteReader* in, SimulationReport* report);

/// \brief Same contract for a whole-server report: every field — the
/// per-movie reports, reserve accounting, the resilience block including
/// its transition log, and the controller block — round-trips bit-exactly,
/// so a resumed server sweep reproduces ToString byte-for-byte.
void SerializeServerReport(const ServerReport& report, ByteWriter* out);
Status DeserializeServerReport(ByteReader* in, ServerReport* report);

/// FNV-1a of an experiment's self-description (layout parameters, horizon,
/// behavior knobs...). Callers fold everything that changes cell outcomes
/// into the description so a checkpoint can never be resumed against a
/// different experiment.
uint64_t HashGridDescription(const std::string& description);

/// \brief In-memory image of a checkpoint: grid identity + per-cell state.
///
/// One shape serves both cell kinds — single-movie SimulationReports
/// (payload kExperimentGrid) and whole-server ServerReports (payload
/// kServerGrid); the payload type id keeps the two file kinds from being
/// fed to each other.
template <typename Report>
struct BasicGridCheckpoint {
  uint64_t fingerprint = 0;  ///< HashGridDescription of the experiment
  uint64_t base_seed = 0;
  int64_t configs = 0;
  int64_t replications = 0;
  /// Row-major done flags, one per cell (config * replications + rep).
  std::vector<bool> done;
  /// Completed cells' reports; meaningful only where done[cell] is true.
  std::vector<Report> reports;
  /// MetricsRegistry::Snapshot blob taken at save time, so a resumed sweep
  /// continues its sampled series without a gap. Empty when the run carried
  /// no registry.
  std::string metrics_blob;

  int64_t cells() const { return configs * replications; }
  int64_t cells_done() const {
    int64_t n = 0;
    for (bool d : done) {
      if (d) ++n;
    }
    return n;
  }
};

using GridCheckpoint = BasicGridCheckpoint<SimulationReport>;

/// Atomically writes `checkpoint` (payload kExperimentGrid; the done flags
/// travel as a packed bitmap).
Status SaveGridCheckpoint(const std::string& path,
                          const GridCheckpoint& checkpoint);

/// Reads and fully validates a checkpoint file. Corrupted, truncated,
/// version-mismatched, or internally inconsistent files yield a diagnostic
/// error — never a crash or a silently partial grid.
Result<GridCheckpoint> LoadGridCheckpoint(const std::string& path);

/// Outcome of a (possibly interrupted) checkpointed grid run.
template <typename Report>
struct BasicCheckpointedGridResult {
  /// False when max_cells stopped the run early; the checkpoint on disk
  /// holds everything completed so far.
  bool complete = true;
  int64_t cells_restored = 0;  ///< skipped because the checkpoint had them
  int64_t cells_run = 0;       ///< executed by this process
  /// Reports indexed [config][replication]; fully populated only when
  /// `complete` is true.
  std::vector<std::vector<Report>> reports;
};

using CheckpointedGridResult = BasicCheckpointedGridResult<SimulationReport>;
using CheckpointedServerGridResult = BasicCheckpointedGridResult<ServerReport>;

/// \brief RunExperimentGrid with checkpoint/resume.
///
/// `run_cell` must be a pure function of its CellContext (thread-compatible,
/// deterministic in context.seed) returning the cell's report. Pending cells
/// are fanned out over `options.threads` workers exactly like
/// RunExperimentGrid; completed work is recorded under a mutex and the
/// checkpoint is republished every `checkpoint.checkpoint_every`
/// completions. On resume the checkpoint's identity (fingerprint, seed,
/// shape) must match the current grid.
///
/// Observability (all telemetry-only; reports stay byte-identical):
/// `obs.metrics` counts completions on the cells-done clock — which on
/// resume starts at the restored count, and whose registry state is first
/// restored from the checkpoint's snapshot blob and re-snapshotted into
/// every save, so a SIGKILLed sweep resumes its series without a gap.
/// `obs.event_log` gets one kCell event per newly executed cell, and
/// `obs.profiler` one span per cell plus one per checkpoint save.
Result<CheckpointedGridResult> RunCheckpointedReportGrid(
    int64_t num_configs, const ExperimentOptions& options,
    const CheckpointOptions& checkpoint, uint64_t grid_fingerprint,
    const std::function<SimulationReport(const CellContext&)>& run_cell,
    const GridObsOptions& obs = {});

/// \brief RunCheckpointedReportGrid over whole-server cells.
///
/// Identical contract, but each cell runs a full multi-movie server
/// simulation and the checkpoint carries ServerReports — including the
/// resilience transition log and the controller block, so a sweep with the
/// control plane enabled survives a SIGKILL mid-migration and resumes to a
/// byte-identical final table (tests/exp enforce this).
Result<CheckpointedServerGridResult> RunCheckpointedServerGrid(
    int64_t num_configs, const ExperimentOptions& options,
    const CheckpointOptions& checkpoint, uint64_t grid_fingerprint,
    const std::function<ServerReport(const CellContext&)>& run_cell,
    const GridObsOptions& obs = {});

}  // namespace vod

#endif  // VOD_EXP_CHECKPOINT_H_
