// Sharded multi-core simulation of one giant server.
//
// The movies of one simulated server are partitioned across shards
// (movie i -> shard i % shards); each shard owns its movies' event kernels
// (one per movie), viewer slabs, metrics, and stream-credit ledgers outright
// and runs them on a worker thread. Simulated time advances in fixed
// windows: shards run in parallel, each running its movies' private
// EventQueues to the window end one after another (the thread-pool join is
// the barrier), then the single-threaded coordinator handles every
// cross-movie interaction — disk-fault capacity changes, reserve-credit
// redistribution, controller arrival replay / wakeups / layout commits,
// conservation audits, and checkpoints — before releasing the next window.
// No thread runs a shard while the coordinator works, so it reads each
// movie's ledger row from its supplier, world and slot in place and writes
// the next window's credit, debt, rung and reclaim quota straight back.
//
// Determinism across shard counts is by construction, not by luck:
//   * every movie's RNG stream derives from its *global* index (the same
//     CellSeed discipline the experiment grid uses);
//   * inside a window a movie touches nothing but its own kernel, world,
//     supplier and metrics, so the order a shard runs its movies in cannot
//     influence any number;
//   * every coordinator read, computation and write-back iterates movies in
//     global index order;
//   * the windowed credit semantics below are *the* semantics of a sharded
//     run — a one-shard run uses the identical barrier path, so reports are
//     byte-identical for shards ∈ {1, 2, ..., N} and any thread count.
//
// Reserve semantics (vs. the live shared counter of RunServerSimulation):
// the global reserve is lent to movies as per-window acquisition credits,
// redistributed at each barrier by demand-weighted largest-remainder
// apportionment. A movie that exhausts its credit mid-window is refused
// (the same hard-refusal surface the seed model has); a fault that shrinks
// capacity below what is already held converts the deficit into retirement
// debt, repaid from releases before any stream is re-lent. Within a window
// every grant and release moves one unit between a movie's held and its
// credit or debt, so at the next barrier Σ(held + credit − debt) still equals
// the capacity lent. The shard-reserve-ledger audit law checks exactly that,
// on the rows as the shards left them, before faults and redistribution
// rewrite them, so it checks the suppliers' accounting and not the
// apportionment's own sum.
//
// Audit (base.audit.enabled): every barrier runs one InvariantAuditor pass.
// Besides the cross-shard laws it runs the laws the serial engine runs —
// stream conservation between Σ supplier holds and Σ world holds, the
// capacity bounds against the post-fault capacity, and, with the ladder on,
// the rung range and the continuity of its transition history — so both
// engines answer to one set of stream laws.
//
// Degradation semantics (base.degradation.enabled): the ladder is *windowed*
// (sim/degradation.h, ComputeWindowedLevel/StepWindowedLadder). Shards
// accumulate pressure locally — queue depth, queued-VCR outcomes, held
// streams — in their suppliers; the barrier reads and sums it in global
// movie order, steps the pure hysteresis ladder (degrading rungs apply
// immediately, recovery needs kLadderRecoverWindows consecutive calm
// windows), and writes the new rung plus per-movie forced-reclaim quotas
// (largest-remainder over holdings) that shards apply at the next window
// open. The decision therefore lags live pressure by at most one window —
// the quantified semantic delta vs. the single-server per-event ladder (see
// EXPERIMENTS.md) — but it is a pure function of summed pressure; it folds
// into the ledger-digest chain so checkpoints replay-verify it, and the
// ladder-level-range/-continuity and shard-ladder-reclaim/-queue audit laws
// check its history and the shards' quota and queue accounting at every
// barrier.

#ifndef VOD_SIM_SHARDED_SERVER_H_
#define VOD_SIM_SHARDED_SERVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/server.h"

namespace vod {

/// Replay-verify checkpointing for a sharded run (see DESIGN.md §12.5):
/// the checkpoint pins the run's identity (config fingerprint + shard
/// count) and its trajectory (a ledger-digest chain sampled at barriers).
/// Resume replays deterministically from t = 0 and *verifies* the digest at
/// the checkpointed window — a divergence (corrupted state, changed binary,
/// changed config) is an Internal error instead of a silently different
/// report.
struct ShardedCheckpointOptions {
  /// Snapshot path; empty = checkpointing off.
  std::string path;
  /// Windows between snapshots.
  int64_t every_windows = 8;
  /// Resume from `path` if it exists (fresh run otherwise). The snapshot's
  /// shard count must match the run's — a changed shard count is rejected
  /// with InvalidArgument (determinism makes the restriction unnecessary in
  /// principle, but a mismatch almost always means a mis-assembled resume
  /// command, and refusing loudly beats re-running 10M viewers to discover
  /// it).
  bool resume = false;
  /// Test hook: stop (with report.complete = false) after this many windows,
  /// writing a final checkpoint — in-process crash emulation for the
  /// round-trip tests. <= 0 runs to the horizon.
  int64_t stop_after_windows = 0;
};

/// The largest shard count a run accepts. Every shard allocates its own
/// telemetry lane and flight-recorder ring before any event runs, and a
/// shard past the catalog size (vodctl caps --movies at the same 65 536)
/// owns no movie.
inline constexpr int kMaxShards = 65536;

/// The most barrier windows a run accepts: windows down to about 0.02
/// minutes at the default 21 000-minute horizon. The count is checked in
/// double, before its cast to int64 could overflow.
inline constexpr int64_t kMaxWindows = int64_t{1} << 20;

/// Knobs of a sharded run, wrapping the single-threaded server's options.
struct ShardedServerOptions {
  /// Base options. Faults, audit, the controller, the degradation ladder
  /// (windowed — see the header comment), and observability (obs.event_log
  /// / obs.metrics / obs.profiler; see DESIGN.md §14 for the per-shard
  /// telemetry lanes and the barrier merge) are all supported,
  /// simultaneously.
  ServerOptions base;
  /// Shards the movie catalog is partitioned over (movie i -> i % shards);
  /// at most kMaxShards.
  int shards = 1;
  /// Worker threads executing shard windows; results never depend on it.
  /// The pool starts min(threads, shards) of them.
  int threads = 1;
  /// Barrier cadence in simulated minutes; at most kMaxWindows windows.
  double window_minutes = 60.0;
  ShardedCheckpointOptions checkpoint;
  /// Crash flight recorder wiring (obs/flight_recorder.h): the coordinator
  /// always retains a bounded ring of barrier-window ledger summaries plus
  /// one bounded event ring per shard, and dumps the whole context as a
  /// postmortem bundle here when an audit law fails, a resumed run's
  /// replay-verify digest rejects, or a checkpoint write fails. Render the
  /// bundle with `vodctl inspect --postmortem=PATH`. Empty = record (cheap,
  /// always-on) but never dump.
  std::string postmortem_path;
  /// Test hook: at this barrier window (1-based), misstate movie 0's held
  /// count by +1 in the ledger rows the coordinator read for the audit
  /// (its *snapshot copy*) — the simulation trajectory is untouched, but
  /// the shard-reserve-ledger law, which checks those rows against the
  /// capacity lent, fires, proving an injected audit failure produces a
  /// postmortem bundle. Requires base.audit.enabled; <= 0 = off.
  int64_t corrupt_audit_window = 0;
};

/// Outcome of a sharded run. `server` carries the same per-movie and
/// reserve aggregates RunServerSimulation reports; `aggregate` pools every
/// movie's metrics through SimulationMetrics::MergeFrom (in global movie
/// order) into one whole-server view.
struct ShardedServerReport {
  ServerReport server;
  /// All movies' metrics merged into one report (hit probabilities with
  /// exact per-stream batch-means uncertainty, pooled waits/quantiles).
  SimulationReport aggregate;

  int64_t windows = 0;
  double window_minutes = 0.0;
  /// Always 0 and not printed: the barrier reads and writes movie state in
  /// place and posts no messages. Kept while bench/e2e still reads them.
  uint64_t messages_posted = 0;
  uint64_t messages_drained = 0;
  /// FNV-1a chain over every barrier's ledger (capacity + per-movie
  /// held/credit/debt/entered/exited) — the run's trajectory fingerprint.
  uint64_t ledger_digest = 0;

  /// Execution-shape diagnostics, excluded from ToString: reports must be
  /// byte-identical across shard/thread counts, and `complete` only varies
  /// via the stop_after_windows test hook. `threads` is the worker count the
  /// pool started: min(options.threads, options.shards).
  int shards = 0;
  int threads = 0;
  uint64_t executed_events = 0;
  bool complete = true;

  /// Deterministic full-precision serialization; byte-identical across
  /// shard counts and thread counts for a fixed configuration.
  std::string ToString() const;
};

/// Validates sharded options (on top of ValidateServerInputs on the base).
Status ValidateShardedInputs(const std::vector<ServerMovieSpec>& movies,
                             const ShardedServerOptions& options);

/// \brief Runs the sharded simulation to the horizon.
///
/// Deterministic in options.base.seed; byte-identical for any
/// (shards, threads) pair. With audit enabled, a violated conservation law
/// (including the cross-shard laws) returns the auditor's error Status.
Result<ShardedServerReport> RunShardedServerSimulation(
    const std::vector<ServerMovieSpec>& movies,
    const ShardedServerOptions& options);

}  // namespace vod

#endif  // VOD_SIM_SHARDED_SERVER_H_
