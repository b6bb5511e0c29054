#include "exp/checkpoint.h"

#include <algorithm>
#include <mutex>

#include "common/thread_pool.h"

namespace vod {

Status CheckpointOptions::Validate() const {
  if (checkpoint_every < 1) {
    return Status::InvalidArgument(
        "checkpoint_every must be >= 1, got " +
        std::to_string(checkpoint_every));
  }
  if (resume && path.empty()) {
    return Status::InvalidArgument("resume requires a checkpoint path");
  }
  if (max_cells != -1 && max_cells < 0) {
    return Status::InvalidArgument("max_cells must be -1 or >= 0");
  }
  return Status::OK();
}

void SerializeSimulationReport(const SimulationReport& r, ByteWriter* out) {
  out->PutDouble(r.hit_probability);
  out->PutDouble(r.hit_probability_low);
  out->PutDouble(r.hit_probability_high);
  for (double v : r.hit_probability_by_op) out->PutDouble(v);
  for (int64_t v : r.resumes_by_op) out->PutI64(v);
  out->PutDouble(r.hit_probability_in_partition);
  out->PutDouble(r.hit_probability_in_partition_low);
  out->PutDouble(r.hit_probability_in_partition_high);
  out->PutDouble(r.hit_probability_in_partition_bm_halfwidth);
  out->PutI64(r.in_partition_resumes);
  out->PutI64(r.total_resumes);
  out->PutI64(r.hits_within);
  out->PutI64(r.hits_jump);
  out->PutI64(r.end_releases);
  out->PutI64(r.misses);
  out->PutI64(r.admissions);
  out->PutI64(r.type2_admissions);
  out->PutI64(r.completions);
  out->PutDouble(r.mean_wait_minutes);
  out->PutDouble(r.max_wait_minutes);
  out->PutDouble(r.p50_wait_minutes);
  out->PutDouble(r.p99_wait_minutes);
  out->PutDouble(r.mean_dedicated_streams);
  out->PutDouble(r.peak_dedicated_streams);
  out->PutDouble(r.mean_concurrent_viewers);
  out->PutI64(r.piggyback_merges);
  out->PutDouble(r.mean_merge_minutes);
  out->PutI64(r.blocked_vcr_requests);
  out->PutI64(r.stalled_resumes);
  out->PutI64(r.queued_vcr_requests);
  out->PutI64(r.forced_reclaims);
  out->PutI64(r.abandonments);
  out->PutDouble(r.simulated_minutes);
}

Status DeserializeSimulationReport(ByteReader* in, SimulationReport* r) {
  VOD_RETURN_IF_ERROR(in->ReadDouble(&r->hit_probability));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&r->hit_probability_low));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&r->hit_probability_high));
  for (double& v : r->hit_probability_by_op) {
    VOD_RETURN_IF_ERROR(in->ReadDouble(&v));
  }
  for (int64_t& v : r->resumes_by_op) {
    VOD_RETURN_IF_ERROR(in->ReadI64(&v));
  }
  VOD_RETURN_IF_ERROR(in->ReadDouble(&r->hit_probability_in_partition));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&r->hit_probability_in_partition_low));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&r->hit_probability_in_partition_high));
  VOD_RETURN_IF_ERROR(
      in->ReadDouble(&r->hit_probability_in_partition_bm_halfwidth));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->in_partition_resumes));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->total_resumes));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->hits_within));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->hits_jump));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->end_releases));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->misses));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->admissions));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->type2_admissions));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->completions));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&r->mean_wait_minutes));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&r->max_wait_minutes));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&r->p50_wait_minutes));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&r->p99_wait_minutes));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&r->mean_dedicated_streams));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&r->peak_dedicated_streams));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&r->mean_concurrent_viewers));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->piggyback_merges));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&r->mean_merge_minutes));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->blocked_vcr_requests));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->stalled_resumes));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->queued_vcr_requests));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->forced_reclaims));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->abandonments));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&r->simulated_minutes));
  return Status::OK();
}

namespace {

// Smallest encodings of the server report's counted entries, used to reject
// a declared count the remaining bytes cannot hold before it sizes a vector:
// a movie is its name's length prefix plus a fixed-width SimulationReport; a
// transition is time, from, to and capacity.
size_t MinMovieBytes() {
  static const size_t bytes = [] {
    ByteWriter w;
    w.PutString("");
    SerializeSimulationReport(SimulationReport{}, &w);
    return w.size();
  }();
  return bytes;
}
constexpr size_t kTransitionBytes = 8 + 1 + 1 + 8;

}  // namespace

void SerializeServerReport(const ServerReport& r, ByteWriter* out) {
  out->PutI64(static_cast<int64_t>(r.movies.size()));
  for (const ServerReport::PerMovie& m : r.movies) {
    out->PutString(m.name);
    SerializeSimulationReport(m.report, out);
  }
  out->PutI64(r.reserve_capacity);
  out->PutDouble(r.mean_reserve_in_use);
  out->PutI64(r.peak_reserve_in_use);
  out->PutI64(r.refused_acquisitions);
  out->PutI64(r.granted_acquisitions);
  out->PutDouble(r.refusal_probability);
  out->PutI64(r.total_blocked_vcr);
  out->PutI64(r.total_stalls);
  out->PutI64(r.total_resumes);
  out->PutI64(r.total_queued_vcr);
  out->PutI64(r.total_forced_reclaims);

  out->PutBool(r.resilience_enabled);
  const ResilienceReport& res = r.resilience;
  out->PutI64(res.disk_failures);
  out->PutI64(res.disk_repairs);
  out->PutI64(res.min_reserve_capacity);
  out->PutI64(res.max_oversubscription);
  out->PutU8(static_cast<uint8_t>(res.final_level));
  for (double v : res.time_in_level) out->PutDouble(v);
  out->PutI64(res.total_transitions);
  out->PutI64(static_cast<int64_t>(res.transitions.size()));
  for (const DegradationTransition& tr : res.transitions) {
    out->PutDouble(tr.time);
    out->PutU8(static_cast<uint8_t>(tr.from));
    out->PutU8(static_cast<uint8_t>(tr.to));
    out->PutI64(tr.capacity);
  }
  out->PutI64(res.vcr_queued);
  out->PutI64(res.vcr_queue_grants);
  out->PutI64(res.vcr_queue_expirations);
  out->PutI64(res.vcr_queue_pending);
  out->PutI64(res.vcr_denied);
  out->PutDouble(res.mean_queued_wait_minutes);
  out->PutDouble(res.p50_queued_wait_minutes);
  out->PutDouble(res.p90_queued_wait_minutes);
  out->PutDouble(res.p99_queued_wait_minutes);
  out->PutI64(res.forced_reclaims);
  out->PutI64(res.recovery_episodes);
  out->PutDouble(res.mean_recovery_minutes);
  out->PutDouble(res.max_recovery_minutes);

  out->PutBool(r.controller_enabled);
  const ControllerReport& ctrl = r.controller;
  out->PutBool(ctrl.enabled);
  out->PutI64(ctrl.plans_solved);
  out->PutI64(ctrl.drift_alarms);
  out->PutI64(ctrl.migrations_started);
  out->PutI64(ctrl.migrations_committed);
  out->PutI64(ctrl.rollbacks);
  out->PutI64(ctrl.steps_planned);
  out->PutI64(ctrl.steps_applied);
  out->PutI64(ctrl.blocked_attempts);
  out->PutI64(ctrl.admission_sheds);
  for (int64_t v : ctrl.sheds_by_class) out->PutI64(v);
  out->PutI64(ctrl.final_epoch);
  out->PutDouble(ctrl.last_commit_time);
}

Status DeserializeServerReport(ByteReader* in, ServerReport* r) {
  int64_t num_movies = 0;
  VOD_RETURN_IF_ERROR(in->ReadI64(&num_movies));
  if (num_movies < 0 ||
      static_cast<uint64_t>(num_movies) > in->remaining() / MinMovieBytes()) {
    return Status::InvalidArgument(
        "server report declares " + std::to_string(num_movies) +
        " movies, more than the snapshot holds");
  }
  r->movies.clear();
  r->movies.reserve(static_cast<size_t>(num_movies));
  for (int64_t i = 0; i < num_movies; ++i) {
    ServerReport::PerMovie m;
    VOD_RETURN_IF_ERROR(in->ReadString(&m.name));
    VOD_RETURN_IF_ERROR(DeserializeSimulationReport(in, &m.report));
    r->movies.push_back(std::move(m));
  }
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->reserve_capacity));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&r->mean_reserve_in_use));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->peak_reserve_in_use));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->refused_acquisitions));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->granted_acquisitions));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&r->refusal_probability));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->total_blocked_vcr));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->total_stalls));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->total_resumes));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->total_queued_vcr));
  VOD_RETURN_IF_ERROR(in->ReadI64(&r->total_forced_reclaims));

  VOD_RETURN_IF_ERROR(in->ReadBool(&r->resilience_enabled));
  ResilienceReport* res = &r->resilience;
  VOD_RETURN_IF_ERROR(in->ReadI64(&res->disk_failures));
  VOD_RETURN_IF_ERROR(in->ReadI64(&res->disk_repairs));
  VOD_RETURN_IF_ERROR(in->ReadI64(&res->min_reserve_capacity));
  VOD_RETURN_IF_ERROR(in->ReadI64(&res->max_oversubscription));
  uint8_t final_level = 0;
  VOD_RETURN_IF_ERROR(in->ReadU8(&final_level));
  if (final_level >= kNumDegradationLevels) {
    return Status::InvalidArgument(
        "server report carries unknown degradation level " +
        std::to_string(final_level));
  }
  res->final_level = static_cast<DegradationLevel>(final_level);
  for (double& v : res->time_in_level) {
    VOD_RETURN_IF_ERROR(in->ReadDouble(&v));
  }
  VOD_RETURN_IF_ERROR(in->ReadI64(&res->total_transitions));
  int64_t num_transitions = 0;
  VOD_RETURN_IF_ERROR(in->ReadI64(&num_transitions));
  if (num_transitions < 0 ||
      static_cast<uint64_t>(num_transitions) >
          in->remaining() / kTransitionBytes) {
    return Status::InvalidArgument(
        "server report declares " + std::to_string(num_transitions) +
        " transitions, more than the snapshot holds");
  }
  res->transitions.clear();
  res->transitions.reserve(static_cast<size_t>(num_transitions));
  for (int64_t i = 0; i < num_transitions; ++i) {
    DegradationTransition tr;
    VOD_RETURN_IF_ERROR(in->ReadDouble(&tr.time));
    uint8_t from = 0, to = 0;
    VOD_RETURN_IF_ERROR(in->ReadU8(&from));
    VOD_RETURN_IF_ERROR(in->ReadU8(&to));
    if (from >= kNumDegradationLevels || to >= kNumDegradationLevels) {
      return Status::InvalidArgument(
          "server report transition " + std::to_string(i) +
          " carries an unknown degradation level");
    }
    tr.from = static_cast<DegradationLevel>(from);
    tr.to = static_cast<DegradationLevel>(to);
    VOD_RETURN_IF_ERROR(in->ReadI64(&tr.capacity));
    res->transitions.push_back(tr);
  }
  VOD_RETURN_IF_ERROR(in->ReadI64(&res->vcr_queued));
  VOD_RETURN_IF_ERROR(in->ReadI64(&res->vcr_queue_grants));
  VOD_RETURN_IF_ERROR(in->ReadI64(&res->vcr_queue_expirations));
  VOD_RETURN_IF_ERROR(in->ReadI64(&res->vcr_queue_pending));
  VOD_RETURN_IF_ERROR(in->ReadI64(&res->vcr_denied));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&res->mean_queued_wait_minutes));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&res->p50_queued_wait_minutes));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&res->p90_queued_wait_minutes));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&res->p99_queued_wait_minutes));
  VOD_RETURN_IF_ERROR(in->ReadI64(&res->forced_reclaims));
  VOD_RETURN_IF_ERROR(in->ReadI64(&res->recovery_episodes));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&res->mean_recovery_minutes));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&res->max_recovery_minutes));

  VOD_RETURN_IF_ERROR(in->ReadBool(&r->controller_enabled));
  ControllerReport* ctrl = &r->controller;
  VOD_RETURN_IF_ERROR(in->ReadBool(&ctrl->enabled));
  VOD_RETURN_IF_ERROR(in->ReadI64(&ctrl->plans_solved));
  VOD_RETURN_IF_ERROR(in->ReadI64(&ctrl->drift_alarms));
  VOD_RETURN_IF_ERROR(in->ReadI64(&ctrl->migrations_started));
  VOD_RETURN_IF_ERROR(in->ReadI64(&ctrl->migrations_committed));
  VOD_RETURN_IF_ERROR(in->ReadI64(&ctrl->rollbacks));
  VOD_RETURN_IF_ERROR(in->ReadI64(&ctrl->steps_planned));
  VOD_RETURN_IF_ERROR(in->ReadI64(&ctrl->steps_applied));
  VOD_RETURN_IF_ERROR(in->ReadI64(&ctrl->blocked_attempts));
  VOD_RETURN_IF_ERROR(in->ReadI64(&ctrl->admission_sheds));
  for (int64_t& v : ctrl->sheds_by_class) {
    VOD_RETURN_IF_ERROR(in->ReadI64(&v));
  }
  VOD_RETURN_IF_ERROR(in->ReadI64(&ctrl->final_epoch));
  VOD_RETURN_IF_ERROR(in->ReadDouble(&ctrl->last_commit_time));
  return Status::OK();
}

uint64_t HashGridDescription(const std::string& description) {
  uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a offset basis
  for (unsigned char c : description) {
    h ^= c;
    h *= 0x100000001B3ull;  // FNV prime
  }
  return h;
}

namespace {

// The two checkpoint kinds share everything but the report codec and the
// payload type id; these file-local templates keep one copy of the framing,
// bitmap, resume, and runner logic.

template <typename Report>
struct GridCodec;

template <>
struct GridCodec<SimulationReport> {
  static constexpr SnapshotPayload kPayload = SnapshotPayload::kExperimentGrid;
  static void Serialize(const SimulationReport& r, ByteWriter* out) {
    SerializeSimulationReport(r, out);
  }
  static Status Deserialize(ByteReader* in, SimulationReport* r) {
    return DeserializeSimulationReport(in, r);
  }
};

template <>
struct GridCodec<ServerReport> {
  static constexpr SnapshotPayload kPayload = SnapshotPayload::kServerGrid;
  static void Serialize(const ServerReport& r, ByteWriter* out) {
    SerializeServerReport(r, out);
  }
  static Status Deserialize(ByteReader* in, ServerReport* r) {
    return DeserializeServerReport(in, r);
  }
};

template <typename Report>
Status SaveGridCheckpointImpl(const std::string& path,
                              const BasicGridCheckpoint<Report>& checkpoint) {
  if (checkpoint.configs < 1 || checkpoint.replications < 1) {
    return Status::InvalidArgument("checkpoint grid must be non-empty");
  }
  const size_t cells = static_cast<size_t>(checkpoint.cells());
  if (checkpoint.done.size() != cells || checkpoint.reports.size() != cells) {
    return Status::InvalidArgument(
        "checkpoint state size disagrees with its grid shape");
  }
  ByteWriter payload;
  payload.PutU64(checkpoint.fingerprint);
  payload.PutU64(checkpoint.base_seed);
  payload.PutI64(checkpoint.configs);
  payload.PutI64(checkpoint.replications);
  // Packed done bitmap, LSB-first within each byte.
  for (size_t base = 0; base < cells; base += 8) {
    uint8_t bits = 0;
    for (size_t i = 0; i < 8 && base + i < cells; ++i) {
      if (checkpoint.done[base + i]) bits |= static_cast<uint8_t>(1u << i);
    }
    payload.PutU8(bits);
  }
  for (size_t cell = 0; cell < cells; ++cell) {
    if (checkpoint.done[cell]) {
      GridCodec<Report>::Serialize(checkpoint.reports[cell], &payload);
    }
  }
  payload.PutString(checkpoint.metrics_blob);
  return WriteSnapshotFile(path, GridCodec<Report>::kPayload, payload.bytes());
}

template <typename Report>
Result<BasicGridCheckpoint<Report>> LoadGridCheckpointImpl(
    const std::string& path) {
  VOD_ASSIGN_OR_RETURN(const std::string payload,
                       ReadSnapshotFile(path, GridCodec<Report>::kPayload));
  ByteReader in(payload);
  BasicGridCheckpoint<Report> checkpoint;
  VOD_RETURN_IF_ERROR(in.ReadU64(&checkpoint.fingerprint));
  VOD_RETURN_IF_ERROR(in.ReadU64(&checkpoint.base_seed));
  VOD_RETURN_IF_ERROR(in.ReadI64(&checkpoint.configs));
  VOD_RETURN_IF_ERROR(in.ReadI64(&checkpoint.replications));
  const int64_t configs = checkpoint.configs;
  const int64_t replications = checkpoint.replications;
  if (configs < 1 || replications < 1 || configs > (int64_t{1} << 20) ||
      replications > (int64_t{1} << 20)) {
    return Status::InvalidArgument(
        "checkpoint '" + path + "' declares an implausible grid shape (" +
        std::to_string(configs) + " x " + std::to_string(replications) + ")");
  }
  // The done bitmap takes ceil(cells / 8) bytes: a shape the payload cannot
  // hold is corrupt, and must be rejected before it sizes the cell vectors.
  const size_t cells = static_cast<size_t>(checkpoint.cells());
  if ((cells + 7) / 8 > in.remaining()) {
    return Status::InvalidArgument(
        "checkpoint '" + path + "' declares " + std::to_string(cells) +
        " cells, more than its payload holds");
  }
  checkpoint.done.assign(cells, false);
  checkpoint.reports.assign(cells, Report{});
  for (size_t base = 0; base < cells; base += 8) {
    uint8_t bits = 0;
    VOD_RETURN_IF_ERROR(in.ReadU8(&bits));
    for (size_t i = 0; i < 8 && base + i < cells; ++i) {
      checkpoint.done[base + i] = (bits >> i) & 1u;
    }
  }
  for (size_t cell = 0; cell < cells; ++cell) {
    if (checkpoint.done[cell]) {
      VOD_RETURN_IF_ERROR(
          GridCodec<Report>::Deserialize(&in, &checkpoint.reports[cell]));
    }
  }
  VOD_RETURN_IF_ERROR(in.ReadString(&checkpoint.metrics_blob));
  if (!in.AtEnd()) {
    return Status::InvalidArgument(
        "checkpoint '" + path + "' carries " +
        std::to_string(in.remaining()) +
        " unexpected trailing byte(s) after the last report");
  }
  return checkpoint;
}

}  // namespace

Status SaveGridCheckpoint(const std::string& path,
                          const GridCheckpoint& checkpoint) {
  return SaveGridCheckpointImpl(path, checkpoint);
}

Result<GridCheckpoint> LoadGridCheckpoint(const std::string& path) {
  return LoadGridCheckpointImpl<SimulationReport>(path);
}

namespace {

template <typename Report>
Result<BasicCheckpointedGridResult<Report>> RunCheckpointedGridImpl(
    int64_t num_configs, const ExperimentOptions& options,
    const CheckpointOptions& checkpoint_options, uint64_t grid_fingerprint,
    const std::function<Report(const CellContext&)>& run_cell,
    const GridObsOptions& obs) {
  if (num_configs < 1) {
    return Status::InvalidArgument("grid needs at least one configuration");
  }
  if (options.replications < 1) {
    return Status::InvalidArgument("grid needs at least one replication");
  }
  VOD_RETURN_IF_ERROR(checkpoint_options.Validate());
  const int64_t reps = options.replications;
  const int64_t cells = num_configs * reps;

  BasicGridCheckpoint<Report> state;
  state.fingerprint = grid_fingerprint;
  state.base_seed = options.base_seed;
  state.configs = num_configs;
  state.replications = reps;
  state.done.assign(static_cast<size_t>(cells), false);
  state.reports.assign(static_cast<size_t>(cells), Report{});

  BasicCheckpointedGridResult<Report> result;
  if (checkpoint_options.resume) {
    VOD_ASSIGN_OR_RETURN(
        BasicGridCheckpoint<Report> loaded,
        LoadGridCheckpointImpl<Report>(checkpoint_options.path));
    if (loaded.fingerprint != grid_fingerprint ||
        loaded.base_seed != options.base_seed ||
        loaded.configs != num_configs || loaded.replications != reps) {
      return Status::InvalidArgument(
          "checkpoint '" + checkpoint_options.path +
          "' was written by a different experiment (fingerprint/seed/shape "
          "mismatch); refusing to merge its cells");
    }
    state = std::move(loaded);
    result.cells_restored = state.cells_done();
  }

  // A resumed registry picks up exactly where the dying process left off:
  // restored series + restored counters, with the grid clock continuing
  // from the restored cell count.
  if (obs.metrics != nullptr && !state.metrics_blob.empty()) {
    ByteReader blob(state.metrics_blob);
    VOD_RETURN_IF_ERROR(obs.metrics->Restore(&blob));
  }

  // Pending cells in grid order; truncated when crash emulation asks for an
  // early stop. Order only affects scheduling — every cell owns its slot.
  std::vector<int64_t> pending;
  pending.reserve(static_cast<size_t>(cells));
  for (int64_t cell = 0; cell < cells; ++cell) {
    if (!state.done[static_cast<size_t>(cell)]) pending.push_back(cell);
  }
  const bool stopping_early =
      checkpoint_options.max_cells >= 0 &&
      static_cast<int64_t>(pending.size()) > checkpoint_options.max_cells;
  if (stopping_early) {
    pending.resize(static_cast<size_t>(checkpoint_options.max_cells));
  }

  // Serializes the current registry state into the checkpoint image so the
  // save that follows carries it. Caller holds the completion mutex.
  const auto snapshot_metrics_locked = [&]() {
    if (obs.metrics == nullptr) return;
    ByteWriter blob;
    obs.metrics->Snapshot(&blob);
    state.metrics_blob = blob.bytes();
  };

  Status save_failure = Status::OK();
  if (!pending.empty()) {
    std::mutex mu;
    int64_t cells_done_clock = result.cells_restored;
    int64_t completed_since_save = 0;
    ThreadPool pool(ResolveThreadCount(
        options.threads, static_cast<int64_t>(pending.size())));
    pool.ParallelFor(
        static_cast<int64_t>(pending.size()), [&](int64_t index) {
          const int64_t cell = pending[static_cast<size_t>(index)];
          const int c = static_cast<int>(cell / reps);
          const int r = static_cast<int>(cell % reps);
          const CellContext context{
              c, r,
              CellSeed(options.base_seed, static_cast<uint64_t>(c),
                       static_cast<uint64_t>(r))};
          Report report;
          {
            PhaseProfiler::Scope span(obs.profiler, GridCellSpanName(c, r));
            report = run_cell(context);
          }
          std::lock_guard<std::mutex> lock(mu);
          state.reports[static_cast<size_t>(cell)] = std::move(report);
          state.done[static_cast<size_t>(cell)] = true;
          ++result.cells_run;
          cells_done_clock = RecordGridCellDone(obs, cells_done_clock, cell);
          if (checkpoint_options.path.empty()) return;
          if (++completed_since_save >= checkpoint_options.checkpoint_every) {
            completed_since_save = 0;
            PhaseProfiler::Scope span(obs.profiler, "checkpoint_save");
            snapshot_metrics_locked();
            const Status saved =
                SaveGridCheckpointImpl(checkpoint_options.path, state);
            if (!saved.ok() && save_failure.ok()) save_failure = saved;
          }
        });
  }
  VOD_RETURN_IF_ERROR(save_failure);

  // Publish the final state (also covers runs shorter than one cadence).
  if (!checkpoint_options.path.empty()) {
    PhaseProfiler::Scope span(obs.profiler, "checkpoint_save");
    snapshot_metrics_locked();
    VOD_RETURN_IF_ERROR(
        SaveGridCheckpointImpl(checkpoint_options.path, state));
  }

  result.complete = !stopping_early;
  if (result.complete) {
    result.reports.resize(static_cast<size_t>(num_configs));
    for (int64_t c = 0; c < num_configs; ++c) {
      auto& row = result.reports[static_cast<size_t>(c)];
      row.reserve(static_cast<size_t>(reps));
      for (int64_t r = 0; r < reps; ++r) {
        row.push_back(std::move(state.reports[static_cast<size_t>(c * reps + r)]));
      }
    }
  }
  return result;
}

}  // namespace

Result<CheckpointedGridResult> RunCheckpointedReportGrid(
    int64_t num_configs, const ExperimentOptions& options,
    const CheckpointOptions& checkpoint_options, uint64_t grid_fingerprint,
    const std::function<SimulationReport(const CellContext&)>& run_cell,
    const GridObsOptions& obs) {
  return RunCheckpointedGridImpl<SimulationReport>(
      num_configs, options, checkpoint_options, grid_fingerprint, run_cell,
      obs);
}

Result<CheckpointedServerGridResult> RunCheckpointedServerGrid(
    int64_t num_configs, const ExperimentOptions& options,
    const CheckpointOptions& checkpoint_options, uint64_t grid_fingerprint,
    const std::function<ServerReport(const CellContext&)>& run_cell,
    const GridObsOptions& obs) {
  return RunCheckpointedGridImpl<ServerReport>(
      num_configs, options, checkpoint_options, grid_fingerprint, run_cell,
      obs);
}

}  // namespace vod
