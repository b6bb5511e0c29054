// vodctl — command-line front end to the VOD pre-allocation library.
//
//   vodctl model    --length=120 --streams=40 --buffer=80 --duration='gamma(2,4)'
//   vodctl size     --length=120 --wait=0.5 --pstar=0.5 --duration='exp(5)'
//   vodctl simulate --length=120 --streams=40 --buffer=80 --measure=20000
//   vodctl server   --movies=8 --reserve=40 --faults=4:2000:120 --queue_deadline=5
//   vodctl shard    --movies=64 --shards=4 --threads=4 --window=60
//   vodctl simulate --trace_out=run.jsonl --metrics_out=run.prom
//   vodctl inspect  --trace=run.jsonl
//   vodctl catalog  --file=catalog.csv --rate=4 --zipf=1 --budget=0
//   vodctl reproduce --artifact=fig7a   (tools/reproduce.cc)
//
// The subcommand names the engine: `simulate` runs the paper's single-movie
// simulator, `server` runs every movie in one kernel against the shared VCR
// stream reserve, and `shard` partitions that server across cores. A flag
// means only its value: spelling one out at its default never changes a run.
//
// Every subcommand prints an aligned table (add --csv for machine-readable
// output) and exits non-zero on invalid input.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/flags.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/cost_model.h"
#include "core/hit_model.h"
#include "core/sizing.h"
#include "exp/checkpoint.h"
#include "exp/experiment.h"
#include "exp/replication.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/trace_reader.h"
#include "sim/degradation.h"
#include "sim/partition_schedule.h"
#include "sim/server.h"
#include "sim/sharded_server.h"
#include "sim/simulator.h"
#include "tools/reproduce.h"
#include "workload/catalog.h"
#include "workload/paper_presets.h"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#define VODCTL_HAS_FORK 1
#else
#define VODCTL_HAS_FORK 0
#endif

namespace vod {
namespace {

Result<VcrMix> ParseMix(const std::string& text) {
  // "ff" | "rw" | "pau" | "mixed" | "pf,pr,pp"
  if (text == "ff") return VcrMix::Only(VcrOp::kFastForward);
  if (text == "rw") return VcrMix::Only(VcrOp::kRewind);
  if (text == "pau") return VcrMix::Only(VcrOp::kPause);
  if (text == "mixed") return VcrMix::PaperMixed();
  const std::vector<std::string> fields = SplitFields(text, ',');
  if (fields.size() != 3) {
    return Status::InvalidArgument(
        "mix must be ff|rw|pau|mixed or 'p_ff,p_rw,p_pau'");
  }
  VcrMix mix;
  VOD_ASSIGN_OR_RETURN(mix.p_fast_forward,
                       ParseNamed("--mix p_ff", ParseDouble, fields[0]));
  VOD_ASSIGN_OR_RETURN(mix.p_rewind,
                       ParseNamed("--mix p_rw", ParseDouble, fields[1]));
  VOD_ASSIGN_OR_RETURN(mix.p_pause,
                       ParseNamed("--mix p_pau", ParseDouble, fields[2]));
  VOD_RETURN_IF_ERROR(mix.Validate());
  return mix;
}

/// Reads an int64 flag the library takes as an int, rejecting a value an int
/// cannot hold instead of letting the narrowing cast wrap it.
Result<int> IntFlag(const FlagSet& flags, const std::string& name) {
  const int64_t value = flags.GetInt64(name);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("--" + name + "=" + std::to_string(value) +
                                   " is out of range (must fit in an int)");
  }
  return static_cast<int>(value);
}

// ---- scenario flags --------------------------------------------------------
//
// Each flag is registered once, by the function for exactly the commands
// that accept it. The scenario functions (movie, run, server, and
// AddKernelFlags' piggyback) define what a run *is*: a grid checkpoint's
// fingerprint hashes the parsed value of every flag they register, so a
// setting added to one of them joins a run's identity without a second
// edit. Output, telemetry, thread and checkpoint-control flags are
// registered elsewhere.

/// --buffer's default: derive B from --wait.
constexpr double kBufferFromWait = -1.0;

/// One movie: its layout and VCR durations (model, simulate, server, shard).
void AddMovieFlags(FlagSet* flags) {
  flags->AddDouble("length", 120.0, "movie length (minutes)");
  flags->AddInt64("streams", 40, "I/O streams n (server and shard split "
                  "them across --movies)");
  flags->AddDouble("buffer", kBufferFromWait, "buffer minutes B (-1 = "
                   "derive B from --wait; a --movies split ignores it)");
  flags->AddDouble("wait", 1.0, "max wait w: sizes B when --buffer=-1, and "
                   "each title of a --movies split");
  flags->AddString("duration", "gamma(2,4)", "VCR duration distribution");
}

/// Arrivals, VCR mix, horizon, seed and auditing (simulate, server, shard).
void AddRunFlags(FlagSet* flags) {
  flags->AddString("mix", "mixed", "ff|rw|pau|mixed or 'p_ff,p_rw,p_pau'");
  flags->AddDouble("arrival_gap", 2.0, "mean inter-arrival time over all "
                   "movies (minutes)");
  flags->AddDouble("measure", 20000.0, "measured minutes (after a 5% warm-up)");
  flags->AddInt64("seed", 42, "RNG seed");
  flags->AddBool("audit", false, "run the runtime invariant auditor: "
                 "conservation checks every 1024 events in one kernel, "
                 "cross-shard laws at every window barrier in shard");
  flags->AddBool("paranoid", false, "audit after every executed event "
                 "(implies --audit; shard already audits every barrier)");
}

/// The largest --movies catalog: each title holds about 18 KB of simulator
/// state (giant_server keeps 4 096 titles in 75 MB), so the bound is about
/// 1.2 GB. It is checked before the Zipf split sizes anything by the count.
constexpr int64_t kMaxMovies = 65536;

/// The multi-movie server: catalog, shared reserve, faults, degradation and
/// the control plane (server, shard).
void AddServerFlags(FlagSet* flags) {
  flags->AddInt64("movies", 1, "catalog size: the arrival rate and --streams "
                  "split across this many Zipf-ranked titles (at most " +
                  std::to_string(kMaxMovies) + ": each title holds ~40 KB of "
                  "simulator state, ~2.6 GB at the bound)");
  flags->AddDouble("zipf", 1.0, "popularity skew of the --movies split");
  flags->AddString("flash", "", "flash crowd 'movie:start:duration:factor', "
                   "a one-shot rate step on one movie (empty = none)");
  flags->AddInt64("reserve", 100, "shared dynamic VCR stream reserve (shard "
                  "lends it to movies as per-window credits)");
  flags->AddString("faults", "", "disk faults 'disks:mtbf:mttr' in minutes, "
                   "e.g. 4:2000:120 (empty = none)");
  flags->AddDouble("queue_deadline", 0.0, "arm the degradation ladder: queue "
                   "dry-reserve VCR requests up to this many minutes (0 = "
                   "ladder off, hard refusal)");
  flags->AddBool("controller", false, "enable the dynamic buffer-reallocation "
                 "control plane (drift detection, re-planning, staged "
                 "migration, selective shedding)");
}

// ---- control and output flags ----------------------------------------------

/// Replicated sweeps and their crash recovery (simulate, server).
void AddSweepFlags(FlagSet* flags) {
  AddExperimentFlags(flags);
  flags->AddString("checkpoint", "", "checkpoint file for multi-replication "
                   "sweeps: completed replications survive a crash");
  flags->AddInt64("checkpoint_every", CheckpointOptions().checkpoint_every,
                  "completed replications between checkpoint saves");
  flags->AddBool("resume", false, "resume an interrupted sweep from "
                 "--checkpoint (refused unless every scenario flag matches)");
}

/// The sharded engine's geometry, barrier checkpoints and flight recorder
/// (shard).
void AddShardFlags(FlagSet* flags) {
  flags->AddInt64("shards", 2, "shards the movies are partitioned across");
  flags->AddInt64("threads", 2, "worker threads driving the shards");
  flags->AddDouble("window", 60.0, "barrier window length (simulated "
                   "minutes)");
  flags->AddString("checkpoint", "", "replay-verify checkpoint file written "
                   "at window barriers");
  flags->AddInt64("checkpoint_every", 8, "windows between checkpoint saves");
  flags->AddBool("resume", false, "resume from --checkpoint (replays from "
                 "t=0 and verifies the barrier-ledger digest)");
  flags->AddInt64("stop_after_windows", 0, "stop (incomplete) after this many "
                  "windows — in-process crash emulation for tests (0 = run to "
                  "the horizon)");
  flags->AddString("postmortem_out", "", "crash flight recorder: dump a "
                   "postmortem bundle here when an audit law fails, a resume "
                   "replay-verify rejects, or a checkpoint write fails "
                   "(render with `vodctl inspect --postmortem=PATH`)");
  flags->AddInt64("corrupt_window", 0, "fault-injection hook: misstate one "
                  "ledger entry in the audit snapshot at this barrier window "
                  "to force an audit failure (requires --audit; 0 = off)");
}

/// Report and telemetry outputs (simulate, server, shard).
void AddOutputFlags(FlagSet* flags) {
  flags->AddString("report_out", "", "also write the final report text to "
                   "this file (byte-identical to stdout)");
  flags->AddString("trace_out", "",
                   "write the structured event trace here (JSONL)");
  flags->AddString("trace_categories", "all", "comma-separated categories to "
                   "trace (e.g. admission,resume,fault,degradation)");
  flags->AddString("metrics_out", "",
                   "write Prometheus-text metrics here at the end of the run");
  flags->AddString("metrics_csv", "", "write the sampled metric time series "
                   "here (long-format CSV: sample_t,metric,value)");
  flags->AddDouble("metrics_every", 500.0, "metric sampling cadence in "
                   "simulated minutes (sweeps sample per completed cell)");
  flags->AddString("profile_out", "", "write a Chrome trace_event JSON "
                   "profile here (load in chrome://tracing or Perfetto)");
}

// ---- scenario values -------------------------------------------------------

Result<PartitionLayout> LayoutFromFlags(const FlagSet& flags) {
  const double length = flags.GetDouble("length");
  VOD_ASSIGN_OR_RETURN(const int streams, IntFlag(flags, "streams"));
  const double buffer = flags.GetDouble("buffer");
  if (buffer == kBufferFromWait) {
    return PartitionLayout::FromMaxWait(length, streams,
                                        flags.GetDouble("wait"));
  }
  return PartitionLayout::FromBuffer(length, streams, buffer);
}

/// Validated here, not only by the engines, so a refusal comes before any
/// output file is opened.
Result<VcrBehavior> BehaviorFromFlags(const FlagSet& flags) {
  VcrBehavior behavior;
  VOD_ASSIGN_OR_RETURN(const DistributionPtr duration,
                       ParseDistributionSpec(flags.GetString("duration")));
  VOD_ASSIGN_OR_RETURN(behavior.mix, ParseMix(flags.GetString("mix")));
  behavior.durations = VcrDurations::AllSame(duration);
  behavior.interactivity = paper::DefaultInteractivity();
  VOD_RETURN_IF_ERROR(behavior.Validate());
  return behavior;
}

AuditOptions AuditFromFlags(const FlagSet& flags) {
  AuditOptions audit;
  audit.enabled = flags.GetBool("audit") || flags.GetBool("paranoid");
  if (flags.GetBool("paranoid")) audit.every_events = 1;
  return audit;
}

/// Validated here for the same reason as BehaviorFromFlags.
Result<PiggybackOptions> PiggybackFromFlags(const FlagSet& flags) {
  PiggybackOptions piggyback;
  if (flags.GetDouble("piggyback") > 0.0) {
    piggyback.enabled = true;
    piggyback.speed_delta = flags.GetDouble("piggyback");
  }
  VOD_RETURN_IF_ERROR(piggyback.Validate());
  return piggyback;
}

Result<ServerFaultOptions> ParseFaultSpec(const std::string& text) {
  // "disks:mtbf:mttr", e.g. "4:2000:120" (minutes).
  const std::vector<std::string> fields = SplitFields(text, ':');
  if (fields.size() != 3) {
    return Status::InvalidArgument(
        "--faults must be 'disks:mtbf:mttr' (e.g. 4:2000:120), got '" + text +
        "'");
  }
  ServerFaultOptions faults;
  VOD_ASSIGN_OR_RETURN(const int64_t disks,
                       ParseNamed("--faults disks", ParseInt64, fields[0]));
  VOD_ASSIGN_OR_RETURN(faults.profile.mtbf_minutes,
                       ParseNamed("--faults mtbf", ParseDouble, fields[1]));
  VOD_ASSIGN_OR_RETURN(faults.profile.mttr_minutes,
                       ParseNamed("--faults mttr", ParseDouble, fields[2]));
  if (disks > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("--faults disk count in '" + text +
                                   "' is out of range (must fit in an int)");
  }
  if (disks < 1) {
    return Status::InvalidArgument("--faults needs at least one disk");
  }
  faults.enabled = true;
  faults.disks = static_cast<int>(disks);
  VOD_RETURN_IF_ERROR(faults.profile.Validate());
  return faults;
}

// Parses --flash 'movie:start:duration:factor' (minutes; factor scales the
// movie's base rate inside the window).
struct FlashSpec {
  int64_t movie = 0;
  double start_minutes = 0.0;
  double duration_minutes = 0.0;
  double factor = 1.0;
};

Result<FlashSpec> ParseFlashSpec(const std::string& text) {
  const std::vector<std::string> fields = SplitFields(text, ':');
  if (fields.size() != 4) {
    return Status::InvalidArgument(
        "--flash must be 'movie:start:duration:factor' (e.g. 0:5000:2000:4), "
        "got '" + text + "'");
  }
  FlashSpec spec;
  VOD_ASSIGN_OR_RETURN(spec.movie,
                       ParseNamed("--flash movie", ParseInt64, fields[0]));
  VOD_ASSIGN_OR_RETURN(spec.start_minutes,
                       ParseNamed("--flash start", ParseDouble, fields[1]));
  VOD_ASSIGN_OR_RETURN(spec.duration_minutes,
                       ParseNamed("--flash duration", ParseDouble, fields[2]));
  VOD_ASSIGN_OR_RETURN(spec.factor,
                       ParseNamed("--flash factor", ParseDouble, fields[3]));
  if (spec.movie < 0) {
    return Status::InvalidArgument("--flash movie index must be >= 0");
  }
  return spec;
}

/// The (movies, ServerOptions) pair a `server` or `shard` run is: the single
/// configured layout, or a Zipf(--zipf) split of the arrival rate and stream
/// budget across --movies titles, each sized by FromMaxWait against the
/// shared --wait target. --flash replaces one movie's arrival process with a
/// one-shot rate step.
Status ServerFromFlags(const FlagSet& flags,
                       std::vector<ServerMovieSpec>* movies,
                       ServerOptions* options) {
  VOD_ASSIGN_OR_RETURN(const PartitionLayout layout, LayoutFromFlags(flags));
  VOD_ASSIGN_OR_RETURN(const VcrBehavior behavior, BehaviorFromFlags(flags));
  const double total_rate = 1.0 / flags.GetDouble("arrival_gap");
  const int64_t count = flags.GetInt64("movies");
  if (count < 1) {
    return Status::InvalidArgument("--movies must be >= 1");
  }
  if (count > kMaxMovies) {
    return Status::InvalidArgument(
        "--movies=" + std::to_string(count) + " exceeds the catalog bound " +
        std::to_string(kMaxMovies) +
        " (each title holds ~40 KB of simulator state)");
  }
  if (count == 1) {
    movies->push_back(
        {"movie", layout, total_rate, /*arrivals=*/nullptr, behavior});
  } else {
    const double skew = flags.GetDouble("zipf");
    std::vector<double> weights(static_cast<size_t>(count));
    double norm = 0.0;
    for (int64_t i = 0; i < count; ++i) {
      weights[static_cast<size_t>(i)] =
          std::pow(static_cast<double>(i + 1), -skew);
      norm += weights[static_cast<size_t>(i)];
    }
    for (int64_t i = 0; i < count; ++i) {
      const double share = weights[static_cast<size_t>(i)] / norm;
      const auto streams = static_cast<int64_t>(std::llround(
          std::max(1.0, static_cast<double>(flags.GetInt64("streams")) *
                            share)));
      VOD_ASSIGN_OR_RETURN(
          const PartitionLayout movie_layout,
          PartitionLayout::FromMaxWait(flags.GetDouble("length"), streams,
                                       flags.GetDouble("wait")));
      movies->push_back({"m" + std::to_string(i), movie_layout,
                         total_rate * share, /*arrivals=*/nullptr, behavior});
    }
  }

  const std::string& flash_text = flags.GetString("flash");
  if (!flash_text.empty()) {
    VOD_ASSIGN_OR_RETURN(const FlashSpec flash, ParseFlashSpec(flash_text));
    if (flash.movie >= static_cast<int64_t>(movies->size())) {
      return Status::InvalidArgument(
          "--flash movie index " + std::to_string(flash.movie) +
          " is out of range for " + std::to_string(movies->size()) +
          " movie(s)");
    }
    auto& target = (*movies)[static_cast<size_t>(flash.movie)];
    VOD_ASSIGN_OR_RETURN(
        FlashArrivals process,
        FlashArrivals::Create(target.arrival_rate_per_minute, flash.factor,
                              flash.start_minutes, flash.duration_minutes));
    target.arrivals = std::make_shared<FlashArrivals>(process);
  }

  options->rates = paper::Rates();
  options->dynamic_stream_reserve = flags.GetInt64("reserve");
  options->measurement_minutes = flags.GetDouble("measure");
  options->warmup_minutes = options->measurement_minutes * 0.05;
  options->seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  const std::string& fault_text = flags.GetString("faults");
  if (!fault_text.empty()) {
    VOD_ASSIGN_OR_RETURN(options->faults, ParseFaultSpec(fault_text));
  }
  const double deadline = flags.GetDouble("queue_deadline");
  if (deadline < 0.0) {
    return Status::InvalidArgument(
        "--queue_deadline must be >= 0 (0 = ladder off)");
  }
  if (deadline > 0.0) {
    options->degradation.enabled = true;
    options->degradation.queue_deadline_minutes = deadline;
  }
  options->controller.enabled = flags.GetBool("controller");
  options->audit = AuditFromFlags(flags);
  return Status::OK();
}

/// Grid-checkpoint identity: the name and full-precision parsed value of
/// every scenario flag. NUL cannot occur in a command-line value, so two
/// scenarios never share a description.
uint64_t ScenarioFingerprint(const FlagSet& flags,
                             const std::vector<std::string>& scenario) {
  std::string description;
  for (const std::string& name : scenario) {
    description += name + '=' + flags.ValueText(name) + '\0';
  }
  return HashGridDescription(description);
}

// ---- observability (simulate / server / shard) -----------------------------

/// Per-invocation observability state assembled from the flags. All
/// telemetry-only: attaching any of it cannot change a report byte.
struct ObsCli {
  EventLog event_log;
  std::unique_ptr<JsonlSink> trace_sink;
  MetricsRegistry registry;
  PhaseProfiler profiler;
  bool want_trace = false;
  bool want_metrics = false;
  bool want_profile = false;
  std::string trace_out, metrics_out, metrics_csv, profile_out;
  double metrics_every = 0.0;

  /// Reads the flags. It opens no file, so a command can still refuse its
  /// inputs without truncating the paths it was given.
  Status Init(const FlagSet& flags) {
    trace_out = flags.GetString("trace_out");
    want_trace = !trace_out.empty();
    if (want_trace) {
      VOD_ASSIGN_OR_RETURN(
          const uint32_t mask,
          ParseCategoryMask(flags.GetString("trace_categories")));
      event_log.set_mask(mask);
    }
    metrics_out = flags.GetString("metrics_out");
    metrics_csv = flags.GetString("metrics_csv");
    want_metrics = !metrics_out.empty() || !metrics_csv.empty();
    metrics_every = flags.GetDouble("metrics_every");
    profile_out = flags.GetString("profile_out");
    want_profile = !profile_out.empty();
    return Status::OK();
  }

  /// Opens the trace file. Call it once the run's inputs have validated.
  Status Open() {
    if (!want_trace) return Status::OK();
    VOD_ASSIGN_OR_RETURN(trace_sink, JsonlSink::Open(trace_out));
    event_log.AddSink(trace_sink.get());
    return Status::OK();
  }

  /// Wiring for a single simulation run (simulated-minutes clock). The
  /// profiler rides along for engines that record internal lanes (the
  /// sharded server's per-shard work / barrier-wait / fold spans).
  ObsOptions RunOptions() {
    ObsOptions obs;
    if (want_trace) obs.event_log = &event_log;
    if (want_metrics) {
      obs.metrics = &registry;
      obs.metrics_sample_minutes = metrics_every;
    }
    if (want_profile) obs.profiler = &profiler;
    return obs;
  }

  /// Wiring for a replication sweep (cells-done clock; the registry samples
  /// once per completed cell).
  GridObsOptions GridOptions() {
    GridObsOptions obs;
    if (want_profile) obs.profiler = &profiler;
    if (want_metrics) {
      registry.set_sample_every(1.0);
      obs.metrics = &registry;
    }
    if (want_trace) obs.event_log = &event_log;
    return obs;
  }

  /// Flushes the trace and writes the metrics / profile output files.
  Status Finish() {
    if (want_trace) VOD_RETURN_IF_ERROR(event_log.FlushSinks());
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out, std::ios::trunc);
      registry.WritePrometheus(out);
      if (!out) return Status::Internal("cannot write " + metrics_out);
    }
    if (!metrics_csv.empty()) {
      std::ofstream out(metrics_csv, std::ios::trunc);
      registry.WriteSeriesCsv(out);
      if (!out) return Status::Internal("cannot write " + metrics_csv);
    }
    if (want_profile) {
      std::ofstream out(profile_out, std::ios::trunc);
      profiler.WriteChromeTrace(out);
      if (!out) return Status::Internal("cannot write " + profile_out);
    }
    return Status::OK();
  }
};

/// Prints `text` and, when --report_out is set, writes the identical bytes
/// to that file (the soak harness byte-compares these files).
Result<int> EmitReport(const FlagSet& flags, const std::string& text) {
  std::fputs(text.c_str(), stdout);
  const std::string& path = flags.GetString("report_out");
  if (!path.empty()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out) return Status::Internal("cannot write report to " + path);
  }
  return 0;
}

// ---- vodctl model ---------------------------------------------------------

Result<int> ModelCommand(int argc, char** argv) {
  FlagSet flags("vodctl model");
  AddMovieFlags(&flags);
  flags.AddDouble("ff_rate", 3.0, "fast-forward speed (x playback)");
  flags.AddDouble("rw_rate", 3.0, "rewind speed (x playback)");
  flags.AddBool("csv", false, "CSV output");
  VOD_RETURN_IF_ERROR(flags.Parse(argc, argv));

  VOD_ASSIGN_OR_RETURN(const PartitionLayout layout, LayoutFromFlags(flags));
  VOD_ASSIGN_OR_RETURN(const DistributionPtr duration,
                       ParseDistributionSpec(flags.GetString("duration")));
  PlaybackRates rates;
  rates.fast_forward = flags.GetDouble("ff_rate");
  rates.rewind = flags.GetDouble("rw_rate");
  VOD_ASSIGN_OR_RETURN(const AnalyticHitModel model,
                       AnalyticHitModel::Create(layout, rates));

  std::printf("%s, durations %s\n", layout.ToString().c_str(),
              duration->ToString().c_str());
  TableWriter table({"op", "P(hit)", "own partition", "other partitions",
                     "movie end"});
  for (VcrOp op : kAllVcrOps) {
    VOD_ASSIGN_OR_RETURN(const HitProbabilityBreakdown breakdown,
                         model.Breakdown(op, duration));
    table.AddRow({VcrOpName(op), FormatDouble(breakdown.total(), 4),
                  FormatDouble(breakdown.within, 4),
                  FormatDouble(breakdown.jump, 4),
                  FormatDouble(breakdown.end, 4)});
  }
  RenderTable(table, flags.GetBool("csv"));
  return 0;
}

// ---- vodctl size ---------------------------------------------------------
//
// A sizing target, not a scenario: --wait is the QoS bound the chosen n must
// meet, so size keeps its own flags.

Result<int> SizeCommand(int argc, char** argv) {
  FlagSet flags("vodctl size");
  flags.AddDouble("length", 120.0, "movie length (minutes)");
  flags.AddDouble("wait", 0.5, "target max wait (minutes)");
  flags.AddDouble("pstar", 0.5, "target hit probability");
  flags.AddString("duration", "gamma(2,4)", "VCR duration distribution");
  flags.AddString("mix", "mixed", "ff|rw|pau|mixed or 'p_ff,p_rw,p_pau'");
  flags.AddBool("curve", false, "print the full (B, n) trade-off curve");
  flags.AddBool("csv", false, "CSV output");
  VOD_RETURN_IF_ERROR(flags.Parse(argc, argv));

  VOD_ASSIGN_OR_RETURN(const DistributionPtr duration,
                       ParseDistributionSpec(flags.GetString("duration")));
  MovieSizingSpec spec;
  VOD_ASSIGN_OR_RETURN(spec.mix, ParseMix(flags.GetString("mix")));
  spec.name = "movie";
  spec.length_minutes = flags.GetDouble("length");
  spec.max_wait_minutes = flags.GetDouble("wait");
  spec.min_hit_probability = flags.GetDouble("pstar");
  spec.durations = VcrDurations::AllSame(duration);
  spec.rates = paper::Rates();

  if (flags.GetBool("curve")) {
    // Validate first: it bounds l / w to a stream count an int can hold.
    VOD_RETURN_IF_ERROR(spec.Validate());
    const int max_n = static_cast<int>(spec.length_minutes /
                                       spec.max_wait_minutes);
    VOD_ASSIGN_OR_RETURN(const std::vector<SizingPoint> curve,
                         ComputeSizingCurve(spec, std::max(1, max_n / 20)));
    TableWriter table({"n", "B", "P(hit)", "feasible"});
    for (const auto& point : curve) {
      table.AddRow({std::to_string(point.streams),
                    FormatDouble(point.buffer_minutes, 1),
                    FormatDouble(point.hit_probability, 4),
                    point.feasible ? "yes" : "no"});
    }
    RenderTable(table, flags.GetBool("csv"));
  }

  VOD_ASSIGN_OR_RETURN(const SizingPoint choice, MinimumBufferChoice(spec));
  std::printf("minimum-buffer choice: B* = %.1f min, n* = %d, "
              "P(hit) = %.4f (target %.2f)\n",
              choice.buffer_minutes, choice.streams, choice.hit_probability,
              spec.min_hit_probability);
  const HardwareCosts costs;
  AllocationResult allocation;
  allocation.total_streams = choice.streams;
  allocation.total_buffer_minutes = choice.buffer_minutes;
  std::printf("1997-hardware cost: $%.0f (phi = %.1f)\n",
              AllocationCostDollars(allocation, costs), costs.Phi());
  return 0;
}

// ---- vodctl simulate / server ----------------------------------------------
//
// One kernel each: `simulate` runs the paper's single-movie engine
// (RunSimulation), `server` runs every movie against the shared reserve
// (RunServerSimulation). With --replications > 1 either becomes a
// checkpointable sweep: SIGKILL/resume-safe, recombined byte-identically.

/// Registers a one-kernel command's flags and returns its scenario flags,
/// the ones a grid fingerprint hashes.
std::vector<std::string> AddKernelFlags(FlagSet* flags, bool server) {
  AddMovieFlags(flags);
  AddRunFlags(flags);
  flags->AddDouble("piggyback", 0.0, "merge speed delta (0 disables)");
  if (server) AddServerFlags(flags);
  std::vector<std::string> scenario = flags->names();
  AddSweepFlags(flags);
  AddOutputFlags(flags);
  return scenario;
}

/// A sweep's crash-recovery settings (simulate, server).
CheckpointOptions SweepCheckpoint(const FlagSet& flags) {
  CheckpointOptions checkpoint;
  checkpoint.path = flags.GetString("checkpoint");
  checkpoint.checkpoint_every = flags.GetInt64("checkpoint_every");
  checkpoint.resume = flags.GetBool("resume");
  return checkpoint;
}

/// A single run (--replications=1) writes no checkpoint, so a sweep's
/// crash-recovery flag off its default is refused rather than ignored.
Status RefuseSweepFlags(const FlagSet& flags) {
  const CheckpointOptions checkpoint = SweepCheckpoint(flags);
  const CheckpointOptions defaults;
  const std::pair<const char*, bool> changed[] = {
      {"checkpoint", checkpoint.path != defaults.path},
      {"checkpoint_every",
       checkpoint.checkpoint_every != defaults.checkpoint_every},
      {"resume", checkpoint.resume != defaults.resume}};
  for (const auto& [flag, differs] : changed) {
    if (differs) {
      return Status::InvalidArgument(
          std::string("--") + flag +
          " needs --replications > 1: a single run keeps no checkpoint");
    }
  }
  return Status::OK();
}

/// Runs --replications decorrelated cells of `run_cell` through the
/// checkpointable grid runner `grid`. Each cell traces over its own bus into
/// the shared (thread-safe) file sink: cells then never mutate each other's
/// sink lists, so --audit's ring lending stays cell-local. `seq` orders
/// events within a cell; interleaving across cells is scheduling order.
template <typename Report, typename Options, typename RunCell>
Result<std::vector<Report>> RunSweep(
    Result<BasicCheckpointedGridResult<Report>> (*grid)(
        int64_t, const ExperimentOptions&, const CheckpointOptions&, uint64_t,
        const std::function<Report(const CellContext&)>&,
        const GridObsOptions&),
    const FlagSet& flags, const std::vector<std::string>& scenario,
    const ExperimentOptions& experiment, const Options& options, ObsCli* obs,
    RunCell run_cell) {
  VOD_ASSIGN_OR_RETURN(
      BasicCheckpointedGridResult<Report> result,
      grid(/*num_configs=*/1, experiment, SweepCheckpoint(flags),
           ScenarioFingerprint(flags, scenario),
           [&](const CellContext& context) {
             Options cell = options;
             cell.seed = context.seed;
             EventLog cell_log;
             if (obs->want_trace) {
               cell_log.set_mask(obs->event_log.mask());
               cell_log.AddSink(obs->trace_sink.get());
               cell.obs.event_log = &cell_log;
             }
             Result<Report> report = run_cell(cell);
             VOD_CHECK_OK(report.status());
             return *std::move(report);
           },
           obs->GridOptions()));
  VOD_CHECK(result.complete);
  VOD_RETURN_IF_ERROR(obs->Finish());
  return std::move(result.reports[0]);
}

Result<int> SimulateCommand(int argc, char** argv) {
  FlagSet flags("vodctl simulate");
  const std::vector<std::string> scenario =
      AddKernelFlags(&flags, /*server=*/false);
  VOD_RETURN_IF_ERROR(flags.Parse(argc, argv));

  VOD_ASSIGN_OR_RETURN(const PartitionLayout layout, LayoutFromFlags(flags));
  SimulationOptions options;
  VOD_ASSIGN_OR_RETURN(options.behavior, BehaviorFromFlags(flags));
  options.mean_interarrival_minutes = flags.GetDouble("arrival_gap");
  options.measurement_minutes = flags.GetDouble("measure");
  options.warmup_minutes = options.measurement_minutes * 0.05;
  options.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  VOD_ASSIGN_OR_RETURN(options.piggyback, PiggybackFromFlags(flags));
  options.audit = AuditFromFlags(flags);
  ObsCli obs;
  VOD_RETURN_IF_ERROR(obs.Init(flags));
  VOD_ASSIGN_OR_RETURN(const ExperimentOptions experiment,
                       ExperimentOptionsFromFlags(flags, options.seed));
  if (experiment.replications > 1) {
    // The cells keep the default wiring (RunSweep adds a trace bus).
    VOD_RETURN_IF_ERROR(SweepCheckpoint(flags).Validate());
  } else {
    VOD_RETURN_IF_ERROR(RefuseSweepFlags(flags));
    options.obs = obs.RunOptions();
  }
  VOD_RETURN_IF_ERROR(ValidateSimulationInputs(paper::Rates(), options));
  VOD_RETURN_IF_ERROR(obs.Open());
  const auto run = [&](const SimulationOptions& run_options) {
    return RunSimulation(layout, paper::Rates(), run_options);
  };

  if (experiment.replications > 1) {
    // R decorrelated replications, then the Student-t reduction.
    // (--replications=1 keeps the single run's own seed and its within-run
    // Wilson/batch-means intervals, below.)
    VOD_ASSIGN_OR_RETURN(const std::vector<SimulationReport> reports,
                         RunSweep(RunCheckpointedReportGrid, flags, scenario,
                                  experiment, options, &obs, run));
    std::ostringstream out;
    char line[256];
    for (size_t r = 0; r < reports.size(); ++r) {
      std::snprintf(line, sizeof(line),
                    "replication %zu: P(hit) in-partition = %.4f "
                    "(%lld resumes), mean wait = %.3f min\n",
                    r, reports[r].hit_probability_in_partition,
                    static_cast<long long>(reports[r].in_partition_resumes),
                    reports[r].mean_wait_minutes);
      out << line;
    }
    out << "\n" << SummarizeReplications(reports).ToString() << "\n";
    return EmitReport(flags, out.str());
  }

  VOD_ASSIGN_OR_RETURN(const SimulationReport report, [&] {
    PhaseProfiler::Scope span(obs.want_profile ? &obs.profiler : nullptr,
                              "simulation");
    return run(options);
  }());
  VOD_RETURN_IF_ERROR(obs.Finish());
  std::ostringstream out;
  char line[256];
  out << report.ToString() << "\n";
  std::snprintf(line, sizeof(line),
                "P(hit) in-partition = %.4f [%.4f, %.4f]; "
                "wait p50/p99/max = %.3f/%.3f/%.3f min\n",
                report.hit_probability_in_partition,
                report.hit_probability_in_partition_low,
                report.hit_probability_in_partition_high,
                report.p50_wait_minutes, report.p99_wait_minutes,
                report.max_wait_minutes);
  out << line;
  return EmitReport(flags, out.str());
}

Result<int> ServerCommand(int argc, char** argv) {
  FlagSet flags("vodctl server");
  const std::vector<std::string> scenario =
      AddKernelFlags(&flags, /*server=*/true);
  VOD_RETURN_IF_ERROR(flags.Parse(argc, argv));

  std::vector<ServerMovieSpec> movies;
  ServerOptions options;
  VOD_RETURN_IF_ERROR(ServerFromFlags(flags, &movies, &options));
  VOD_ASSIGN_OR_RETURN(options.piggyback, PiggybackFromFlags(flags));
  ObsCli obs;
  VOD_RETURN_IF_ERROR(obs.Init(flags));
  VOD_ASSIGN_OR_RETURN(const ExperimentOptions experiment,
                       ExperimentOptionsFromFlags(flags, options.seed));
  if (experiment.replications > 1) {
    // The cells keep the default wiring (RunSweep adds a trace bus).
    VOD_RETURN_IF_ERROR(SweepCheckpoint(flags).Validate());
  } else {
    VOD_RETURN_IF_ERROR(RefuseSweepFlags(flags));
    options.obs = obs.RunOptions();
  }
  VOD_RETURN_IF_ERROR(ValidateServerInputs(movies, options));
  VOD_RETURN_IF_ERROR(obs.Open());
  const auto run = [&](const ServerOptions& run_options) {
    return RunServerSimulation(movies, run_options);
  };

  if (experiment.replications > 1) {
    // Each cell is a whole-server run, and the checkpoint carries full
    // ServerReports: resilience transitions and the controller block too.
    VOD_ASSIGN_OR_RETURN(const std::vector<ServerReport> reports,
                         RunSweep(RunCheckpointedServerGrid, flags, scenario,
                                  experiment, options, &obs, run));
    std::ostringstream out;
    for (size_t r = 0; r < reports.size(); ++r) {
      out << "replication " << r << ":\n" << reports[r].ToString() << "\n";
    }
    return EmitReport(flags, out.str());
  }

  VOD_ASSIGN_OR_RETURN(const ServerReport report, [&] {
    PhaseProfiler::Scope span(obs.want_profile ? &obs.profiler : nullptr,
                              "server_simulation");
    return run(options);
  }());
  VOD_RETURN_IF_ERROR(obs.Finish());
  return EmitReport(flags, report.ToString() + "\n");
}

// ---- vodctl shard ----------------------------------------------------------
//
// The sharded multi-core server engine: one giant simulated server whose
// movies are partitioned across per-core shards, coupled only at
// deterministic window barriers (sim/sharded_server.h). It takes the
// server's scenario flags. The report is byte-identical for any
// --shards/--threads combination, and --checkpoint makes the run
// SIGKILL/resume-safe via replay-verified barrier snapshots (the engine
// fingerprints its own configuration). --queue_deadline arms the windowed
// degradation ladder (graceful degradation under faults: queueing, VCR
// shedding, forced reclaim, batching-only — decided at barriers, applied at
// window opens), and the observability flags attach coordinator-side
// tracing/metrics.

Result<int> ShardCommand(int argc, char** argv) {
  FlagSet flags("vodctl shard");
  AddMovieFlags(&flags);
  AddRunFlags(&flags);
  AddServerFlags(&flags);
  AddShardFlags(&flags);
  AddOutputFlags(&flags);
  VOD_RETURN_IF_ERROR(flags.Parse(argc, argv));

  std::vector<ServerMovieSpec> movies;
  ShardedServerOptions options;
  VOD_RETURN_IF_ERROR(ServerFromFlags(flags, &movies, &options.base));
  ObsCli obs;
  VOD_RETURN_IF_ERROR(obs.Init(flags));
  options.base.obs = obs.RunOptions();
  VOD_ASSIGN_OR_RETURN(options.shards, IntFlag(flags, "shards"));
  VOD_ASSIGN_OR_RETURN(options.threads, IntFlag(flags, "threads"));
  options.window_minutes = flags.GetDouble("window");
  options.checkpoint.path = flags.GetString("checkpoint");
  options.checkpoint.every_windows = flags.GetInt64("checkpoint_every");
  options.checkpoint.resume = flags.GetBool("resume");
  options.checkpoint.stop_after_windows =
      flags.GetInt64("stop_after_windows");
  options.postmortem_path = flags.GetString("postmortem_out");
  options.corrupt_audit_window = flags.GetInt64("corrupt_window");
  VOD_RETURN_IF_ERROR(ValidateShardedInputs(movies, options));
  VOD_RETURN_IF_ERROR(obs.Open());

  const auto report = [&] {
    PhaseProfiler::Scope span(obs.want_profile ? &obs.profiler : nullptr,
                              "sharded_simulation");
    return RunShardedServerSimulation(movies, options);
  }();
  if (!report.ok()) {
    // Flush partial telemetry first: the failures left once the inputs
    // have validated (audit violations, replay-verify rejections) are
    // exactly the ones the trace, metrics, and postmortem bundle exist to
    // explain.
    (void)obs.Finish();
    return report.status();
  }
  if (!report->complete) {
    // Crash emulation: the run stopped at a barrier without reaching the
    // horizon. Exit non-zero without emitting a report so a soak harness
    // treats it like a killed child.
    std::fprintf(stderr, "vodctl shard: stopped after %lld windows "
                 "(incomplete; resume from the checkpoint)\n",
                 static_cast<long long>(report->windows));
    (void)obs.Finish();  // flush the partial trace; the exit code already
                         // says the run is incomplete
    return 3;
  }
  VOD_RETURN_IF_ERROR(obs.Finish());
  return EmitReport(flags, report->ToString() + "\n");
}

// ---- vodctl catalog --------------------------------------------------------

Result<int> CatalogCommand(int argc, char** argv) {
  FlagSet flags("vodctl catalog");
  flags.AddString("file", "", "catalog CSV (see Catalog::FromCsv)");
  flags.AddDouble("rate", 4.0, "total arrivals per minute");
  flags.AddDouble("zipf", 1.0, "popularity exponent");
  flags.AddInt64("budget", 0, "stream budget (0 = pure-batching count)");
  flags.AddBool("csv", false, "CSV output");
  VOD_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (flags.GetString("file").empty()) {
    return Status::InvalidArgument("--file is required");
  }
  std::ifstream file(flags.GetString("file"));
  if (!file) return Status::NotFound("cannot open " + flags.GetString("file"));
  VOD_ASSIGN_OR_RETURN(
      const Catalog catalog,
      Catalog::FromCsv(file, flags.GetDouble("zipf"), flags.GetDouble("rate")));

  std::vector<MovieSizingSpec> specs;
  for (size_t rank = 1; rank <= catalog.size(); ++rank) {
    const MovieEntry& entry = catalog.movie(static_cast<int>(rank));
    if (entry.behavior.passive() || entry.min_hit_probability <= 0.0) {
      continue;  // unicast title; no pre-allocation
    }
    MovieSizingSpec spec;
    spec.name = entry.title;
    spec.length_minutes = entry.length_minutes;
    spec.max_wait_minutes = entry.max_wait_minutes;
    spec.min_hit_probability = entry.min_hit_probability;
    spec.mix = entry.behavior.mix;
    spec.durations = entry.behavior.durations;
    spec.rates = paper::Rates();
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) {
    return Status::InvalidArgument(
        "no sizable titles in the catalog (all passive or P* = 0)");
  }
  const int pure = PureBatchingStreams(specs);
  VOD_ASSIGN_OR_RETURN(int budget, IntFlag(flags, "budget"));
  if (budget <= 0) budget = pure;
  VOD_ASSIGN_OR_RETURN(const AllocationResult sized, SizeSystem(specs, budget));

  TableWriter table({"title", "streams", "buffer (min)"});
  for (const auto& m : sized.movies) {
    table.AddRow({m.name, std::to_string(m.streams),
                  FormatDouble(m.buffer_minutes, 1)});
  }
  RenderTable(table, flags.GetBool("csv"));
  std::printf("total: %d streams + %.1f buffer-minutes "
              "(pure batching: %d streams)\n",
              sized.total_streams, sized.total_buffer_minutes, pure);
  return 0;
}

// ---- vodctl timeline -------------------------------------------------------
//
// ASCII rendering of the partition-window pattern (the paper's Figures 1–4):
// each row is a snapshot of the movie axis at a later time; '#' marks
// buffered positions, '.' the gaps, and 'F'/'V' a fast-forwarding viewer.
// It draws a layout, not a run, so it keeps its own flags (B is given
// directly).

/// The widest movie axis and the most snapshots a timeline draws: each
/// column costs one coverage lookup per row, and the output is rows x width
/// characters (16 MB at both bounds).
constexpr int64_t kMaxTimelineWidth = 4096;
constexpr int64_t kMaxTimelineRows = 4096;

Result<int> TimelineCommand(int argc, char** argv) {
  FlagSet flags("vodctl timeline");
  flags.AddDouble("length", 120.0, "movie length (minutes)");
  flags.AddInt64("streams", 12, "number of I/O streams n");
  flags.AddDouble("buffer", 60.0, "buffer minutes B");
  flags.AddDouble("start_pos", 30.0, "viewer position at the first row");
  flags.AddDouble("ff_minutes", 36.0, "movie-minutes the viewer FFs through");
  flags.AddDouble("ff_rate", 3.0, "fast-forward speed (x playback)");
  flags.AddInt64("width", 96, "columns for the movie axis");
  flags.AddInt64("rows", 12, "time snapshots");
  VOD_RETURN_IF_ERROR(flags.Parse(argc, argv));

  VOD_ASSIGN_OR_RETURN(const int streams, IntFlag(flags, "streams"));
  VOD_ASSIGN_OR_RETURN(
      const PartitionLayout layout,
      PartitionLayout::FromBuffer(flags.GetDouble("length"), streams,
                                  flags.GetDouble("buffer")));
  const double l = layout.movie_length();
  const auto width = flags.GetInt64("width");
  const auto rows = flags.GetInt64("rows");
  if (width < 10 || rows < 1) {
    return Status::InvalidArgument("need --width >= 10, --rows >= 1");
  }
  if (width > kMaxTimelineWidth) {
    return Status::InvalidArgument("--width=" + std::to_string(width) +
                                   " exceeds the bound of " +
                                   std::to_string(kMaxTimelineWidth));
  }
  if (rows > kMaxTimelineRows) {
    return Status::InvalidArgument("--rows=" + std::to_string(rows) +
                                   " exceeds the bound of " +
                                   std::to_string(kMaxTimelineRows));
  }

  PartitionSchedule schedule(layout);
  const double ff_rate = flags.GetDouble("ff_rate");
  const double ff_span = flags.GetDouble("ff_minutes");
  const double start_pos = flags.GetDouble("start_pos");
  // The FF lasts ff_span / ff_rate wall minutes; render that plus some
  // normal playback before and after.
  const double ff_wall = ff_span / ff_rate;
  const double total_wall = ff_wall * 3.0;
  const double t0 = 10.0 * layout.restart_period();  // steady state

  std::printf("%s — '#' buffered, '.' gap, F = viewer fast-forwarding at "
              "%.0fx, V = normal playback\n",
              layout.ToString().c_str(), ff_rate);
  for (int64_t row = 0; row < rows; ++row) {
    const double dt = total_wall * static_cast<double>(row) /
                      static_cast<double>(rows - 1 > 0 ? rows - 1 : 1);
    const double t = t0 + dt;
    // Viewer trajectory: playback for ff_wall, FF for ff_wall, playback.
    double pos;
    char marker = 'V';
    if (dt < ff_wall) {
      pos = start_pos + dt;
    } else if (dt < 2.0 * ff_wall) {
      pos = start_pos + ff_wall + (dt - ff_wall) * ff_rate;
      marker = 'F';
    } else {
      pos = start_pos + ff_wall + ff_span + (dt - 2.0 * ff_wall);
    }
    std::string line(static_cast<size_t>(width), '.');
    for (int64_t col = 0; col < width; ++col) {
      const double p = l * (static_cast<double>(col) + 0.5) /
                       static_cast<double>(width);
      if (schedule.FindCoveringStream(t, p).has_value()) {
        line[static_cast<size_t>(col)] = '#';
      }
    }
    if (pos <= l) {
      const auto col = static_cast<int64_t>(pos / l * width);
      if (col >= 0 && col < width) {
        line[static_cast<size_t>(col)] = marker;
      }
    }
    const bool covered =
        pos <= l && schedule.FindCoveringStream(t, pos).has_value();
    std::printf("t=%7.2f |%s| pos %6.2f %s\n", t, line.c_str(),
                std::min(pos, l),
                pos > l ? "(finished)" : covered ? "(in buffer)" : "(gap)");
  }
  std::printf("\nwindows advance with playback; the FF segment crosses gaps "
              "and windows — where it ends decides hit vs miss (paper "
              "Fig. 2).\n");
  return 0;
}
// ---- vodctl soak -----------------------------------------------------------
//
// Chaos soak for crash recovery: runs `vodctl simulate` sweeps (`server`
// with --drift, `shard` with --shards) as child processes, SIGKILLs them at
// randomized points mid-sweep, resumes from the last checkpoint, and
// byte-compares the final report against a golden uninterrupted run. A
// recovery bug — lost cells, double-merged cells, a torn checkpoint — shows
// up as a byte difference or a failed resume.

#if VODCTL_HAS_FORK

/// Spawns this binary with `args`; kills it with SIGKILL after
/// `kill_after_ms` (< 0 = let it finish). Returns the child's exit code, or
/// -signal when it died by signal.
Result<int> RunSelf(const std::vector<std::string>& args, int kill_after_ms) {
  // Flush before forking: the child's freopen would otherwise re-flush any
  // buffered parent output, duplicating progress lines on piped stdout.
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    std::vector<std::string> storage = args;
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>("vodctl"));
    for (std::string& arg : storage) argv.push_back(arg.data());
    argv.push_back(nullptr);
    // The child's report goes nowhere: the parent only reads report files.
    if (!std::freopen("/dev/null", "w", stdout)) _exit(126);
    execv("/proc/self/exe", argv.data());
    _exit(127);  // exec failed
  }
  if (kill_after_ms >= 0) {
    usleep(static_cast<useconds_t>(kill_after_ms) * 1000);
    kill(pid, SIGKILL);
  }
  int wstatus = 0;
  if (waitpid(pid, &wstatus, 0) < 0) {
    return Status::Internal("waitpid failed");
  }
  if (WIFSIGNALED(wstatus)) return -WTERMSIG(wstatus);
  return WEXITSTATUS(wstatus);
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

Result<int> SoakCommand(int argc, char** argv) {
  FlagSet flags("vodctl soak");
  flags.AddInt64("cycles", 3, "SIGKILL/resume cycles before the final "
                 "uninterrupted resume");
  flags.AddInt64("replications", 8, "replications in the soaked sweep");
  // Sized so the sweep outlasts the default kill window: kills must land
  // mid-sweep for the soak to exercise recovery rather than a clean run.
  flags.AddDouble("measure", 40000.0, "measured minutes per replication");
  flags.AddInt64("seed", 42, "seed for both the sweep and the kill points");
  flags.AddInt64("threads", 2, "threads for the soaked sweep");
  flags.AddInt64("kill_min_ms", 20, "earliest kill, ms after child start");
  flags.AddInt64("kill_max_ms", 400, "latest kill, ms after child start");
  flags.AddString("prefix", "vodctl_soak", "work-file prefix "
                  "(<prefix>.golden / .report / .ckpt)");
  flags.AddBool("trace", false, "children trace to <prefix>.trace.jsonl — "
                "proves recovery stays byte-identical while tracing");
  flags.AddBool("drift", false, "soak the whole-server drift stack instead "
                "of the single-movie sweep: flash crowd + control plane + "
                "disk faults, killed and resumed mid-migration");
  flags.AddInt64("shards", 0, "soak the sharded multi-core server instead: "
                 "`vodctl shard` children with this many shards, SIGKILLed "
                 "between barriers and resumed from the replay-verify "
                 "checkpoint (golden run uses 1 thread, chaos children "
                 "--threads, proving the bytes are thread-independent too)");
  VOD_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (flags.GetInt64("cycles") < 1 ||
      flags.GetInt64("kill_min_ms") > flags.GetInt64("kill_max_ms")) {
    return Status::InvalidArgument(
        "need --cycles >= 1 and kill_min_ms <= kill_max_ms");
  }
  if (flags.GetInt64("shards") == 0 && flags.GetInt64("replications") < 2) {
    // The children's sweep flags are refused on a single run.
    return Status::InvalidArgument(
        "--replications must be >= 2: a single run keeps no checkpoint to "
        "resume");
  }

  const std::string prefix = flags.GetString("prefix");
  const std::string golden_path = prefix + ".golden";
  const std::string report_path = prefix + ".report";
  const std::string ckpt_path = prefix + ".ckpt";
  std::remove(golden_path.c_str());
  std::remove(report_path.c_str());
  std::remove(ckpt_path.c_str());

  const int64_t soak_shards = flags.GetInt64("shards");
  std::vector<std::string> base_args;
  if (soak_shards > 0) {
    // Sharded-server chaos leg: one giant server, barrier checkpoints,
    // cross-shard conservation audited at every window, and the windowed
    // degradation ladder armed so SIGKILLs land mid-degradation (faults
    // shrink the reserve, rungs climb, forced reclaims fly) — recovery
    // must still reproduce the golden bytes, resilience block included.
    // Threads are appended per-invocation below (golden 1, chaos children
    // --threads) so a byte-identical recovery also proves
    // thread-independence.
    base_args = {
        "shard",
        "--movies=6",
        "--shards=" + std::to_string(soak_shards),
        "--measure=" + std::to_string(flags.GetDouble("measure")),
        "--seed=" + std::to_string(flags.GetInt64("seed")),
        "--window=50",
        "--reserve=40",
        "--faults=4:2000:120",
        "--queue_deadline=5",
        "--audit",
        "--checkpoint_every=2",
    };
  } else {
    base_args = {
        flags.GetBool("drift") ? "server" : "simulate",
        "--replications=" + std::to_string(flags.GetInt64("replications")),
        "--measure=" + std::to_string(flags.GetDouble("measure")),
        "--seed=" + std::to_string(flags.GetInt64("seed")),
        "--threads=" + std::to_string(flags.GetInt64("threads")),
        "--checkpoint_every=1",
        "--audit",  // the soak audits invariants throughout every sweep
    };
  }
  if (soak_shards == 0 && flags.GetBool("drift")) {
    // Whole-server drift stack: a Zipf catalog with a flash crowd early in
    // the horizon, the controller re-planning through it, disk faults
    // shrinking the reserve, and the degradation ladder armed. SIGKILLs
    // then land while migrations are in flight; recovery must still
    // reproduce the golden bytes (controller block included).
    const double measure = flags.GetDouble("measure");
    const auto flash = "--flash=0:" + std::to_string(measure * 0.1) + ":" +
                       std::to_string(measure * 0.25) + ":4";
    base_args.insert(base_args.end(),
                     {"--movies=3", "--controller", flash, "--reserve=30",
                      "--faults=4:2000:120", "--queue_deadline=5"});
  }
  // Tracing must not perturb recovery: each child (golden included) streams
  // events to a sink; only the report files are byte-compared.
  const std::string trace_path = prefix + ".trace.jsonl";
  if (flags.GetBool("trace")) {
    base_args.push_back("--trace_out=" + trace_path);
  }

  // Golden run: same sweep, no checkpointing, never killed.
  std::vector<std::string> golden_args = base_args;
  if (soak_shards > 0) golden_args.push_back("--threads=1");
  golden_args.push_back("--report_out=" + golden_path);
  std::printf("soak: golden uninterrupted run...\n");
  VOD_ASSIGN_OR_RETURN(const int golden_exit,
                       RunSelf(golden_args, /*kill_after_ms=*/-1));
  if (golden_exit != 0) {
    return Status::Internal("golden run exited with code " +
                            std::to_string(golden_exit));
  }

  // A chaos child checkpoints the sweep and resumes once a checkpoint exists.
  const auto chaos_args = [&] {
    std::vector<std::string> args = base_args;
    if (soak_shards > 0) {
      args.push_back("--threads=" + std::to_string(flags.GetInt64("threads")));
    }
    args.push_back("--checkpoint=" + ckpt_path);
    args.push_back("--report_out=" + report_path);
    if (FileExists(ckpt_path)) args.push_back("--resume");
    return args;
  };

  // Kill/resume cycles. The kill points are deterministic in --seed.
  Rng kill_rng(static_cast<uint64_t>(flags.GetInt64("seed")) ^
               0x50AC50AC50AC50ACull);
  const int64_t kill_min = flags.GetInt64("kill_min_ms");
  const int64_t kill_span = flags.GetInt64("kill_max_ms") - kill_min + 1;
  bool finished_early = false;
  for (int64_t cycle = 0; cycle < flags.GetInt64("cycles"); ++cycle) {
    const std::vector<std::string> args = chaos_args();
    const int kill_after = static_cast<int>(
        kill_min + static_cast<int64_t>(
                       kill_rng.UniformInt(static_cast<uint64_t>(kill_span))));
    VOD_ASSIGN_OR_RETURN(const int exit_code, RunSelf(args, kill_after));
    std::printf("soak: cycle %lld: SIGKILL at %d ms -> %s\n",
                static_cast<long long>(cycle), kill_after,
                exit_code == -SIGKILL
                    ? "killed mid-sweep"
                    : ("exit " + std::to_string(exit_code)).c_str());
    if (exit_code == 0) {
      finished_early = true;  // sweep beat the kill; recovery already proven
      break;
    }
    if (exit_code != -SIGKILL) {
      return Status::Internal(
          "soaked child failed with exit code " + std::to_string(exit_code) +
          " instead of finishing or dying by SIGKILL");
    }
  }

  // Final resume: must complete and must reproduce the golden bytes.
  if (!finished_early) {
    VOD_ASSIGN_OR_RETURN(const int exit_code,
                         RunSelf(chaos_args(), /*kill_after_ms=*/-1));
    if (exit_code != 0) {
      return Status::Internal("final resume exited with code " +
                              std::to_string(exit_code));
    }
  }

  VOD_ASSIGN_OR_RETURN(const std::string golden, ReadFileBytes(golden_path));
  VOD_ASSIGN_OR_RETURN(const std::string recovered,
                       ReadFileBytes(report_path));
  if (golden != recovered) {
    std::fprintf(stderr,
                 "soak: FAIL — recovered report differs from golden run\n"
                 "--- golden ---\n%s--- recovered ---\n%s",
                 golden.c_str(), recovered.c_str());
    return 1;
  }
  std::printf("soak: PASS — recovered report is byte-identical to the "
              "golden run (%zu bytes)\n", golden.size());
  std::remove(golden_path.c_str());
  std::remove(report_path.c_str());
  std::remove(ckpt_path.c_str());
  std::remove(trace_path.c_str());
  return 0;
}

#else  // !VODCTL_HAS_FORK

Result<int> SoakCommand(int, char**) {
  return Status::NotSupported(
      "vodctl soak needs fork/exec; unavailable on this platform");
}

#endif  // VODCTL_HAS_FORK

// ---- vodctl inspect --------------------------------------------------------
//
// Offline view of a trace file written by `simulate`, `server` or `shard`
// with --trace_out: a per-category summary table plus, when the run
// walked the degradation ladder, a reconstructed level-by-level timeline
// (kDegradation transitions and the barrier-emitted rung announcements of a
// sharded run merge into one timeline), and the controller decision log.

/// Pretty-prints a flight-recorder bundle: the failure reason, the retained
/// window ledger history (rung, digest chain, credit/debt, per-shard event
/// deltas), and each shard's trailing events.
Result<int> RenderPostmortem(const std::string& path, bool csv) {
  VOD_ASSIGN_OR_RETURN(const PostmortemBundle bundle, ReadPostmortem(path));
  std::printf("postmortem bundle: %s\n", path.c_str());
  std::printf("reason: %s\n", bundle.reason.c_str());
  std::printf("%d shards, %zu retained windows, %zu retained events\n",
              bundle.shards, bundle.windows.size(), bundle.events.size());

  if (!bundle.windows.empty()) {
    std::printf("\nwindow ledger history (oldest first):\n");
    TableWriter table({"window", "t_end", "capacity", "rung", "held",
                       "credit", "debt", "queued", "quota", "events/shard",
                       "digest"});
    for (const FlightWindowRecord& fw : bundle.windows) {
      std::string per_shard;
      for (size_t s = 0; s < fw.shard_events.size(); ++s) {
        if (s > 0) per_shard += "/";
        per_shard += std::to_string(fw.shard_events[s]);
      }
      char digest_hex[32];
      std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                    static_cast<unsigned long long>(fw.digest));
      table.AddRow({std::to_string(fw.window), FormatDouble(fw.t_end, 2),
                    std::to_string(fw.capacity),
                    DegradationLevelName(
                        static_cast<DegradationLevel>(fw.rung)),
                    std::to_string(fw.sum_held),
                    std::to_string(fw.sum_credit),
                    std::to_string(fw.sum_debt),
                    std::to_string(fw.sum_queued),
                    std::to_string(fw.quota_issued), per_shard, digest_hex});
    }
    RenderTable(table, csv);
  }

  if (!bundle.events.empty()) {
    std::printf("\nper-shard event tails (oldest first):\n");
    TableWriter table({"shard", "t", "category", "sub", "movie", "id",
                       "value"});
    for (const PostmortemEvent& pe : bundle.events) {
      table.AddRow({std::to_string(pe.shard),
                    FormatDouble(pe.event.time, 3),
                    EventCategoryName(pe.event.category),
                    EventSubtypeName(pe.event.category, pe.event.subtype),
                    std::to_string(pe.event.movie),
                    std::to_string(pe.event.id),
                    FormatDouble(pe.event.value, 3)});
    }
    RenderTable(table, csv);
  }
  return 0;
}

Result<int> InspectCommand(int argc, char** argv) {
  FlagSet flags("vodctl inspect");
  flags.AddString("trace", "", "JSONL trace file to inspect");
  flags.AddString("postmortem", "", "flight-recorder bundle to pretty-print "
                  "(written by `vodctl shard --postmortem_out=...`)");
  flags.AddBool("csv", false, "CSV output");
  VOD_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (!flags.GetString("postmortem").empty()) {
    return RenderPostmortem(flags.GetString("postmortem"),
                            flags.GetBool("csv"));
  }
  if (flags.GetString("trace").empty()) {
    return Status::InvalidArgument("--trace or --postmortem is required");
  }

  VOD_ASSIGN_OR_RETURN(const std::vector<TraceEvent> events,
                       ReadTraceFile(flags.GetString("trace")));
  if (events.empty()) {
    std::printf("empty trace\n");
    return 0;
  }
  const bool csv = flags.GetBool("csv");
  std::printf("%zu events over [%.2f, %.2f] simulated minutes\n",
              events.size(), events.front().time, events.back().time);

  TableWriter table({"category", "count", "first t", "last t", "mean value",
                     "min", "max"});
  for (const CategorySummary& s : SummarizeTrace(events)) {
    table.AddRow({EventCategoryName(s.category), std::to_string(s.count),
                  FormatDouble(s.first_t, 2), FormatDouble(s.last_t, 2),
                  FormatDouble(s.value_sum / static_cast<double>(s.count), 3),
                  FormatDouble(s.value_min, 3), FormatDouble(s.value_max, 3)});
  }
  RenderTable(table, csv);

  const auto timeline = DegradationTimeline(events);
  if (!timeline.empty()) {
    std::printf("\ndegradation timeline:\n");
    TableWriter levels({"start", "end", "dwell (min)", "from", "level",
                        "capacity"});
    for (const DegradationInterval& iv : timeline) {
      levels.AddRow(
          {FormatDouble(iv.start, 2), FormatDouble(iv.end, 2),
           FormatDouble(iv.end - iv.start, 2),
           DegradationLevelName(static_cast<DegradationLevel>(iv.from_level)),
           DegradationLevelName(static_cast<DegradationLevel>(iv.level)),
           std::to_string(iv.capacity)});
    }
    RenderTable(levels, csv);
  }

  const auto decisions = ControllerTimeline(events);
  if (!decisions.empty()) {
    std::printf("\ncontroller decision timeline:\n");
    TableWriter ctrl({"t", "decision", "movie", "epoch", "value", "reclaims",
                      "grants"});
    for (const ControllerDecision& d : decisions) {
      ctrl.AddRow({FormatDouble(d.time, 2),
                   EventSubtypeName(EventCategory::kController,
                                    static_cast<uint8_t>(d.subtype)),
                   d.movie >= 0 ? std::to_string(d.movie) : "-",
                   d.epoch >= 0 ? std::to_string(d.epoch) : "-",
                   FormatDouble(d.value, 3), std::to_string(d.reclaims),
                   std::to_string(d.grants)});
    }
    RenderTable(ctrl, csv);
  }

  // Sharded runs: fold the kShard window records into an imbalance view —
  // an overall summary line plus the worst windows by max−min spread.
  const auto shard_windows = ShardImbalanceTimeline(events);
  if (!shard_windows.empty()) {
    int64_t total = 0;
    int64_t worst_spread = 0;
    for (const ShardWindowSummary& sw : shard_windows) {
      total += sw.total_events;
      worst_spread = std::max(worst_spread,
                              sw.max_events - sw.min_events);
    }
    std::printf("\nshard imbalance (%zu windows, %lld events, worst "
                "max-min spread %lld):\n",
                shard_windows.size(), static_cast<long long>(total),
                static_cast<long long>(worst_spread));
    std::vector<ShardWindowSummary> worst = shard_windows;
    std::stable_sort(worst.begin(), worst.end(),
                     [](const ShardWindowSummary& a,
                        const ShardWindowSummary& b) {
                       return a.max_events - a.min_events >
                              b.max_events - b.min_events;
                     });
    constexpr size_t kWorstWindows = 8;
    if (worst.size() > kWorstWindows) worst.resize(kWorstWindows);
    TableWriter imb({"t_end", "shards", "events", "max", "min", "spread",
                     "critical shard"});
    for (const ShardWindowSummary& sw : worst) {
      imb.AddRow({FormatDouble(sw.t_end, 2), std::to_string(sw.shards),
                  std::to_string(sw.total_events),
                  std::to_string(sw.max_events),
                  std::to_string(sw.min_events),
                  std::to_string(sw.max_events - sw.min_events),
                  std::to_string(sw.critical_shard)});
    }
    RenderTable(imb, csv);
  }
  return 0;
}

int Usage() {
  std::fputs(
      "usage: vodctl <command> [--flags]\n"
      "commands:\n"
      "  model     analytic P(hit) breakdown for one configuration\n"
      "  size      minimum-buffer sizing for QoS targets\n"
      "  simulate  the paper's discrete-event simulation of one movie\n"
      "  server    one server: many movies sharing a VCR stream reserve, "
      "with faults,\n"
      "            the degradation ladder and the control plane\n"
      "  shard     the server, partitioned across cores at window barriers\n"
      "  catalog   size a whole catalog from CSV\n"
      "  timeline  ASCII view of the partition windows and a FF trajectory\n"
      "  soak      SIGKILL/resume chaos soak of a checkpointed sweep\n"
      "  inspect   summarize a trace file written by --trace_out, or a "
      "postmortem bundle\n"
      "  reproduce the paper's figures and examples, plus ablations and "
      "extensions\n"
      "run 'vodctl <command> --help' for the command's flags\n",
      stderr);
  return 2;
}

}  // namespace
}  // namespace vod

int main(int argc, char** argv) {
  using Command = vod::Result<int> (*)(int, char**);
  const std::pair<const char*, Command> commands[] = {
      {"model", vod::ModelCommand},       {"size", vod::SizeCommand},
      {"simulate", vod::SimulateCommand}, {"server", vod::ServerCommand},
      {"shard", vod::ShardCommand},       {"catalog", vod::CatalogCommand},
      {"timeline", vod::TimelineCommand}, {"soak", vod::SoakCommand},
      {"inspect", vod::InspectCommand},
      {"reproduce", vod::ReproduceCommand}};
  for (const auto& [name, command] : commands) {
    if (argc < 2 || std::string(argv[1]) != name) continue;
    // Shift argv so subcommand flags parse from position 1.
    const vod::Result<int> exit_code = command(argc - 1, argv + 1);
    if (exit_code.ok()) return *exit_code;
    std::fprintf(stderr, "vodctl: %s\n", exit_code.status().ToString().c_str());
    return 1;
  }
  return vod::Usage();
}
