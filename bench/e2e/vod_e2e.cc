// vod_e2e — the end-to-end benchmark program (see README.md).
//
// One process runs one named workload. It repeats the same seeded work rep
// after rep, tracing off, until --seconds have elapsed and at least --reps
// reps ran. Before each rep it times a slice of set-ups, which build the
// workload's inputs from --seed; the median is the set-up time. With
// --trace=DIR it then runs one more set-up and rep under a PhaseProfiler —
// the benchmark's own spans around each public call plus the library's
// sharded lanes — followed by unit-cost probes, and writes
// DIR/<workload>.trace.json.
//
// Every rep's outputs are checked (report digests, the Fig-7 model gap,
// Example 1, mailbox conservation, OK statuses). The process prints one JSON
// document on stdout and exits non-zero if any check failed.
//
//   vod_e2e --workload=paper_grid --seed=1 --reps=3 [--seconds=5]
//           [--trace=DIR] [--workdir=DIR] [--scale=full|smoke]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "core/cost_model.h"
#include "core/hit_model.h"
#include "core/sizing.h"
#include "dist/exponential.h"
#include "dist/gamma.h"
#include "exp/experiment.h"
#include "obs/profiler.h"
#include "sim/arrival_process.h"
#include "sim/event_queue.h"
#include "sim/sharded_server.h"
#include "sim/simulator.h"
#include "workload/paper_presets.h"

namespace vod {
namespace e2e {
namespace {

/// Worker threads of the parallel workloads: half of a 4-core host. Four
/// threads made reps a third or more faster but no steadier, and left no
/// core for run.py or anything else running beside the benchmark
/// (README.md).
constexpr int kThreads = 2;

#if defined(__clang__)
constexpr char kCompiler[] = __VERSION__;
#else
constexpr char kCompiler[] = "gcc " __VERSION__;
#endif

using Clock = std::chrono::steady_clock;
using Counters = std::map<std::string, double>;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// FNV-1a, 64-bit, folded over report text.
class Digest {
 public:
  void Add(const std::string& text) {
    for (unsigned char c : text) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g;", value);
    Add(std::string(buf));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Output checks of a run; every one counts toward `attempted`.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failures_.size() < 16) failures_.push_back(what);
  }
  void ExpectOk(const Status& status, const char* call) {
    Expect(status.ok(), status.ok() ? "" : call + (": " + status.ToString()));
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// What one rep produced. Every rep of a run repeats the same seeded work,
/// so digest, work and counters must be identical across reps.
struct RepOutcome {
  Digest digest;
  /// Items of the workload's throughput unit (events, or sizing points).
  double work = 0.0;
  /// Exact per-rep counts the per-layer metrics are built from.
  Counters counters;
};

/// Parameters of the traced run's unit-cost probes.
struct ProbeParams {
  /// The workload samples the Fig-7 gamma(2,4) durations.
  bool gamma = false;
  /// Pending events per event kernel (0 = the workload runs no kernel).
  int64_t hold_population = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed, replacing any earlier set-up.
  virtual Status Setup(PhaseProfiler* profiler) = 0;
  virtual RepOutcome Rep(PhaseProfiler* profiler, Checks* checks) = 0;
  virtual ProbeParams Probe() const = 0;
};

/// "<prefix><index>". Appends rather than prepends: GCC 12 at -O3 flags
/// `"c" + std::to_string(i)` with a false-positive -Wrestrict.
std::string Id(const char* prefix, int64_t index) {
  std::string id(prefix);
  id += std::to_string(index);
  return id;
}

/// Span name "<call> <id>": the call names the layer, the id the cell,
/// movie or rep it ran for.
std::string Name(const char* call, const std::string& id) {
  return std::string(call) + " " + id;
}

// ---- paper_grid: the §4 Fig-7 validation sweep -----------------------------

class PaperGrid final : public Workload {
 public:
  PaperGrid(uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {}

  Status Setup(PhaseProfiler* profiler) override {
    cells_.clear();
    const VcrOp ops[] = {VcrOp::kFastForward, VcrOp::kRewind, VcrOp::kPause};
    // Mixes 0..2 are Fig 7(a–c), mix 3 is Fig 7(d).
    for (int mix = 0; mix < 4; ++mix) {
      const VcrBehavior behavior = mix < 3
                                       ? paper::Fig7SingleOpBehavior(ops[mix])
                                       : paper::Fig7MixedBehavior();
      for (double w : smoke_ ? std::vector<double>{2.0}
                             : std::vector<double>{0.5, 1.0, 2.0}) {
        for (int n = 10; n * w < paper::kFig7MovieLength;
             n += smoke_ ? 40 : 20) {
          auto layout =
              PartitionLayout::FromMaxWait(paper::kFig7MovieLength, n, w);
          if (!layout.ok()) return layout.status();
          cells_.push_back({mix, behavior, *layout});
        }
      }
    }
    PhaseProfiler::Scope span(profiler, "CompiledDuration::Create gamma");
    auto compiled = CompiledDuration::Create(paper::Fig7Duration(),
                                             paper::kFig7MovieLength);
    if (!compiled.ok()) return compiled.status();
    gamma_ = std::make_unique<CompiledDuration>(std::move(*compiled));
    return Status::OK();
  }

  RepOutcome Rep(PhaseProfiler* profiler, Checks* checks) override {
    struct CellOutcome {
      Status status;
      SimulationReport report;
    };
    ExperimentOptions grid;
    grid.threads = kThreads;
    grid.base_seed = seed_;
    GridObsOptions obs;
    obs.profiler = profiler;
    std::vector<std::vector<CellOutcome>> results;
    {
      PhaseProfiler::Scope span(profiler, "RunExperimentGrid");
      results = RunExperimentGrid(
          cells_, grid,
          [&](const Cell& cell, const CellContext& context) {
            SimulationOptions options;
            options.mean_interarrival_minutes = paper::kFig7MeanInterarrival;
            options.behavior = cell.behavior;
            // 12000 min a cell keeps a rep near 0.7 s and the model gap
            // near 0.02 (0.01 at 32000 min): mostly model bias, not noise.
            options.warmup_minutes = 1000.0;
            options.measurement_minutes = 11000.0;
            options.seed = context.seed;
            PhaseProfiler::Scope cell_span(
                profiler, Name("RunSimulation",
                               Id("c", context.config_index) +
                                   Id(" r", context.replication)));
            auto report = RunSimulation(cell.layout, paper::Rates(), options);
            CellOutcome out;
            out.status = report.status();
            if (report.ok()) out.report = std::move(*report);
            return out;
          },
          obs);
    }

    RepOutcome out;
    double model_gap = 0.0;
    double hits = 0.0, resumes = 0.0, events = 0.0, viewers = 0.0;
    for (size_t i = 0; i < cells_.size(); ++i) {
      const Cell& cell = cells_[i];
      const CellOutcome& sim = results[i][0];
      checks->ExpectOk(sim.status, "RunSimulation");
      if (!sim.status.ok()) continue;
      const double p_model = ModelHitProbability(cell, i, profiler, checks);
      const SimulationReport& report = sim.report;
      out.digest.Add(report.ToString());
      out.digest.Add(p_model);
      events += static_cast<double>(report.executed_events);
      viewers += static_cast<double>(report.admissions);
      resumes += static_cast<double>(report.total_resumes);
      hits += report.hit_probability *
              static_cast<double>(report.total_resumes);
      // Paper §4 names where model and simulation part, so those cells stay
      // out of the bound: RW (the model counts a rewind past minute 0 as a
      // miss; the system re-enrolls the viewer at position 0) and FF at small
      // B (type-1 viewers sit at d = 0, where the model assumes
      // d ~ U[0, B/n]).
      const bool comparable = (cell.mix == 0 || cell.mix == 2) &&
                              cell.layout.buffer_minutes() >= 40.0;
      if (comparable) {
        model_gap =
            std::max(model_gap,
                     std::fabs(p_model - report.hit_probability_in_partition));
      }
    }
    checks->Expect(model_gap <= kMaxModelGap,
                   "model gap " + std::to_string(model_gap) +
                       " exceeds 0.03 on FF/PAU cells with B >= 40");
    out.work = events;
    out.counters = {{"grid_cells", static_cast<double>(cells_.size())},
                    {"sim_events", events},
                    {"sim_viewers", viewers},
                    {"sim_hit_frac", resumes > 0 ? hits / resumes : 0.0},
                    {"model_gap", model_gap}};
    return out;
  }

  ProbeParams Probe() const override {
    // One movie per kernel: λ·l = 60 viewers live on average.
    return {true, static_cast<int64_t>(paper::kFig7MovieLength /
                                       paper::kFig7MeanInterarrival)};
  }

 private:
  static constexpr double kMaxModelGap = 0.03;

  struct Cell {
    int mix = 0;
    VcrBehavior behavior;
    PartitionLayout layout;
  };

  /// Eq. 22 over the cell's mix, one span per AnalyticHitModel call.
  double ModelHitProbability(const Cell& cell, size_t index,
                             PhaseProfiler* profiler, Checks* checks) const {
    auto model = AnalyticHitModel::Create(cell.layout, paper::Rates());
    checks->ExpectOk(model.status(), "AnalyticHitModel::Create");
    if (!model.ok()) return 0.0;
    double p = 0.0;
    for (VcrOp op : kAllVcrOps) {
      const double p_op = cell.behavior.mix.Probability(op);
      if (p_op <= 0.0) continue;
      PhaseProfiler::Scope span(
          profiler,
          Name("AnalyticHitModel", Id("c", static_cast<int64_t>(index))));
      auto p_hit = model->HitProbability(op, *gamma_);
      checks->ExpectOk(p_hit.status(), "AnalyticHitModel::HitProbability");
      if (p_hit.ok()) p += p_op * *p_hit;
    }
    return p;
  }

  uint64_t seed_;
  bool smoke_;
  std::vector<Cell> cells_;
  std::unique_ptr<CompiledDuration> gamma_;
};

// ---- capacity_plan: the §5 sizing and cost pipeline ------------------------

class CapacityPlan final : public Workload {
 public:
  CapacityPlan(uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {}

  Status Setup(PhaseProfiler* profiler) override {
    specs_.clear();
    compiled_.clear();
    // Example 1's three movies under the Fig-7(d) mix, cycled, each with its
    // duration scale and P* perturbed. Lengths and waits stay fixed, so
    // every seed sweeps the same number of (B, n) points.
    const auto templates = paper::Example1Movies(VcrMix::PaperMixed());
    Rng rng(seed_);
    const int movies = smoke_ ? 3 : 4;
    for (int i = 0; i < movies; ++i) {
      MovieSizingSpec spec = templates[static_cast<size_t>(i % 3)];
      spec.name = Id("m", i);
      const double scale = 0.9 + 0.2 * rng.Uniform01();
      DistributionPtr duration;
      if (i % 3 == 0) {
        duration = std::make_shared<GammaDistribution>(2.0, 4.0 * scale);
      } else {
        duration = std::make_shared<ExponentialDistribution>(
            (i % 3 == 1 ? 5.0 : 2.0) * scale);
      }
      spec.durations = VcrDurations::AllSame(duration);
      spec.min_hit_probability = 0.45 + 0.1 * rng.Uniform01();
      VOD_RETURN_IF_ERROR(spec.Validate());
      PhaseProfiler::Scope span(profiler,
                                Name("CompiledDuration::Create", spec.name));
      auto compiled = CompiledDuration::Create(duration, spec.length_minutes);
      if (!compiled.ok()) return compiled.status();
      compiled_.push_back(std::move(*compiled));
      specs_.push_back(std::move(spec));
    }
    return Status::OK();
  }

  RepOutcome Rep(PhaseProfiler* profiler, Checks* checks) override {
    RepOutcome out;
    const int stride = smoke_ ? 50 : 30;
    double points = 0.0, feasible = 0.0;
    std::vector<MovieAllocationBound> bounds;
    int stream_sum = 0;
    for (size_t i = 0; i < specs_.size(); ++i) {
      const MovieSizingSpec& spec = specs_[i];
      Result<SizingPoint> choice = Status::Internal("not run");
      {
        PhaseProfiler::Scope span(profiler,
                                  Name("MinimumBufferChoice", spec.name));
        choice = MinimumBufferChoice(spec);
      }
      checks->ExpectOk(choice.status(), "MinimumBufferChoice");
      Result<std::vector<SizingPoint>> curve = Status::Internal("not run");
      {
        PhaseProfiler::Scope span(profiler,
                                  Name("ComputeSizingCurve", spec.name));
        curve = ComputeSizingCurve(spec, stride);
      }
      checks->ExpectOk(curve.status(), "ComputeSizingCurve");
      if (!choice.ok() || !curve.ok()) continue;
      for (const SizingPoint& point : *curve) {
        points += 1.0;
        feasible += point.feasible ? 1.0 : 0.0;
        out.digest.Add(point.hit_probability);
      }
      out.digest.Add(choice->buffer_minutes);
      out.digest.Add(choice->hit_probability);
      CheckChoice(spec, compiled_[i], *choice, profiler, checks);
      bounds.push_back({spec.name, spec.length_minutes, spec.max_wait_minutes,
                        choice->streams});
      stream_sum += choice->streams;
    }

    // Half the streams the minimum-buffer choices would use: the budgeted
    // allocator has to trade buffer for streams across movies.
    const int budget =
        std::max(stream_sum / 2, static_cast<int>(specs_.size()));
    Result<AllocationResult> allocation = Status::Internal("not run");
    {
      PhaseProfiler::Scope span(profiler, "SizeSystem");
      allocation = SizeSystem(specs_, budget);
    }
    checks->ExpectOk(allocation.status(), "SizeSystem");
    if (allocation.ok()) {
      checks->Expect(allocation->total_streams <= budget,
                     "SizeSystem exceeded its stream budget");
      out.digest.Add(allocation->total_buffer_minutes);
    }
    for (double phi : paper::Fig9PhiValues()) {
      Result<std::vector<CostCurvePoint>> cost = Status::Internal("not run");
      {
        PhaseProfiler::Scope span(profiler,
                                  Name("ComputeCostCurve",
                                       Id("phi", static_cast<int64_t>(phi))));
        cost = ComputeCostCurve(bounds, phi);
      }
      checks->ExpectOk(cost.status(), "ComputeCostCurve");
      if (cost.ok() && !cost->empty()) {
        out.digest.Add(MinimumCostPoint(*cost).normalized_cost);
      }
    }
    CheckExample1(profiler, checks);

    out.work = points;
    out.counters = {{"curve_points", points}, {"feasible_points", feasible}};
    return out;
  }

  ProbeParams Probe() const override { return {}; }

 private:
  /// The chosen (B*, n*) re-evaluated through the public model API must
  /// reproduce the sizing layer's P(hit) and meet P*.
  static void CheckChoice(const MovieSizingSpec& spec,
                          const CompiledDuration& compiled,
                          const SizingPoint& choice, PhaseProfiler* profiler,
                          Checks* checks) {
    auto layout = PartitionLayout::FromMaxWait(
        spec.length_minutes, choice.streams, spec.max_wait_minutes);
    checks->ExpectOk(layout.status(), "PartitionLayout::FromMaxWait");
    if (!layout.ok()) return;
    auto model = AnalyticHitModel::Create(*layout, spec.rates);
    checks->ExpectOk(model.status(), "AnalyticHitModel::Create");
    if (!model.ok()) return;
    double p = 0.0;
    for (VcrOp op : kAllVcrOps) {
      const double p_op = spec.mix.Probability(op);
      if (p_op <= 0.0) continue;
      PhaseProfiler::Scope span(profiler, Name("AnalyticHitModel", spec.name));
      auto p_hit = model->HitProbability(op, compiled);
      checks->ExpectOk(p_hit.status(), "AnalyticHitModel::HitProbability");
      if (p_hit.ok()) p += p_op * *p_hit;
    }
    checks->Expect(std::fabs(p - choice.hit_probability) <= 1e-9 &&
                       p >= spec.min_hit_probability,
                   spec.name + ": model P(hit) at (B*, n*) disagrees with "
                               "MinimumBufferChoice or misses P*");
  }

  /// Example 1 under the Fig-7(d) mix: (37.6, 374) (30, 60) (45, 180).
  static void CheckExample1(PhaseProfiler* profiler, Checks* checks) {
    const double expected_buffer[] = {37.6, 30.0, 45.0};
    const int expected_streams[] = {374, 60, 180};
    const auto movies = paper::Example1Movies(VcrMix::PaperMixed());
    for (size_t i = 0; i < movies.size(); ++i) {
      Result<SizingPoint> choice = Status::Internal("not run");
      {
        PhaseProfiler::Scope span(
            profiler,
            Name("MinimumBufferChoice", "example1." + movies[i].name));
        choice = MinimumBufferChoice(movies[i]);
      }
      checks->ExpectOk(choice.status(), "MinimumBufferChoice");
      if (!choice.ok()) continue;
      checks->Expect(
          choice->streams == expected_streams[i] &&
              std::fabs(choice->buffer_minutes - expected_buffer[i]) < 0.05,
          "Example 1 " + movies[i].name + " sized to (" +
              std::to_string(choice->buffer_minutes) + ", " +
              std::to_string(choice->streams) + ")");
    }
  }

  uint64_t seed_;
  bool smoke_;
  std::vector<MovieSizingSpec> specs_;
  std::vector<CompiledDuration> compiled_;
};

// ---- giant_server / drift_server: the sharded giant server -----------------

/// bench/perf_sharded.cc's mixed catalog: four layout/behavior templates
/// cycled over `count` movies with rates fanned across a 4x range.
std::vector<ServerMovieSpec> MixedCatalog(int count) {
  struct Template {
    double length;
    int streams;
    double buffer;
    VcrBehavior behavior;
  };
  const Template kTemplates[] = {
      {120.0, 40, 80.0, paper::Fig7MixedBehavior()},
      {90.0, 30, 45.0, paper::Fig7SingleOpBehavior(VcrOp::kFastForward)},
      {100.0, 20, 50.0, paper::Fig7MixedBehavior()},
      {110.0, 25, 60.0, paper::Fig7SingleOpBehavior(VcrOp::kPause)},
  };
  std::vector<ServerMovieSpec> movies;
  movies.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const Template& t = kTemplates[(i + i / 4) % 4];
    const double rate = 0.15 + 0.45 * ((i * 7) % 16) / 15.0;
    auto layout = PartitionLayout::FromBuffer(t.length, t.streams, t.buffer);
    VOD_CHECK_OK(layout.status());
    movies.push_back({"movie" + std::to_string(i), *layout, rate, nullptr,
                      t.behavior});
  }
  return movies;
}

struct ShardedConfig {
  int movies = 0;
  int shards = 0;
  double warmup_minutes = 0.0;
  double measurement_minutes = 0.0;
  int64_t reserve_per_movie = 0;
  /// Flash crowds, faults, the windowed ladder, the controller, piggyback
  /// merging, audit and checkpoints.
  bool drift = false;
};

class ShardedServer final : public Workload {
 public:
  ShardedServer(uint64_t seed, const ShardedConfig& config,
                std::string checkpoint_path)
      : seed_(seed), config_(config),
        checkpoint_path_(std::move(checkpoint_path)) {}

  Status Setup(PhaseProfiler* profiler) override {
    movies_ = MixedCatalog(config_.movies);
    ShardedServerOptions& o = options_;
    o = ShardedServerOptions();
    o.base.rates = paper::Rates();
    o.base.dynamic_stream_reserve = config_.reserve_per_movie * config_.movies;
    o.base.warmup_minutes = config_.warmup_minutes;
    o.base.measurement_minutes = config_.measurement_minutes;
    o.base.seed = seed_;
    o.shards = config_.shards;
    o.threads = kThreads;
    o.window_minutes = 60.0;
    const double horizon =
        config_.warmup_minutes + config_.measurement_minutes;
    if (config_.drift) {
      // Every 16th title takes a 4x flash crowd from a third of the horizon
      // to two thirds.
      for (size_t i = 0; i < movies_.size(); i += 16) {
        auto flash = FlashArrivals::Create(movies_[i].arrival_rate_per_minute,
                                           4.0, horizon / 3.0, horizon / 3.0);
        if (!flash.ok()) return flash.status();
        movies_[i].arrivals = std::make_shared<FlashArrivals>(*flash);
      }
      o.base.faults.enabled = true;
      o.base.faults.disks = 8;
      o.base.faults.profile.mtbf_minutes = 600.0;
      o.base.faults.profile.mttr_minutes = 300.0;
      o.base.degradation.enabled = true;
      o.base.degradation.queue_deadline_minutes = 5.0;
      o.base.controller.enabled = true;
      // At most one migration per run. Re-plans are the costly fold step
      // (~0.6 s each at 384 movies) and their number follows the estimator
      // noise: left free, 5–9 plans by seed spread wall_s by ±15%.
      o.base.controller.min_replan_gap_minutes = horizon;
      o.base.piggyback.enabled = true;
      o.base.audit.enabled = true;
      o.checkpoint.path = checkpoint_path_;
      o.checkpoint.every_windows = 8;
    }
    PhaseProfiler::Scope span(profiler, "ValidateShardedInputs");
    return ValidateShardedInputs(movies_, options_);
  }

  RepOutcome Rep(PhaseProfiler* profiler, Checks* checks) override {
    options_.base.obs.profiler = profiler;
    RemoveCheckpoint();
    Result<ShardedServerReport> report = Status::Internal("not run");
    {
      PhaseProfiler::Scope span(profiler, "RunShardedServerSimulation");
      report = RunShardedServerSimulation(movies_, options_);
    }
    checks->ExpectOk(report.status(), "RunShardedServerSimulation");
    RepOutcome out;
    if (!report.ok()) return out;
    const ServerReport& server = report->server;
    checks->Expect(report->complete, "sharded run stopped before the horizon");
    checks->Expect(report->messages_posted == report->messages_drained,
                   "mailbox messages posted != drained");
    if (config_.drift) {
      checks->Expect(options_.base.audit.enabled, "drift_server runs audited");
      checks->Expect(std::filesystem::exists(checkpoint_path_),
                     "no replay-verify checkpoint was written");
      checks->Expect(server.controller.plans_solved > 0,
                     "the controller never re-planned under the flash crowds");
      RemoveCheckpoint();
    }
    out.digest.Add(report->ToString());
    out.work = static_cast<double>(report->executed_events);
    out.counters = {
        {"sharded_events", static_cast<double>(report->executed_events)},
        {"sharded_viewers", static_cast<double>(report->aggregate.admissions)},
        {"windows", static_cast<double>(report->windows)},
        {"messages", static_cast<double>(report->messages_drained)},
        {"reserve_granted", static_cast<double>(server.granted_acquisitions)},
        {"reserve_refused", static_cast<double>(server.refused_acquisitions)},
        {"plans_solved", static_cast<double>(server.controller.plans_solved)},
        {"migrations_committed",
         static_cast<double>(server.controller.migrations_committed)},
        {"admission_sheds",
         static_cast<double>(server.controller.admission_sheds)},
        {"ladder_transitions",
         static_cast<double>(server.resilience.total_transitions)},
        {"vcr_queued", static_cast<double>(server.total_queued_vcr)},
        {"vcr_blocked", static_cast<double>(server.total_blocked_vcr)}};
    return out;
  }

  ProbeParams Probe() const override {
    // Little's law: a shard's kernel holds about Σ λ·l / shards viewers.
    double live = 0.0;
    for (const ServerMovieSpec& movie : movies_) {
      live += movie.arrival_rate_per_minute * movie.layout.movie_length();
    }
    return {true, static_cast<int64_t>(live / config_.shards)};
  }

 private:
  void RemoveCheckpoint() const {
    if (checkpoint_path_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove(checkpoint_path_, ignored);
    std::filesystem::remove(checkpoint_path_ + ".tmp", ignored);
  }

  uint64_t seed_;
  ShardedConfig config_;
  std::string checkpoint_path_;
  std::vector<ServerMovieSpec> movies_;
  ShardedServerOptions options_;
};

// ---- unit-cost probes -------------------------------------------------------

void HoldHandler(void* ctx, uint64_t payload) {
  *static_cast<uint64_t*>(ctx) += payload;
}

/// Distribution::Sample on the Fig-7 gamma and an EventQueue hold loop
/// (pop one, schedule one) at the workload's pending-event population.
void RunProbes(const ProbeParams& params, uint64_t seed, bool smoke,
               PhaseProfiler* profiler, Counters* counters, Checks* checks) {
  const int64_t ops = smoke ? 200'000 : 2'000'000;
  if (params.gamma) {
    const DistributionPtr gamma = paper::Fig7Duration();
    Rng rng(seed);
    double sum = 0.0;
    {
      PhaseProfiler::Scope span(profiler, "probe.gamma_sample");
      for (int64_t i = 0; i < ops; ++i) sum += gamma->Sample(&rng);
    }
    (*counters)["probe_gamma_samples"] = static_cast<double>(ops);
    checks->Expect(std::fabs(sum / static_cast<double>(ops) - 8.0) < 0.1,
                   "gamma(2,4) probe samples do not average 8");
  }
  if (params.hold_population > 0) {
    EventQueue queue;
    uint64_t sink = 0;
    const uint64_t kind = queue.AddHandler(&HoldHandler, &sink);
    const auto population = static_cast<size_t>(params.hold_population);
    queue.Reserve(population + 1);
    Rng rng(seed);
    const double range = static_cast<double>(population);
    for (size_t i = 0; i < population; ++i) {
      queue.ScheduleHandler(rng.Uniform01() * range, kind, 1);
    }
    {
      PhaseProfiler::Scope span(profiler, "probe.event_queue_hold");
      for (int64_t i = 0; i < ops; ++i) {
        queue.RunNext();
        queue.ScheduleHandler(queue.Now() + rng.Uniform01() * range, kind, 1);
      }
    }
    (*counters)["probe_holds"] = static_cast<double>(sink);
  }
}

// ---- main -----------------------------------------------------------------

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool smoke,
                                       const std::string& workdir) {
  if (name == "paper_grid") return std::make_unique<PaperGrid>(seed, smoke);
  if (name == "capacity_plan") {
    return std::make_unique<CapacityPlan>(seed, smoke);
  }
  if (name == "giant_server") {
    // 120 min of warm-up, the longest movie, fills the viewer slabs and
    // heaps before the measured window.
    const ShardedConfig config{.movies = smoke ? 256 : 4096,
                               .shards = 8,
                               .warmup_minutes = 120.0,
                               .measurement_minutes = 120.0,
                               .reserve_per_movie = 24};
    return std::make_unique<ShardedServer>(seed, config, "");
  }
  if (name == "drift_server") {
    const ShardedConfig config{.movies = smoke ? 64 : 384,
                               .shards = 4,
                               .warmup_minutes = 200.0,
                               .measurement_minutes = smoke ? 300.0 : 400.0,
                               .reserve_per_movie = 8,
                               .drift = true};
    return std::make_unique<ShardedServer>(seed, config,
                                           workdir + "/drift_server.ckpt");
  }
  return nullptr;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonNumber(values[i]);
  }
  return out + "]";
}

std::string JsonObject(const Counters& counters) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : counters) {
    out += (first ? "" : ", ") + JsonString(key) + ": " + JsonNumber(value);
    first = false;
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  FlagSet flags("vod_e2e");
  flags.AddString("workload", "",
                  "paper_grid | capacity_plan | giant_server | drift_server");
  flags.AddInt64("seed", 1, "seed the workload's inputs derive from");
  flags.AddInt64("reps", 3, "minimum timed reps");
  flags.AddDouble("seconds", 0.0, "keep repeating until this much rep time");
  flags.AddString("scale", "full", "full | smoke (seconds-long smoke sizes)");
  flags.AddString("trace", "", "directory for a traced rep's Chrome trace");
  flags.AddString("workdir", ".", "directory for checkpoint files");
  flags.AddBool("inject_failure", false, "add one failing check");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "vod_e2e: %s\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  const std::string name = flags.GetString("workload");
  const auto seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  const std::string scale = flags.GetString("scale");
  const std::string trace_dir = flags.GetString("trace");
  auto workload = MakeWorkload(name, seed, scale == "smoke",
                               flags.GetString("workdir"));
  if (workload == nullptr || (scale != "full" && scale != "smoke") ||
      flags.GetInt64("reps") < 1) {
    std::fprintf(stderr, "vod_e2e: bad --workload, --scale or --reps\n%s",
                 flags.Usage().c_str());
    return 2;
  }

  // One set-up takes 0.03–3 ms, too short to time once, and the host's
  // speed shifts within a second: a single quarter-second of set-ups at
  // start-up put the median 40% apart between processes. So every rep is
  // preceded by a slice of set-ups (3 calls and 0.05 s at least), and the
  // median spans the whole run. Each rep then runs on fresh inputs.
  std::vector<double> setup_s;
  const auto time_setups = [&]() {
    double slice = 0.0;
    for (int i = 0; i < 3 || slice < 0.05; ++i) {
      const auto start = Clock::now();
      const Status status = workload->Setup(nullptr);
      setup_s.push_back(SecondsSince(start));
      slice += setup_s.back();
      if (!status.ok()) return status;
    }
    return Status::OK();
  };

  Checks checks;
  std::vector<double> wall_s;
  RepOutcome first;
  double elapsed = 0.0;
  for (int64_t rep = 0;
       rep < flags.GetInt64("reps") || elapsed < flags.GetDouble("seconds");
       ++rep) {
    if (const Status status = time_setups(); !status.ok()) {
      std::fprintf(stderr, "vod_e2e: %s set-up failed: %s\n", name.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    const auto start = Clock::now();
    RepOutcome out = workload->Rep(nullptr, &checks);
    wall_s.push_back(SecondsSince(start));
    elapsed += wall_s.back();
    if (rep == 0) {
      first = std::move(out);
    } else {
      checks.Expect(out.digest.value() == first.digest.value(),
                    Id("rep ", rep) + " digest differs from rep 0");
    }
  }

  Counters counters = first.counters;
  double traced_s = 0.0;
  if (!trace_dir.empty()) {
    PhaseProfiler profiler;
    {
      PhaseProfiler::Scope span(&profiler, "setup");
      checks.ExpectOk(workload->Setup(&profiler), "traced set-up");
    }
    const auto start = Clock::now();
    RepOutcome traced;
    {
      PhaseProfiler::Scope span(
          &profiler, Id("rep ", static_cast<int64_t>(wall_s.size())));
      traced = workload->Rep(&profiler, &checks);
    }
    traced_s = SecondsSince(start);
    checks.Expect(traced.digest.value() == first.digest.value(),
                  "traced rep digest differs: tracing changed a report");
    RunProbes(workload->Probe(), seed, scale == "smoke", &profiler, &counters,
              &checks);
    const std::string path = trace_dir + "/" + name + ".trace.json";
    std::ofstream file(path);
    profiler.WriteChromeTrace(file);
    file.close();
    checks.Expect(static_cast<bool>(file), "could not write " + path);
  }
  if (flags.GetBool("inject_failure")) {
    checks.Expect(false, "injected failure (--inject_failure)");
  }

  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(first.digest.value()));
  std::string failures = "[";
  for (size_t i = 0; i < checks.failures().size(); ++i) {
    failures += (i == 0 ? "" : ", ") + JsonString(checks.failures()[i]);
  }
  failures += "]";
  std::printf(
      "{\"workload\": %s, \"scale\": %s, \"seed\": %llu, \"threads\": %d,\n"
      " \"compiler\": %s, \"build_type\": %s,\n"
      " \"setup_s\": %s,\n \"wall_s\": %s,\n"
      " \"traced_wall_s\": %s, \"work\": %s, \"digest\": \"%s\",\n"
      " \"counters\": %s,\n"
      " \"attempted\": %lld, \"failed\": %lld, \"failures\": %s}\n",
      JsonString(name).c_str(), JsonString(scale).c_str(),
      static_cast<unsigned long long>(seed), kThreads,
      JsonString(kCompiler).c_str(), JsonString(VOD_E2E_BUILD_TYPE).c_str(),
      JsonArray(setup_s).c_str(), JsonArray(wall_s).c_str(),
      JsonNumber(traced_s).c_str(),
      JsonNumber(first.work).c_str(), digest, JsonObject(counters).c_str(),
      static_cast<long long>(checks.attempted()),
      static_cast<long long>(checks.failed()), failures.c_str());
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace vod

int main(int argc, char** argv) { return vod::e2e::Main(argc, argv); }
