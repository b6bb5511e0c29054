// Tests for crash-recoverable experiment grids (exp/checkpoint.h).
//
// The contract under test: a run killed at ANY cell boundary and resumed
// from its checkpoint produces a byte-identical grid — at any thread count.
// Kills are emulated in-process with CheckpointOptions::max_cells, which
// stops after N newly executed cells exactly like a SIGKILL between cells
// (the on-disk checkpoint is all a dead process leaves behind either way).
// The out-of-process SIGKILL version is `vodctl soak`.

#include "exp/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/partition_layout.h"
#include "gtest/gtest.h"
#include "obs/event_log.h"
#include "obs/metrics_registry.h"
#include "sim/simulator.h"

namespace vod {
namespace {

class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_("checkpoint_test_" + name + ".ckpt") {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  ~TempPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

/// A real (tiny) simulation per cell: configs vary the buffer budget, so
/// every cell has a distinct, deterministic report.
SimulationReport RunTestCell(const CellContext& context) {
  auto layout =
      PartitionLayout::FromBuffer(120.0, 4, 20.0 + 10.0 * context.config_index);
  VOD_CHECK(layout.ok());
  SimulationOptions options;
  options.warmup_minutes = 20.0;
  options.measurement_minutes = 200.0;
  options.seed = context.seed;
  auto report = RunSimulation(*layout, PlaybackRates{}, options);
  VOD_CHECK(report.ok());
  return *report;
}

constexpr int64_t kConfigs = 3;
constexpr int kReps = 4;
constexpr uint64_t kFingerprint = 0x5EEDF00D;

ExperimentOptions GridOptions(int threads) {
  ExperimentOptions options;
  options.threads = threads;
  options.replications = kReps;
  options.base_seed = 987654321;
  return options;
}

std::string GridText(const std::vector<std::vector<SimulationReport>>& grid) {
  std::string text;
  for (const auto& row : grid) {
    for (const auto& report : row) {
      text += report.ToString();
      text += '\n';
    }
  }
  return text;
}

std::string ReferenceGridText() {
  CheckpointOptions no_checkpoint;
  auto result = RunCheckpointedReportGrid(kConfigs, GridOptions(1),
                                          no_checkpoint, kFingerprint,
                                          RunTestCell);
  VOD_CHECK(result.ok());
  VOD_CHECK(result->complete);
  return GridText(result->reports);
}

TEST(ReportCodecTest, RoundTripsBitExactly) {
  SimulationReport original = RunTestCell(CellContext{1, 2, 777});
  ByteWriter w;
  SerializeSimulationReport(original, &w);
  ByteReader in(w.bytes());
  SimulationReport copy;
  ASSERT_TRUE(DeserializeSimulationReport(&in, &copy).ok());
  EXPECT_TRUE(in.AtEnd());
  ByteWriter w2;
  SerializeSimulationReport(copy, &w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
  EXPECT_EQ(original.ToString(), copy.ToString());
}

TEST(ReportCodecTest, TruncationIsAnErrorNotACrash) {
  ByteWriter w;
  SerializeSimulationReport(SimulationReport{}, &w);
  const std::string bytes = w.bytes().substr(0, w.size() / 2);
  ByteReader in(bytes);
  SimulationReport report;
  EXPECT_FALSE(DeserializeSimulationReport(&in, &report).ok());
}

TEST(HashGridDescriptionTest, DistinguishesDescriptions) {
  EXPECT_NE(HashGridDescription("l=120 B=40 n=4"),
            HashGridDescription("l=120 B=40 n=5"));
  EXPECT_EQ(HashGridDescription("x"), HashGridDescription("x"));
}

TEST(CheckpointOptionsTest, Validation) {
  CheckpointOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.checkpoint_every = 0;
  EXPECT_FALSE(options.Validate().ok());
  options.checkpoint_every = 1;
  options.resume = true;  // with an empty path
  EXPECT_FALSE(options.Validate().ok());
}

TEST(GridCheckpointFileTest, SaveLoadRoundTrip) {
  TempPath path("roundtrip");
  GridCheckpoint checkpoint;
  checkpoint.fingerprint = 0xF00D;
  checkpoint.base_seed = 42;
  checkpoint.configs = 2;
  checkpoint.replications = 5;
  checkpoint.done.assign(10, false);
  checkpoint.reports.assign(10, SimulationReport{});
  checkpoint.done[3] = checkpoint.done[7] = true;
  checkpoint.reports[3] = RunTestCell(CellContext{0, 3, 99});
  checkpoint.reports[7] = RunTestCell(CellContext{1, 2, 123});
  checkpoint.metrics_blob = "opaque registry snapshot";
  ASSERT_TRUE(SaveGridCheckpoint(path.str(), checkpoint).ok());

  auto loaded = LoadGridCheckpoint(path.str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->fingerprint, 0xF00Du);
  EXPECT_EQ(loaded->base_seed, 42u);
  EXPECT_EQ(loaded->cells_done(), 2);
  EXPECT_EQ(loaded->done, checkpoint.done);
  EXPECT_EQ(loaded->reports[3].ToString(), checkpoint.reports[3].ToString());
  EXPECT_EQ(loaded->reports[7].ToString(), checkpoint.reports[7].ToString());
  EXPECT_EQ(loaded->metrics_blob, checkpoint.metrics_blob);
}

TEST(GridCheckpointFileTest, RejectsCorruptedTruncatedAndForeignFiles) {
  TempPath path("rejects");
  GridCheckpoint checkpoint;
  checkpoint.fingerprint = 1;
  checkpoint.base_seed = 2;
  checkpoint.configs = 1;
  checkpoint.replications = 2;
  checkpoint.done.assign(2, true);
  checkpoint.reports.assign(2, SimulationReport{});
  ASSERT_TRUE(SaveGridCheckpoint(path.str(), checkpoint).ok());

  std::string bytes;
  {
    std::ifstream in(path.str(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }

  {  // flip one payload bit -> CRC failure
    std::string corrupt = bytes;
    corrupt[corrupt.size() - 3] ^= 0x10;
    std::ofstream(path.str(), std::ios::binary) << corrupt;
    auto loaded = LoadGridCheckpoint(path.str());
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos)
        << loaded.status().message();
  }
  {  // truncate mid-payload
    std::ofstream(path.str(), std::ios::binary)
        << bytes.substr(0, bytes.size() - 7);
    EXPECT_FALSE(LoadGridCheckpoint(path.str()).ok());
  }
  {  // wrong format version (byte 8 is the version's low byte)
    std::string wrong = bytes;
    wrong[8] = static_cast<char>(kSnapshotFormatVersion + 1);
    std::ofstream(path.str(), std::ios::binary) << wrong;
    auto loaded = LoadGridCheckpoint(path.str());
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("version"), std::string::npos)
        << loaded.status().message();
  }
  {  // not a snapshot at all
    std::ofstream(path.str(), std::ios::binary) << "definitely not binary";
    EXPECT_FALSE(LoadGridCheckpoint(path.str()).ok());
  }
  {  // a well-framed 32-byte payload declaring 2^20 x 64 cells: the done
     // bitmap cannot fit, so nothing may be sized by the declared shape
    ByteWriter payload;
    payload.PutU64(1);                 // fingerprint
    payload.PutU64(2);                 // base_seed
    payload.PutI64(int64_t{1} << 20);  // configs
    payload.PutI64(64);                // replications
    ASSERT_EQ(payload.size(), 32u);
    ASSERT_TRUE(WriteSnapshotFile(path.str(),
                                  SnapshotPayload::kExperimentGrid,
                                  payload.bytes())
                    .ok());
    auto loaded = LoadGridCheckpoint(path.str());
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsInvalidArgument())
        << loaded.status().message();
  }
  {  // missing file
    std::remove(path.str().c_str());
    auto loaded = LoadGridCheckpoint(path.str());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  }
}

TEST(CheckpointedGridTest, UncheckpointedRunMatchesReference) {
  const std::string reference = ReferenceGridText();
  CheckpointOptions no_checkpoint;
  auto result = RunCheckpointedReportGrid(kConfigs, GridOptions(4),
                                          no_checkpoint, kFingerprint,
                                          RunTestCell);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->complete);
  EXPECT_EQ(GridText(result->reports), reference);
}

void RunKillResumeAt(int threads) {
  const std::string reference = ReferenceGridText();
  TempPath path("kill_resume_t" + std::to_string(threads));

  // "Crash" after 5 of 12 cells: the checkpoint file is all that survives.
  CheckpointOptions first;
  first.path = path.str();
  first.checkpoint_every = 2;
  first.max_cells = 5;
  auto interrupted = RunCheckpointedReportGrid(
      kConfigs, GridOptions(threads), first, kFingerprint, RunTestCell);
  ASSERT_TRUE(interrupted.ok()) << interrupted.status().message();
  EXPECT_FALSE(interrupted->complete);
  EXPECT_EQ(interrupted->cells_run, 5);

  // Resume to completion.
  CheckpointOptions second;
  second.path = path.str();
  second.checkpoint_every = 2;
  second.resume = true;
  auto resumed = RunCheckpointedReportGrid(
      kConfigs, GridOptions(threads), second, kFingerprint, RunTestCell);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  ASSERT_TRUE(resumed->complete);
  EXPECT_EQ(resumed->cells_restored, 5);
  EXPECT_EQ(resumed->cells_run, kConfigs * kReps - 5);
  EXPECT_EQ(GridText(resumed->reports), reference);
}

TEST(CheckpointedGridTest, KillAndResumeIsByteIdenticalSerial) {
  RunKillResumeAt(/*threads=*/1);
}

TEST(CheckpointedGridTest, KillAndResumeIsByteIdenticalParallel) {
  RunKillResumeAt(/*threads=*/4);
}

TEST(CheckpointedGridTest, RepeatedKillsStillConverge) {
  const std::string reference = ReferenceGridText();
  TempPath path("repeated_kills");
  CheckpointOptions options;
  options.path = path.str();
  options.checkpoint_every = 1;
  options.max_cells = 3;
  bool complete = false;
  int rounds = 0;
  std::string final_text;
  while (!complete) {
    ASSERT_LT(rounds, 10) << "grid never completed";
    auto result = RunCheckpointedReportGrid(
        kConfigs, GridOptions(2), options, kFingerprint, RunTestCell);
    ASSERT_TRUE(result.ok()) << result.status().message();
    complete = result->complete;
    if (complete) final_text = GridText(result->reports);
    options.resume = true;  // every later round resumes the same file
    ++rounds;
  }
  EXPECT_EQ(rounds, 4);  // ceil(12 / 3) rounds of 3 cells; the last completes
  EXPECT_EQ(final_text, reference);
}

TEST(CheckpointedGridTest, MetricsSeriesSurvivesKillAndResume) {
  // Uninterrupted run: the registry samples the cells-done clock, so its
  // series is the reference for what a crash must not perturb.
  MetricsRegistry uninterrupted;
  uninterrupted.set_sample_every(1.0);
  {
    GridObsOptions obs;
    obs.metrics = &uninterrupted;
    CheckpointOptions no_checkpoint;
    auto result =
        RunCheckpointedReportGrid(kConfigs, GridOptions(2), no_checkpoint,
                                  kFingerprint, RunTestCell, obs);
    ASSERT_TRUE(result.ok()) << result.status().message();
  }
  std::ostringstream reference;
  uninterrupted.WriteSeriesCsv(reference);

  TempPath path("metrics_continuity");
  {
    // First process: killed after 5 cells. Its registry dies with the
    // process; only the snapshot blob inside the checkpoint survives.
    MetricsRegistry doomed;
    doomed.set_sample_every(1.0);
    GridObsOptions obs;
    obs.metrics = &doomed;
    CheckpointOptions first;
    first.path = path.str();
    first.checkpoint_every = 2;
    first.max_cells = 5;
    auto interrupted = RunCheckpointedReportGrid(
        kConfigs, GridOptions(2), first, kFingerprint, RunTestCell, obs);
    ASSERT_TRUE(interrupted.ok()) << interrupted.status().message();
    ASSERT_FALSE(interrupted->complete);
  }

  // Second process: a fresh registry is restored from the checkpoint and
  // the clock continues at the restored cell count.
  MetricsRegistry resumed_registry;
  resumed_registry.set_sample_every(1.0);
  EventRing ring(64);
  EventLog log;
  log.AddSink(&ring);
  GridObsOptions obs;
  obs.metrics = &resumed_registry;
  obs.event_log = &log;
  CheckpointOptions second;
  second.path = path.str();
  second.checkpoint_every = 2;
  second.resume = true;
  auto resumed = RunCheckpointedReportGrid(
      kConfigs, GridOptions(2), second, kFingerprint, RunTestCell, obs);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  ASSERT_TRUE(resumed->complete);

  EXPECT_EQ(resumed_registry.AddCounter("grid_cells_completed", "")->value(),
            kConfigs * kReps);
  std::ostringstream stitched;
  resumed_registry.WriteSeriesCsv(stitched);
  EXPECT_EQ(stitched.str(), reference.str());
  // One kCell event per cell newly executed by the resuming process.
  EXPECT_EQ(ring.total_appended(),
            static_cast<uint64_t>(kConfigs * kReps - 5));
}

TEST(CheckpointedGridTest, ResumeRefusesForeignCheckpoint) {
  TempPath path("foreign");
  CheckpointOptions write_options;
  write_options.path = path.str();
  write_options.max_cells = 2;
  ASSERT_TRUE(RunCheckpointedReportGrid(kConfigs, GridOptions(1),
                                        write_options, kFingerprint,
                                        RunTestCell)
                  .ok());

  CheckpointOptions resume_options;
  resume_options.path = path.str();
  resume_options.resume = true;

  {  // different experiment fingerprint
    auto result = RunCheckpointedReportGrid(
        kConfigs, GridOptions(1), resume_options, kFingerprint + 1,
        RunTestCell);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("different experiment"),
              std::string::npos);
  }
  {  // different base seed
    ExperimentOptions other = GridOptions(1);
    other.base_seed ^= 1;
    EXPECT_FALSE(RunCheckpointedReportGrid(kConfigs, other, resume_options,
                                           kFingerprint, RunTestCell)
                     .ok());
  }
  {  // different grid shape
    EXPECT_FALSE(RunCheckpointedReportGrid(kConfigs + 1, GridOptions(1),
                                           resume_options, kFingerprint,
                                           RunTestCell)
                     .ok());
  }
  {  // resume with no file at all
    TempPath missing("missing");
    CheckpointOptions gone;
    gone.path = missing.str();
    gone.resume = true;
    auto result = RunCheckpointedReportGrid(
        kConfigs, GridOptions(1), gone, kFingerprint, RunTestCell);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  }
}

}  // namespace
}  // namespace vod
