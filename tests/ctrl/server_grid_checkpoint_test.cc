// Server-grid checkpointing: the ServerReport codec and the
// RunCheckpointedServerGrid runner — the recovery path `vodctl server
// --movies=N --replications=R --checkpoint=...` rides on. Cells here run
// whole server simulations with faults, degradation, AND the reallocation
// controller under a flash crowd, so the serialized reports carry the full
// resilience block (transition log included) and an Active controller
// block — the fields a pre-controller codec would silently drop.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/serialize.h"
#include "core/partition_layout.h"
#include "exp/checkpoint.h"
#include "gtest/gtest.h"
#include "sim/arrival_process.h"
#include "sim/server.h"
#include "workload/paper_presets.h"

namespace vod {
namespace {

class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_("server_grid_test_" + name + ".ckpt") {
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

/// One whole-server cell: two movies, the first under a flash crowd, with
/// faults + degradation + controller + audit all on. config_index varies
/// the reserve so every config has a distinct report.
ServerReport RunServerCell(const CellContext& context) {
  std::vector<ServerMovieSpec> movies;
  auto hot = PartitionLayout::FromMaxWait(120.0, 12, 1.0);
  auto cold = PartitionLayout::FromMaxWait(120.0, 8, 1.0);
  VOD_CHECK(hot.ok() && cold.ok());
  movies.push_back({"hot", *hot, 0.3, nullptr, paper::Fig7MixedBehavior()});
  movies.push_back({"cold", *cold, 0.15, nullptr,
                    paper::Fig7MixedBehavior()});
  auto flash = FlashArrivals::Create(0.3, 4.0, 100.0, 600.0);
  VOD_CHECK(flash.ok());
  movies[0].arrivals = std::make_shared<FlashArrivals>(*flash);

  ServerOptions options;
  options.rates = paper::Rates();
  options.dynamic_stream_reserve = 10 + 5 * context.config_index;
  options.warmup_minutes = 50.0;
  options.measurement_minutes = 1200.0;
  options.seed = context.seed;
  options.faults.enabled = true;
  options.faults.disks = 2;
  options.faults.profile.mtbf_minutes = 800.0;
  options.faults.profile.mttr_minutes = 60.0;
  options.degradation.enabled = true;
  options.degradation.queue_deadline_minutes = 5.0;
  options.controller.enabled = true;
  options.audit.enabled = true;
  auto report = RunServerSimulation(movies, options);
  VOD_CHECK(report.ok());
  return *report;
}

constexpr int64_t kConfigs = 2;
constexpr uint64_t kFingerprint = 0x5E12F12D;

ExperimentOptions GridOptions(int threads) {
  ExperimentOptions options;
  options.threads = threads;
  options.replications = 2;
  options.base_seed = 424242;
  return options;
}

std::string GridText(const std::vector<std::vector<ServerReport>>& grid) {
  std::string text;
  for (const auto& row : grid) {
    for (const auto& report : row) {
      text += report.ToString();
      text += '\n';
    }
  }
  return text;
}

TEST(ServerReportCodecTest, RoundTripsBitExactlyWithAllBlocks) {
  const ServerReport original = RunServerCell(CellContext{1, 0, 777});
  // The cell must actually exercise the optional blocks, or this test
  // proves nothing about them.
  ASSERT_TRUE(original.resilience_enabled);
  ASSERT_TRUE(original.controller_enabled);
  ASSERT_TRUE(original.controller.Active());

  ByteWriter w;
  SerializeServerReport(original, &w);
  ByteReader in(w.bytes());
  ServerReport copy;
  ASSERT_TRUE(DeserializeServerReport(&in, &copy).ok());
  EXPECT_TRUE(in.AtEnd());
  ByteWriter w2;
  SerializeServerReport(copy, &w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
  EXPECT_EQ(original.ToString(), copy.ToString());
}

TEST(ServerReportCodecTest, TruncationIsAnErrorNotACrash) {
  ByteWriter w;
  SerializeServerReport(ServerReport{}, &w);
  const std::string bytes = w.bytes().substr(0, w.size() / 2);
  ByteReader in(bytes);
  ServerReport report;
  EXPECT_FALSE(DeserializeServerReport(&in, &report).ok());

  // A declared movie count far beyond the bytes that follow is rejected
  // before it sizes anything.
  ByteWriter huge;
  huge.PutI64(int64_t{1} << 20);
  ByteReader huge_in(huge.bytes());
  EXPECT_TRUE(
      DeserializeServerReport(&huge_in, &report).IsInvalidArgument());
}

TEST(ServerGridCheckpointTest, InterruptResumeIsByteIdentical) {
  // Reference: uncheckpointed serial run.
  CheckpointOptions no_checkpoint;
  auto reference = RunCheckpointedServerGrid(kConfigs, GridOptions(1),
                                             no_checkpoint, kFingerprint,
                                             RunServerCell);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(reference->complete);
  const std::string expected = GridText(reference->reports);

  // Interrupted run: stop after 1 cell, checkpointing every cell.
  TempPath path("resume");
  CheckpointOptions checkpoint;
  checkpoint.path = path.str();
  checkpoint.checkpoint_every = 1;
  checkpoint.max_cells = 1;
  auto interrupted = RunCheckpointedServerGrid(kConfigs, GridOptions(1),
                                               checkpoint, kFingerprint,
                                               RunServerCell);
  ASSERT_TRUE(interrupted.ok()) << interrupted.status().ToString();
  ASSERT_FALSE(interrupted->complete);

  // Resume (multi-threaded, to prove recombination is order-independent).
  CheckpointOptions resume = checkpoint;
  resume.max_cells = -1;
  resume.resume = true;
  auto resumed = RunCheckpointedServerGrid(kConfigs, GridOptions(2), resume,
                                           kFingerprint, RunServerCell);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_TRUE(resumed->complete);
  EXPECT_GT(resumed->cells_restored, 0);
  EXPECT_EQ(GridText(resumed->reports), expected);
}

TEST(ServerGridCheckpointTest, ResumeRefusesForeignFingerprint) {
  TempPath path("foreign");
  CheckpointOptions checkpoint;
  checkpoint.path = path.str();
  checkpoint.checkpoint_every = 1;
  checkpoint.max_cells = 1;
  ASSERT_TRUE(RunCheckpointedServerGrid(kConfigs, GridOptions(1), checkpoint,
                                        kFingerprint, RunServerCell)
                  .ok());
  CheckpointOptions resume = checkpoint;
  resume.max_cells = -1;
  resume.resume = true;
  EXPECT_FALSE(RunCheckpointedServerGrid(kConfigs, GridOptions(1), resume,
                                         kFingerprint + 1, RunServerCell)
                   .ok());
}

}  // namespace
}  // namespace vod
