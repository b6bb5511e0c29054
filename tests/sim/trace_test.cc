#include "sim/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/hit_model.h"
#include "obs/trace_reader.h"
#include "sim/simulator.h"
#include "workload/paper_presets.h"

namespace vod {
namespace {

TraceEvent VcrRecord(double t, VcrOp op, double duration) {
  TraceEvent event;
  event.time = t;
  event.category = EventCategory::kVcrBegin;
  event.subtype = static_cast<uint8_t>(op);
  event.value = duration;
  return event;
}

/// The kVcrBegin records of a Fig-7 mixed run, collected off the bus.
std::vector<TraceEvent> SimulatedVcrLog(const PartitionLayout& layout,
                                        EventSink* extra_sink) {
  EventLog log;
  log.set_mask(CategoryBit(EventCategory::kVcrBegin));
  VectorSink sink;
  log.AddSink(&sink);
  log.AddSink(extra_sink);
  SimulationOptions options;
  options.behavior = paper::Fig7MixedBehavior();
  options.warmup_minutes = 0.0;  // behavior logging needs no warmup
  options.measurement_minutes = 30000.0;
  options.obs.event_log = &log;
  const auto report = RunSimulation(layout, paper::Rates(), options);
  EXPECT_TRUE(report.ok()) << report.status();
  return sink.Take();
}

TEST(FitBehaviorTest, RecoversMixAndDurations) {
  std::vector<TraceEvent> trace;
  Rng rng(5);
  const auto behavior = paper::Fig7MixedBehavior();
  for (int i = 0; i < 20000; ++i) {
    const VcrOp op = behavior.SampleOp(&rng);
    trace.push_back(VcrRecord(static_cast<double>(i), op,
                              behavior.SampleDuration(op, &rng)));
  }
  const auto fitted = FitBehaviorFromTrace(trace);
  ASSERT_TRUE(fitted.ok()) << fitted.status();
  EXPECT_EQ(fitted->samples, 20000);
  EXPECT_NEAR(fitted->mix.p_fast_forward, 0.2, 0.02);
  EXPECT_NEAR(fitted->mix.p_rewind, 0.2, 0.02);
  EXPECT_NEAR(fitted->mix.p_pause, 0.6, 0.02);
  EXPECT_TRUE(fitted->mix.Validate().ok());
  ASSERT_NE(fitted->durations.fast_forward, nullptr);
  EXPECT_NEAR(fitted->durations.fast_forward->Mean(), 8.0, 0.3);
  EXPECT_NEAR(fitted->durations.pause->Mean(), 8.0, 0.3);
}

TEST(FitBehaviorTest, ErrorsOnEmptyOrSparseTraces) {
  EXPECT_TRUE(FitBehaviorFromTrace({}).status().IsInvalidArgument());

  std::vector<TraceEvent> sparse;
  for (int i = 0; i < 100; ++i) {
    sparse.push_back(VcrRecord(i, VcrOp::kFastForward, 5.0 + i * 0.01));
  }
  sparse.push_back(VcrRecord(200.0, VcrOp::kRewind, 1.0));  // one RW sample
  EXPECT_TRUE(FitBehaviorFromTrace(sparse).status().IsInvalidArgument());
  // With the RW op absent it fits fine.
  sparse.pop_back();
  const auto fitted = FitBehaviorFromTrace(sparse);
  ASSERT_TRUE(fitted.ok());
  EXPECT_DOUBLE_EQ(fitted->mix.p_fast_forward, 1.0);
  EXPECT_EQ(fitted->durations.rewind, nullptr);
}

TEST(FitBehaviorTest, OneRecordIsTooFewWhateverTheMinimum) {
  // An empirical distribution needs two samples, so a minimum of 1 still
  // asks for 2: a Status, never an abort.
  const std::vector<TraceEvent> one = {
      VcrRecord(1.0, VcrOp::kFastForward, 3.0)};
  for (int min_samples : {0, 1, 2}) {
    const auto fitted = FitBehaviorFromTrace(one, min_samples);
    ASSERT_TRUE(fitted.status().IsInvalidArgument()) << min_samples;
    EXPECT_NE(fitted.status().message().find("too few samples for FF"),
              std::string::npos)
        << fitted.status();
  }
  const std::vector<TraceEvent> two = {
      VcrRecord(1.0, VcrOp::kFastForward, 3.0),
      VcrRecord(2.0, VcrOp::kFastForward, 5.0)};
  EXPECT_TRUE(FitBehaviorFromTrace(two, 1).ok());
}

TEST(FitBehaviorTest, RejectsBadRecordsByIndex) {
  std::vector<TraceEvent> trace;
  for (int i = 0; i < 20; ++i) {
    trace.push_back(VcrRecord(i, VcrOp::kPause, 1.0 + i));
  }
  const double bad_durations[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(), -0.5};
  for (const double bad : bad_durations) {
    std::vector<TraceEvent> damaged = trace;
    damaged[7].value = bad;
    const auto fitted = FitBehaviorFromTrace(damaged);
    ASSERT_TRUE(fitted.status().IsInvalidArgument()) << bad;
    EXPECT_NE(fitted.status().message().find("record 7"), std::string::npos)
        << fitted.status();
  }
  std::vector<TraceEvent> unknown_op = trace;
  unknown_op[3].subtype = 3;
  const auto fitted = FitBehaviorFromTrace(unknown_op);
  ASSERT_TRUE(fitted.status().IsInvalidArgument());
  EXPECT_NE(fitted.status().message().find("record 3"), std::string::npos);
}

TEST(FitBehaviorTest, ReadsOnlyVcrBeginRecords) {
  std::vector<TraceEvent> trace;
  for (int i = 0; i < 20; ++i) {
    trace.push_back(VcrRecord(i, VcrOp::kRewind, 2.0 + i));
    TraceEvent resume = VcrRecord(i + 0.5, VcrOp::kPause, -1.0);
    resume.category = EventCategory::kResume;  // sub 2 = end, not an op
    trace.push_back(resume);
  }
  const auto fitted = FitBehaviorFromTrace(trace);
  ASSERT_TRUE(fitted.ok()) << fitted.status();
  EXPECT_EQ(fitted->samples, 20);
  EXPECT_DOUBLE_EQ(fitted->mix.p_rewind, 1.0);
}

TEST(FitBehaviorTest, SimulatorTraceFeedsTheModel) {
  // The full operator loop: simulate "production", log the trace, fit, and
  // check the model evaluated on the *fitted* behavior matches the model on
  // the *true* behavior.
  const auto layout = PartitionLayout::FromMaxWait(120.0, 40, 1.0);
  ASSERT_TRUE(layout.ok());
  const std::vector<TraceEvent> trace = SimulatedVcrLog(*layout, nullptr);
  EXPECT_GT(trace.size(), 10000u);

  const auto fitted = FitBehaviorFromTrace(trace);
  ASSERT_TRUE(fitted.ok());

  const auto model = AnalyticHitModel::Create(*layout, paper::Rates());
  ASSERT_TRUE(model.ok());
  const auto p_true = model->HitProbability(
      VcrMix::PaperMixed(), VcrDurations::AllSame(paper::Fig7Duration()));
  const auto p_fitted =
      model->HitProbability(fitted->mix, fitted->durations);
  ASSERT_TRUE(p_true.ok() && p_fitted.ok());
  EXPECT_NEAR(*p_fitted, *p_true, 0.02);
}

TEST(FitBehaviorTest, TraceFileFitEqualsInMemoryFit) {
  // The writer prints every double with %.17g, so a fit from the file a
  // --trace_out run leaves behind equals the fit from the bus, bit for bit.
  const auto layout = PartitionLayout::FromMaxWait(120.0, 40, 1.0);
  ASSERT_TRUE(layout.ok());
  const std::string path = "trace_test_fit_round_trip.jsonl";
  std::vector<TraceEvent> in_memory;
  {
    auto file = JsonlSink::Open(path);
    ASSERT_TRUE(file.ok()) << file.status();
    in_memory = SimulatedVcrLog(*layout, file->get());
    ASSERT_TRUE((*file)->Flush().ok());
  }
  const auto from_file = ReadTraceFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(from_file.ok()) << from_file.status();
  ASSERT_EQ(from_file->size(), in_memory.size());

  const auto a = FitBehaviorFromTrace(in_memory);
  const auto b = FitBehaviorFromTrace(*from_file);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->samples, b->samples);
  EXPECT_EQ(a->mix.p_fast_forward, b->mix.p_fast_forward);
  EXPECT_EQ(a->mix.p_rewind, b->mix.p_rewind);
  EXPECT_EQ(a->mix.p_pause, b->mix.p_pause);
  for (VcrOp op : kAllVcrOps) {
    const Distribution* da = a->durations.ForOp(op);
    const Distribution* db = b->durations.ForOp(op);
    ASSERT_NE(da, nullptr);
    ASSERT_NE(db, nullptr);
    EXPECT_EQ(da->Mean(), db->Mean()) << VcrOpName(op);
    for (double x : {0.5, 2.0, 8.0, 30.0}) EXPECT_EQ(da->Cdf(x), db->Cdf(x));
  }
  const auto model = AnalyticHitModel::Create(*layout, paper::Rates());
  ASSERT_TRUE(model.ok());
  const auto pa = model->HitProbability(a->mix, a->durations);
  const auto pb = model->HitProbability(b->mix, b->durations);
  ASSERT_TRUE(pa.ok() && pb.ok());
  EXPECT_EQ(*pa, *pb);
}

}  // namespace
}  // namespace vod
