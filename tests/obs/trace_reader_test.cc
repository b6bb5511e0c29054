#include "obs/trace_reader.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event_log.h"

namespace vod {
namespace {

TraceEvent MakeEvent(double t, EventCategory category, double value,
                     uint8_t subtype = 0, uint8_t aux = 0) {
  TraceEvent event;
  event.time = t;
  event.category = category;
  event.value = value;
  event.subtype = subtype;
  event.aux = aux;
  return event;
}

TEST(TraceReaderTest, JsonlRoundTripsThroughTheSink) {
  std::ostringstream os;
  JsonlSink sink(&os);
  EventLog log;
  log.AddSink(&sink);
  log.Emit(1.5, EventCategory::kAdmission, 1, 2, 42, 0.25);
  log.Emit(3.0, EventCategory::kResume, 3, 2, 42, 0.0, 1);
  log.Emit(9.0, EventCategory::kFault, 0, -1, -1, 30.0);
  std::istringstream is(os.str());
  const auto events = ReadJsonlTrace(is);
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_EQ(events->size(), 3u);
  EXPECT_DOUBLE_EQ((*events)[0].time, 1.5);
  EXPECT_EQ((*events)[0].category, EventCategory::kAdmission);
  EXPECT_EQ((*events)[0].subtype, 1);
  EXPECT_EQ((*events)[0].movie, 2);
  EXPECT_EQ((*events)[0].id, 42);
  EXPECT_DOUBLE_EQ((*events)[0].value, 0.25);
  EXPECT_EQ((*events)[1].seq, 1u);
  // The subtype comes back from its name ("miss"), not a raw integer.
  EXPECT_EQ((*events)[1].subtype, 3);
  EXPECT_EQ((*events)[1].aux, 1);
  EXPECT_EQ((*events)[2].movie, -1);
  EXPECT_EQ((*events)[2].id, -1);
}

/// One genuine vcr_begin line, as the sink writes it, with `field`'s
/// value text replaced by `text`.
std::string VcrLineWith(const std::string& field, const std::string& text) {
  std::ostringstream os;
  JsonlSink sink(&os);
  EventLog log;
  log.AddSink(&sink);
  log.Emit(2.0, EventCategory::kVcrBegin, 1, -1, 7, 4.5);
  std::string line = os.str();
  const std::string key = "\"" + field + "\":";
  const size_t begin = line.find(key) + key.size();
  const size_t end = line.find_first_of(",}", begin);
  line.replace(begin, end - begin, text);
  return line;
}

Status ReadOne(const std::string& line) {
  std::istringstream is(line);
  return ReadJsonlTrace(is).status();
}

TEST(TraceReaderTest, JsonlRejectsDamage) {
  {
    // The sinks never write blank lines; one means truncation damage.
    std::istringstream is("\n");
    EXPECT_TRUE(ReadJsonlTrace(is).status().IsInvalidArgument());
  }
  {
    std::istringstream is("{\"t\":1.0}\n");
    const auto events = ReadJsonlTrace(is);
    EXPECT_TRUE(events.status().IsInvalidArgument());
  }
  // Corrupt a genuine line's category name.
  std::ostringstream os;
  JsonlSink sink(&os);
  EventLog log;
  log.AddSink(&sink);
  log.Emit(1.0, EventCategory::kAdmission, 0, 0, 1, 0.0);
  std::string line = os.str();
  line.replace(line.find("admission"), 9, "bogus_cat");
  std::istringstream is(line);
  EXPECT_TRUE(ReadJsonlTrace(is).status().IsInvalidArgument());
  // A number is one whole decimal token: no hex, no trailing text.
  for (const char* text : {"0x1p4", "2.0abc"}) {
    const Status status = ReadOne(VcrLineWith("t", text));
    EXPECT_TRUE(status.IsInvalidArgument()) << text;
    EXPECT_NE(status.message().find("\"t\""), std::string::npos) << status;
  }
}

TEST(TraceReaderTest, JsonlRejectsNonFiniteNumbers) {
  ASSERT_TRUE(ReadOne(VcrLineWith("value", "4.5")).ok());
  for (const char* text : {"nan", "-nan", "inf", "-inf", "NaN", "1e999"}) {
    for (const char* field : {"t", "value"}) {
      const Status status = ReadOne(VcrLineWith(field, text));
      EXPECT_TRUE(status.IsInvalidArgument()) << field << "=" << text;
      EXPECT_NE(status.message().find("trace line 1"), std::string::npos);
    }
  }
}

TEST(TraceReaderTest, JsonlRejectsUnknownSubtypeNames) {
  ASSERT_TRUE(ReadOne(VcrLineWith("sub", "\"rw\"")).ok());
  // The names are lower case; "RW" is not rw, and neither is subtype 0.
  for (const char* text : {"\"RW\"", "\"Ff\"", "\"rewind\"", "\"\""}) {
    const Status status = ReadOne(VcrLineWith("sub", text));
    EXPECT_TRUE(status.IsInvalidArgument()) << text;
    EXPECT_NE(status.message().find("unknown subtype"), std::string::npos)
        << status;
  }
  // A category without named subtypes writes "-"; nothing else is valid.
  std::istringstream stall(
      "{\"t\":1,\"seq\":0,\"cat\":\"stall\",\"sub\":\"x\",\"aux\":0,"
      "\"movie\":0,\"id\":1,\"value\":0}\n");
  EXPECT_TRUE(ReadJsonlTrace(stall).status().IsInvalidArgument());
}

TEST(TraceReaderTest, JsonlRejectsIntegersOutOfTheirTypesRange) {
  const struct {
    const char* field;
    const char* text;
  } bad[] = {
      {"aux", "256"},          {"aux", "-1"},
      {"aux", "1.5"},          {"movie", "2147483648"},
      {"movie", "-2147483649"}, {"id", "9223372036854775808"},
      {"id", "-1e19"},         {"id", "0.25"},
      {"seq", "-1"},           {"seq", "18446744073709551616"},
      {"seq", "1e300"},
      // No writer emits an integer in exponent form; it is refused.
      {"aux", "1e2"},          {"id", "7e0"},
  };
  for (const auto& b : bad) {
    const Status status = ReadOne(VcrLineWith(b.field, b.text));
    EXPECT_TRUE(status.IsInvalidArgument()) << b.field << "=" << b.text;
    EXPECT_NE(status.message().find(b.field), std::string::npos) << status;
  }
  // The extremes of each type still read back.
  std::istringstream edges(
      "{\"t\":1,\"seq\":0,\"cat\":\"admission\",\"sub\":\"type1\","
      "\"aux\":255,\"movie\":-2147483648,\"id\":-9223372036854775808,"
      "\"value\":0}\n");
  const auto events = ReadJsonlTrace(edges);
  ASSERT_TRUE(events.ok()) << events.status();
  EXPECT_EQ((*events)[0].aux, 255);
  EXPECT_EQ((*events)[0].movie, -2147483647 - 1);
  EXPECT_EQ((*events)[0].id, std::numeric_limits<int64_t>::min());
}

TEST(TraceReaderTest, ReadTraceFileSniffsJsonlAndReportsMissingFiles) {
  EXPECT_TRUE(ReadTraceFile("no_such_trace_file.jsonl").status().IsNotFound());
  const std::string path = "trace_reader_test_sniff.jsonl";
  {
    auto sink = JsonlSink::Open(path);
    ASSERT_TRUE(sink.ok()) << sink.status();
    EventLog log;
    log.AddSink(sink->get());
    log.Emit(4.0, EventCategory::kStall, 0, 1, 9, 2.5);
    ASSERT_TRUE(log.FlushSinks().ok());
  }
  const auto events = ReadTraceFile(path);
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ((*events)[0].category, EventCategory::kStall);
  EXPECT_DOUBLE_EQ((*events)[0].value, 2.5);
  std::remove(path.c_str());
}

TEST(TraceReaderTest, SummarizeAggregatesPerCategoryInOrder) {
  std::vector<TraceEvent> events;
  events.push_back(MakeEvent(5.0, EventCategory::kStall, 10.0));
  events.push_back(MakeEvent(1.0, EventCategory::kAdmission, 2.0));
  events.push_back(MakeEvent(9.0, EventCategory::kAdmission, 4.0));
  const auto summaries = SummarizeTrace(events);
  ASSERT_EQ(summaries.size(), 2u);
  // Category order, not first-seen order.
  EXPECT_EQ(summaries[0].category, EventCategory::kAdmission);
  EXPECT_EQ(summaries[0].count, 2);
  EXPECT_DOUBLE_EQ(summaries[0].first_t, 1.0);
  EXPECT_DOUBLE_EQ(summaries[0].last_t, 9.0);
  EXPECT_DOUBLE_EQ(summaries[0].value_sum, 6.0);
  EXPECT_DOUBLE_EQ(summaries[0].value_min, 2.0);
  EXPECT_DOUBLE_EQ(summaries[0].value_max, 4.0);
  EXPECT_EQ(summaries[1].category, EventCategory::kStall);
  EXPECT_EQ(summaries[1].count, 1);
  EXPECT_TRUE(SummarizeTrace({}).empty());
}

TEST(TraceReaderTest, DegradationTimelineReconstructsDwells) {
  std::vector<TraceEvent> events;
  events.push_back(MakeEvent(0.0, EventCategory::kTick, 0.0));
  events.push_back(
      MakeEvent(10.0, EventCategory::kDegradation, 36.0, /*subtype=*/1));
  events.push_back(MakeEvent(25.0, EventCategory::kDegradation, 24.0,
                             /*subtype=*/2, /*aux=*/1));
  events.push_back(MakeEvent(40.0, EventCategory::kTick, 0.0));
  const auto timeline = DegradationTimeline(events);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_DOUBLE_EQ(timeline[0].start, 10.0);
  EXPECT_DOUBLE_EQ(timeline[0].end, 25.0);
  EXPECT_EQ(timeline[0].level, 1);
  EXPECT_EQ(timeline[0].from_level, 0);
  EXPECT_EQ(timeline[0].capacity, 36);
  EXPECT_DOUBLE_EQ(timeline[1].start, 25.0);
  // The last dwell runs to the trace's final event time.
  EXPECT_DOUBLE_EQ(timeline[1].end, 40.0);
  EXPECT_EQ(timeline[1].level, 2);
  EXPECT_EQ(timeline[1].from_level, 1);
  EXPECT_EQ(timeline[1].capacity, 24);

  // No degradation events -> empty timeline, not a zero-width interval.
  EXPECT_TRUE(DegradationTimeline({MakeEvent(1.0, EventCategory::kTick, 0.0)})
                  .empty());
}

TEST(TraceReaderTest, ShardImbalanceTimelineFoldsWindowRecords) {
  // A merged sharded trace carries, per window, each shard's window_close
  // (id = shard, value = executed-event delta), stamped with the barrier's
  // t_end, shards in index order. Traces from builds with barrier mailboxes
  // also carry the retired pressure records; the fold ignores them.
  const auto shard_event = [](double t, ShardEvent sub, int shard,
                              double value) {
    TraceEvent event = MakeEvent(t, EventCategory::kShard, value,
                                 static_cast<uint8_t>(sub));
    event.movie = -1;
    event.id = shard;
    return event;
  };
  std::vector<TraceEvent> events;
  // Interleave unrelated categories; the timeline must ignore them.
  events.push_back(MakeEvent(0.0, EventCategory::kShard, 3.0,
                             static_cast<uint8_t>(ShardEvent::kWindowOpen)));
  events.push_back(MakeEvent(5.0, EventCategory::kAdmission, 1.0));
  events.push_back(shard_event(60.0, ShardEvent::kWindowClose, 0, 120.0));
  events.push_back(shard_event(60.0, ShardEvent::kWindowClose, 1, 80.0));
  events.push_back(shard_event(60.0, ShardEvent::kPressure, 0, 12.0));
  events.push_back(shard_event(60.0, ShardEvent::kPressure, 1, 12.0));
  events.push_back(shard_event(120.0, ShardEvent::kWindowClose, 0, 50.0));
  events.push_back(shard_event(120.0, ShardEvent::kWindowClose, 1, 50.0));
  events.push_back(shard_event(120.0, ShardEvent::kPressure, 0, 10.0));

  const auto timeline = ShardImbalanceTimeline(events);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_DOUBLE_EQ(timeline[0].t_end, 60.0);
  EXPECT_EQ(timeline[0].shards, 2);
  EXPECT_EQ(timeline[0].total_events, 200);
  EXPECT_EQ(timeline[0].max_events, 120);
  EXPECT_EQ(timeline[0].min_events, 80);
  EXPECT_EQ(timeline[0].critical_shard, 0);
  // An exact tie keeps the lowest shard id on the critical path (shards
  // arrive in index order in a merged trace).
  EXPECT_EQ(timeline[1].max_events, 50);
  EXPECT_EQ(timeline[1].min_events, 50);
  EXPECT_EQ(timeline[1].critical_shard, 0);
  EXPECT_EQ(timeline[1].total_events, 100);

  EXPECT_TRUE(ShardImbalanceTimeline({}).empty());
}

}  // namespace
}  // namespace vod
