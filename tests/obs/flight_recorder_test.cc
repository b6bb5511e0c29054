// Unit tests for the crash flight recorder (obs/flight_recorder.h):
// bounded window retention, bounded per-shard event rings, the
// Dump/ReadPostmortem bundle round-trip (full precision — the digest chain
// is 64-bit and must survive the JSON round-trip exactly), and the reader's
// refusal of numbers that do not fit their field.

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"

namespace vod {
namespace {

class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_("flight_recorder_test_" + name + ".jsonl") {
    std::remove(path_.c_str());
  }
  ~TempPath() { std::remove(path_.c_str()); }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

FlightWindowRecord MakeWindow(int64_t w, int shards) {
  FlightWindowRecord fr;
  fr.window = w;
  fr.t_end = 60.0 * static_cast<double>(w);
  fr.capacity = 40 - w;
  fr.rung = static_cast<int>(w % 3);
  // Full 64-bit digest: round-tripping through a double would corrupt it.
  fr.digest = 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(w);
  fr.sum_held = 10 + w;
  fr.sum_credit = 30 - w;
  fr.sum_debt = w;
  fr.sum_queued = 2 * w;
  fr.quota_issued = w % 4;
  for (int s = 0; s < shards; ++s) fr.shard_events.push_back(100 * w + s);
  return fr;
}

TEST(FlightRecorderTest, RetainsOnlyTheLastWindows) {
  FlightRecorder recorder(/*shards=*/2, /*window_capacity=*/4,
                          /*events_per_shard=*/8);
  for (int64_t w = 1; w <= 10; ++w) recorder.RecordWindow(MakeWindow(w, 2));
  ASSERT_EQ(recorder.window_count(), 4u);
  EXPECT_EQ(recorder.windows().front().window, 7);
  EXPECT_EQ(recorder.windows().back().window, 10);
}

TEST(FlightRecorderTest, ShardRingsAreBounded) {
  FlightRecorder recorder(/*shards=*/2, /*window_capacity=*/4,
                          /*events_per_shard=*/3);
  EventRing* ring = recorder.shard_ring(0);
  for (int i = 0; i < 10; ++i) {
    TraceEvent event{};
    event.category = EventCategory::kShard;
    event.id = i;
    ring->Append(event);
  }
  const auto tail = recorder.shard_ring(0)->Snapshot();
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.front().id, 7);  // oldest retained
  EXPECT_EQ(tail.back().id, 9);
}

TEST(FlightRecorderTest, DumpReadPostmortemRoundTrips) {
  FlightRecorder recorder(/*shards=*/3, /*window_capacity=*/8,
                          /*events_per_shard=*/4);
  for (int64_t w = 1; w <= 5; ++w) recorder.RecordWindow(MakeWindow(w, 3));
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 2; ++i) {
      TraceEvent event{};
      event.time = 12.5 + s;
      event.category = EventCategory::kShard;
      event.subtype = static_cast<uint8_t>(ShardEvent::kWindowClose);
      event.movie = -1;
      event.id = s;
      event.value = 42.0 + i;
      recorder.shard_ring(s)->Append(event);
    }
  }

  TempPath path("roundtrip");
  const std::string reason =
      "invariant 'shard-reserve-ledger' violated at t=180 \"quoted\"";
  ASSERT_TRUE(recorder.Dump(path.str(), reason).ok());

  const auto bundle = ReadPostmortem(path.str());
  ASSERT_TRUE(bundle.ok()) << bundle.status().message();
  EXPECT_EQ(bundle->reason, reason);
  EXPECT_EQ(bundle->shards, 3);
  ASSERT_EQ(bundle->windows.size(), 5u);
  for (size_t i = 0; i < bundle->windows.size(); ++i) {
    const FlightWindowRecord& got = bundle->windows[i];
    const FlightWindowRecord want = MakeWindow(static_cast<int64_t>(i) + 1, 3);
    EXPECT_EQ(got.window, want.window);
    EXPECT_EQ(got.t_end, want.t_end);
    EXPECT_EQ(got.capacity, want.capacity);
    EXPECT_EQ(got.rung, want.rung);
    EXPECT_EQ(got.digest, want.digest);  // exact, not double-rounded
    EXPECT_EQ(got.sum_held, want.sum_held);
    EXPECT_EQ(got.sum_credit, want.sum_credit);
    EXPECT_EQ(got.sum_debt, want.sum_debt);
    EXPECT_EQ(got.sum_queued, want.sum_queued);
    EXPECT_EQ(got.quota_issued, want.quota_issued);
    EXPECT_EQ(got.shard_events, want.shard_events);
  }
  ASSERT_EQ(bundle->events.size(), 6u);
  for (size_t i = 0; i < bundle->events.size(); ++i) {
    const PostmortemEvent& pe = bundle->events[i];
    EXPECT_EQ(pe.shard, static_cast<int>(i / 2));
    EXPECT_EQ(pe.event.category, EventCategory::kShard);
    EXPECT_EQ(pe.event.id, static_cast<int64_t>(i / 2));
    EXPECT_EQ(pe.event.value, 42.0 + static_cast<double>(i % 2));
  }
}

TEST(FlightRecorderTest, ReadRejectsDamagedBundles) {
  TempPath path("damaged");
  {
    std::FILE* f = std::fopen(path.str().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"not\":\"a bundle\"}\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(ReadPostmortem(path.str()).ok());
  EXPECT_FALSE(ReadPostmortem("flight_recorder_test_nonexistent.jsonl").ok());
}

TEST(FlightRecorderTest, RingCapacityAllocatesNothingUpFront) {
  // The capacity is a bound from a flag, not a size: a huge one must cost
  // nothing until events arrive.
  FlightRecorder recorder(/*shards=*/2, /*window_capacity=*/4,
                          /*events_per_shard=*/100000000000000ULL);
  for (int i = 0; i < 3; ++i) {
    TraceEvent event{};
    event.category = EventCategory::kShard;
    event.id = i;
    recorder.shard_ring(1)->Append(event);
  }
  EXPECT_TRUE(recorder.shard_ring(0)->empty());
  const auto tail = recorder.shard_ring(1)->Snapshot();
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.front().id, 0);
  EXPECT_EQ(tail.back().id, 2);
}

void WriteBundle(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  for (const std::string& line : lines) {
    std::fputs((line + "\n").c_str(), f);
  }
  std::fclose(f);
}

const char kHeader[] =
    "{\"postmortem\":\"vod-flight-recorder-v1\",\"reason\":\"r\","
    "\"shards\":2}";

/// A window record with `field` (one of its keys) set to `value`.
std::string WindowLine(const std::string& field, const std::string& value) {
  const std::vector<std::pair<std::string, std::string>> fields = {
      {"window", "3"},       {"t_end", "180"},     {"capacity", "40"},
      {"rung", "1"},         {"digest", "12345"},  {"sum_held", "7"},
      {"sum_credit", "33"},  {"sum_debt", "0"},    {"sum_queued", "2"},
      {"quota_issued", "0"}, {"shard_events", "[5,6]"}};
  std::string line = "{";
  for (const auto& [key, v] : fields) {
    if (line.size() > 1) line += ",";
    line += "\"" + key + "\":" + (key == field ? value : v);
  }
  return line + "}";
}

TEST(FlightRecorderTest, ReadIgnoresFieldsItDoesNotKnow) {
  // Bundles from builds with barrier mailboxes carry two message counters
  // per window; they still read.
  TempPath path("older");
  std::string window = WindowLine("", "");
  window.insert(window.find(",\"shard_events\""),
                ",\"messages_posted\":96,\"messages_drained\":96");
  WriteBundle(path.str(), {kHeader, window});
  const auto bundle = ReadPostmortem(path.str());
  ASSERT_TRUE(bundle.ok()) << bundle.status().message();
  ASSERT_EQ(bundle->windows.size(), 1u);
  EXPECT_EQ(bundle->windows[0].window, 3);
  EXPECT_EQ(bundle->windows[0].rung, 1);
  EXPECT_EQ(bundle->windows[0].digest, 12345u);
  EXPECT_EQ(bundle->windows[0].shard_events, (std::vector<int64_t>{5, 6}));
}

TEST(FlightRecorderTest, ReadRejectsNumbersThatDoNotFitTheirField) {
  // Each bundle damages one number; the reader must name the line and the
  // field instead of casting an out-of-range double (undefined behaviour).
  const auto event_line = [](const std::string& shard) {
    return "{\"shard\":" + shard +
           ",\"event\":{\"t\":1,\"seq\":0,\"cat\":\"shard\","
           "\"sub\":\"window_open\",\"aux\":0,\"movie\":-1,\"id\":0,"
           "\"value\":1}}";
  };
  const std::string header = kHeader;
  const struct {
    std::vector<std::string> lines;
    const char* line_no;
    const char* field;
  } cases[] = {
      {{"{\"postmortem\":\"vod-flight-recorder-v1\",\"reason\":\"r\","
        "\"shards\":nan}"},
       "line 1", "\"shards\""},
      {{"{\"postmortem\":\"vod-flight-recorder-v1\",\"reason\":\"r\","
        "\"shards\":0}"},
       "line 1", "\"shards\""},
      {{header, WindowLine("window", "inf")}, "line 2", "\"window\""},
      {{header, WindowLine("window", "1.5")}, "line 2", "\"window\""},
      {{header, WindowLine("rung", "1e300")}, "line 2", "\"rung\""},
      {{header, WindowLine("rung", "7")}, "line 2", "\"rung\""},
      {{header, WindowLine("rung", "-1")}, "line 2", "\"rung\""},
      {{header, WindowLine("capacity", "1e19")}, "line 2",
       "\"capacity\""},
      {{header, WindowLine("t_end", "nan")}, "line 2", "\"t_end\""},
      {{header, WindowLine("digest", "-1")}, "line 2", "\"digest\""},
      {{header, WindowLine("digest", "18446744073709551616")}, "line 2",
       "\"digest\""},
      {{header, WindowLine("shard_events", "[5,1e300]")}, "line 2",
       "shard_events"},
      {{header, WindowLine("shard_events", "[nan]")}, "line 2",
       "shard_events"},
      {{header, event_line("nan")}, "line 2", "\"shard\""},
      {{header, event_line("4294967296")}, "line 2", "\"shard\""},
      // Integers in exponent form and hex numbers, which no writer emits.
      {{header, WindowLine("capacity", "4e1")}, "line 2", "\"capacity\""},
      {{header, WindowLine("t_end", "0x1p4")}, "line 2", "\"t_end\""},
  };
  for (const auto& c : cases) {
    TempPath path("numbers");
    WriteBundle(path.str(), c.lines);
    const auto bundle = ReadPostmortem(path.str());
    ASSERT_FALSE(bundle.ok()) << c.lines.back();
    EXPECT_TRUE(bundle.status().IsInvalidArgument()) << c.lines.back();
    const std::string& why = bundle.status().message();
    EXPECT_NE(why.find(c.line_no), std::string::npos) << why;
    EXPECT_NE(why.find(c.field), std::string::npos) << why;
  }
}

TEST(FlightRecorderTest, EmptyRecorderStillDumps) {
  // A failure in window 1 dumps before anything accumulated much; the
  // bundle must still parse.
  FlightRecorder recorder(/*shards=*/1, /*window_capacity=*/4,
                          /*events_per_shard=*/0);
  TempPath path("empty");
  ASSERT_TRUE(recorder.Dump(path.str(), "early failure").ok());
  const auto bundle = ReadPostmortem(path.str());
  ASSERT_TRUE(bundle.ok()) << bundle.status().message();
  EXPECT_EQ(bundle->reason, "early failure");
  EXPECT_TRUE(bundle->windows.empty());
  EXPECT_TRUE(bundle->events.empty());
}

}  // namespace
}  // namespace vod
