#include "obs/event_log.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace vod {
namespace {

TEST(EventTaxonomyTest, NamesRoundTripThroughParse) {
  for (int i = 0; i < kNumEventCategories; ++i) {
    const auto category = static_cast<EventCategory>(i);
    const auto parsed = ParseEventCategory(EventCategoryName(category));
    ASSERT_TRUE(parsed.ok()) << EventCategoryName(category);
    EXPECT_EQ(*parsed, category);
  }
  EXPECT_TRUE(ParseEventCategory("no_such_event").status().IsInvalidArgument());
}

TEST(EventTaxonomyTest, SubtypeNamesAreStable) {
  EXPECT_STREQ(EventSubtypeName(EventCategory::kAdmission, 1), "type2");
  EXPECT_STREQ(EventSubtypeName(EventCategory::kResume, 3), "miss");
  EXPECT_STREQ(EventSubtypeName(EventCategory::kFault, 0), "down");
  EXPECT_STREQ(EventSubtypeName(EventCategory::kDegradation, 0), "normal");
  EXPECT_STREQ(
      EventSubtypeName(EventCategory::kShard,
                       static_cast<uint8_t>(ShardEvent::kWindowOpen)),
      "window_open");
  EXPECT_STREQ(
      EventSubtypeName(EventCategory::kShard,
                       static_cast<uint8_t>(ShardEvent::kWindowClose)),
      "window_close");
  EXPECT_STREQ(EventSubtypeName(EventCategory::kShard,
                                static_cast<uint8_t>(ShardEvent::kPressure)),
               "pressure");
  EXPECT_STREQ(
      EventSubtypeName(EventCategory::kShard,
                       static_cast<uint8_t>(ShardEvent::kQuotaApply)),
      "quota_apply");
  // Out-of-range subtypes and subtype-less categories render as "-".
  EXPECT_STREQ(EventSubtypeName(EventCategory::kAdmission, 99), "-");
  EXPECT_STREQ(EventSubtypeName(EventCategory::kTick, 0), "-");
}

TEST(EventTaxonomyTest, CategoryMaskParsing) {
  ASSERT_TRUE(ParseCategoryMask("all").ok());
  EXPECT_EQ(*ParseCategoryMask("all"), kAllEventCategories);
  EXPECT_EQ(*ParseCategoryMask(""), kAllEventCategories);
  const auto mask = ParseCategoryMask("admission,fault");
  ASSERT_TRUE(mask.ok());
  EXPECT_EQ(*mask, CategoryBit(EventCategory::kAdmission) |
                       CategoryBit(EventCategory::kFault));
  EXPECT_TRUE(ParseCategoryMask("admission,bogus").status()
                  .IsInvalidArgument());
}

TEST(EventRingTest, KeepsTheMostRecentEvents) {
  EventRing ring(4);
  for (int i = 0; i < 10; ++i) {
    TraceEvent event;
    event.time = static_cast<double>(i);
    ring.Append(event);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_appended(), 10u);
  const auto events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: 6, 7, 8, 9.
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(events[static_cast<size_t>(i)].time, 6.0 + i);
  }
  ring.Clear();
  EXPECT_TRUE(ring.empty());
}

TEST(EventLogTest, StampsSequenceAndFansOut) {
  EventLog log;
  EventRing a(8);
  EventRing b(8);
  log.AddSink(&a);
  log.AddSink(&b);
  log.Emit(1.0, EventCategory::kAdmission, 0, 0, 7, 0.5);
  log.Emit(2.0, EventCategory::kResume, 3, 0, 7, 0.0, 1);
  EXPECT_EQ(log.emitted(), 2u);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  const auto events = a.Snapshot();
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].category, EventCategory::kResume);
  EXPECT_EQ(events[1].aux, 1);
}

TEST(EventLogTest, MaskFiltersCategories) {
  EventLog log;
  EventRing ring(8);
  log.AddSink(&ring);
  log.set_mask(CategoryBit(EventCategory::kFault));
  EXPECT_TRUE(log.ShouldEmit(EventCategory::kFault));
  EXPECT_FALSE(log.ShouldEmit(EventCategory::kAdmission));
  log.Emit(1.0, EventCategory::kAdmission, 0, 0, 1, 0.0);  // filtered
  log.Emit(2.0, EventCategory::kFault, 0, -1, 2, 30.0);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.Snapshot()[0].category, EventCategory::kFault);
  // Filtered events never consume sequence numbers.
  EXPECT_EQ(log.emitted(), 1u);
}

TEST(EventLogTest, NoSinksMeansNoEmission) {
  EventLog log;
  EXPECT_FALSE(log.ShouldEmit(EventCategory::kAdmission));
  log.Emit(1.0, EventCategory::kAdmission, 0, 0, 1, 0.0);
  EXPECT_EQ(log.emitted(), 0u);
  EXPECT_FALSE(ObsEnabled(&log, EventCategory::kAdmission));
  EXPECT_FALSE(ObsEnabled(nullptr, EventCategory::kAdmission));
}

TEST(VectorSinkTest, BuffersAndTakeDrains) {
  // VectorSink is the shard-lane buffer: the lane appends during a window,
  // the coordinator Takes the batch at the barrier and re-emits it into the
  // main bus, which restamps seq — the merge protocol of sharded tracing.
  EventLog lane;
  VectorSink buffer;
  lane.AddSink(&buffer);
  lane.Emit(1.0, EventCategory::kAdmission, 0, 3, 7, 0.5);
  lane.Emit(2.0, EventCategory::kShard, 1, -1, 0, 42.0);
  EXPECT_EQ(buffer.size(), 2u);

  const std::vector<TraceEvent> batch = buffer.Take();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(buffer.size(), 0u);  // Take drains; the next window starts fresh
  EXPECT_EQ(batch[0].category, EventCategory::kAdmission);
  EXPECT_EQ(batch[1].category, EventCategory::kShard);

  // Re-emission restamps the global sequence while preserving payloads.
  EventLog bus;
  EventRing out(8);
  bus.AddSink(&out);
  bus.Emit(0.5, EventCategory::kBarrier, 0, -1, 1, 0.0);
  for (const TraceEvent& event : batch) bus.Emit(event);
  const auto merged = out.Snapshot();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[1].seq, 1u);
  EXPECT_EQ(merged[2].seq, 2u);
  EXPECT_EQ(merged[2].category, EventCategory::kShard);
  EXPECT_DOUBLE_EQ(merged[2].value, 42.0);
}

TEST(EventLogTest, ScopedSinkDetachesOnExit) {
  EventLog log;
  EventRing ring(8);
  {
    ScopedEventSink lend(&log, &ring);
    EXPECT_TRUE(log.has_sinks());
    log.Emit(1.0, EventCategory::kStall, 0, 0, 3, 4.0);
  }
  EXPECT_FALSE(log.has_sinks());
  log.Emit(2.0, EventCategory::kStall, 0, 0, 3, 4.0);  // nowhere to go
  EXPECT_EQ(ring.size(), 1u);
  // Null log or null sink: the guard is inert.
  { ScopedEventSink inert_log(nullptr, &ring); }
  { ScopedEventSink inert_sink(&log, nullptr); }
  EXPECT_FALSE(log.has_sinks());
}

TEST(JsonlSinkTest, WritesOneObjectPerLine) {
  std::ostringstream os;
  JsonlSink sink(&os);
  EventLog log;
  log.AddSink(&sink);
  log.Emit(1.5, EventCategory::kAdmission, 1, 2, 42, 0.25);
  log.Emit(2.5, EventCategory::kResume, 3, 2, 42, 0.0, 0);
  EXPECT_EQ(sink.lines_written(), 2u);
  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\"cat\":\"admission\""), std::string::npos);
  EXPECT_NE(line.find("\"sub\":\"type2\""), std::string::npos);
  EXPECT_NE(line.find("\"movie\":2"), std::string::npos);
  EXPECT_NE(line.find("\"id\":42"), std::string::npos);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\"cat\":\"resume\""), std::string::npos);
  EXPECT_NE(line.find("\"sub\":\"miss\""), std::string::npos);
  EXPECT_FALSE(std::getline(lines, line)) << "exactly two lines";
}

}  // namespace
}  // namespace vod
