#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/serialize.h"

namespace vod {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(3.0, [&] { order.push_back(3); });
  q.Schedule(1.0, [&] { order.push_back(1); });
  q.Schedule(2.0, [&] { order.push_back(2); });
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.Now(), 3.0);
}

TEST(EventQueueTest, SimultaneousEventsRunInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(1.0, [&order, i] { order.push_back(i); });
  }
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelSkipsEvent) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1.0, [&] { order.push_back(1); });
  const EventToken t = q.Schedule(2.0, [&] { order.push_back(2); });
  q.Schedule(3.0, [&] { order.push_back(3); });
  q.Cancel(t);
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, CancelUnknownTokenIsHarmless) {
  EventQueue q;
  q.Cancel(9999);
  q.Schedule(1.0, [] {});
  EXPECT_TRUE(q.RunNext());
  EXPECT_FALSE(q.RunNext());
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  std::vector<double> times;
  q.Schedule(1.0, [&] {
    times.push_back(q.Now());
    q.Schedule(2.5, [&] { times.push_back(q.Now()); });
  });
  while (q.RunNext()) {
  }
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.5}));
}

TEST(EventQueueTest, SchedulingInThePastAborts) {
  EventQueue q;
  q.Schedule(5.0, [] {});
  EXPECT_TRUE(q.RunNext());
  EXPECT_DEATH(q.Schedule(4.0, [] {}), "past");
}

TEST(EventQueueTest, RunUntilStopsAtHorizon) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1.0, [&] { order.push_back(1); });
  q.Schedule(2.0, [&] { order.push_back(2); });
  q.Schedule(5.0, [&] { order.push_back(5); });
  q.RunUntil(3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(q.Now(), 3.0);
  EXPECT_EQ(q.pending(), 1u);
  q.RunUntil(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 5}));
}

TEST(EventQueueTest, RunUntilExecutesEventAtExactHorizon) {
  EventQueue q;
  bool ran = false;
  q.Schedule(3.0, [&] { ran = true; });
  q.RunUntil(3.0);
  EXPECT_TRUE(ran);
}

TEST(EventQueueTest, RunUntilAdvancesClockOnEmptyQueue) {
  EventQueue q;
  q.RunUntil(7.0);
  EXPECT_DOUBLE_EQ(q.Now(), 7.0);
}

TEST(EventQueueTest, PendingCountExcludesCancelled) {
  EventQueue q;
  q.Schedule(1.0, [] {});
  const EventToken t = q.Schedule(2.0, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.Cancel(t);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueueTest, CancelledHeadDoesNotBlockHorizonCheck) {
  EventQueue q;
  bool ran = false;
  const EventToken t = q.Schedule(1.0, [] {});
  q.Schedule(2.0, [&] { ran = true; });
  q.Cancel(t);
  q.RunUntil(2.5);
  EXPECT_TRUE(ran);
}

TEST(EventQueueTest, CancellingAnAlreadyPoppedTokenIsANoOp) {
  EventQueue q;
  int runs = 0;
  const EventToken t = q.Schedule(1.0, [&] { ++runs; });
  EXPECT_TRUE(q.RunNext());
  EXPECT_EQ(runs, 1);
  q.Cancel(t);  // token already executed; must not poison anything
  EXPECT_EQ(q.pending(), 0u);
  // A later event must still run (a stale cancel must not eat it even if
  // token values were ever reused).
  q.Schedule(2.0, [&] { ++runs; });
  EXPECT_TRUE(q.RunNext());
  EXPECT_EQ(runs, 2);
}

TEST(EventQueueTest, CancelAfterPopDoesNotCancelLaterEventAtSameTime) {
  EventQueue q;
  std::vector<int> order;
  const EventToken first = q.Schedule(1.0, [&] { order.push_back(0); });
  q.Schedule(1.0, [&] { order.push_back(1); });
  EXPECT_TRUE(q.RunNext());
  q.Cancel(first);  // stale: the event at the same timestamp must survive
  EXPECT_TRUE(q.RunNext());
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueueTest, ObserverFiresAfterEachExecutedEvent) {
  // Drained both event by event (RunNext) and by RunUntil, whose observed
  // loop dispatches handler events inline and closures through the
  // shared path; the observer contract must hold on both.
  for (const bool run_until : {false, true}) {
    EventQueue q;
    std::vector<double> observed;
    int side_effect = 0;
    q.set_observer([&](double t) {
      observed.push_back(t);
      // Observer fires *after* the action: state must be settled.
      EXPECT_EQ(side_effect, static_cast<int>(observed.size()));
    });
    const uint64_t kind = q.AddHandler([&](uint64_t) { ++side_effect; });
    q.Schedule(1.0, [&] { ++side_effect; });
    const EventToken t = q.Schedule(2.0, [&] { ++side_effect; });
    q.ScheduleHandler(3.0, kind, 0);
    q.ScheduleHandler(3.0, kind, 1);
    q.Cancel(t);
    if (run_until) {
      q.RunUntil(3.0);
    } else {
      while (q.RunNext()) {
      }
    }
    // Cancelled events never execute, so the observer must not see them.
    EXPECT_EQ(observed, (std::vector<double>{1.0, 3.0, 3.0}))
        << "run_until=" << run_until;
    EXPECT_EQ(q.executed(), 3u);
  }
}

// ---- tagged snapshot / restore --------------------------------------------

TEST(EventQueueSnapshotTest, RestoreMidHeapPreservesOrderAndClock) {
  // Build a queue, run part of it, snapshot mid-heap, and check the restored
  // queue drains the remaining events in the identical order.
  std::vector<std::pair<uint64_t, double>> executed;
  auto factory = [&executed](uint64_t kind, uint64_t payload,
                             double time) -> std::function<void()> {
    (void)payload;
    return [&executed, kind, time] { executed.push_back({kind, time}); };
  };

  EventQueue q;
  for (uint64_t i = 0; i < 10; ++i) {
    const double t = static_cast<double>((i * 7) % 10) + 1.0;
    q.ScheduleTagged(t, /*kind=*/i, /*payload=*/i * 100, factory(i, i * 100, t));
  }
  // Run the first 4 events, leaving a part-consumed heap.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.RunNext());
  const std::vector<std::pair<uint64_t, double>> prefix = executed;
  const double clock = q.Now();
  const size_t remaining = q.pending();

  ByteWriter snapshot;
  ASSERT_TRUE(q.Snapshot(&snapshot).ok());

  // Drain the original for the reference tail.
  while (q.RunNext()) {
  }
  std::vector<std::pair<uint64_t, double>> reference_tail(
      executed.begin() + static_cast<ptrdiff_t>(prefix.size()),
      executed.end());

  executed.clear();
  EventQueue restored;
  ByteReader reader(snapshot.bytes());
  ASSERT_TRUE(restored.Restore(&reader, factory).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_DOUBLE_EQ(restored.Now(), clock);
  EXPECT_EQ(restored.pending(), remaining);
  while (restored.RunNext()) {
  }
  EXPECT_EQ(executed, reference_tail);
}

TEST(EventQueueSnapshotTest, TokensSurviveRestoreForCancellation) {
  EventQueue q;
  int runs = 0;
  auto noop_factory = [&runs](uint64_t, uint64_t,
                              double) -> std::function<void()> {
    return [&runs] { ++runs; };
  };
  q.ScheduleTagged(1.0, 1, 0, [&runs] { ++runs; });
  const EventToken victim = q.ScheduleTagged(2.0, 2, 0, [&runs] { ++runs; });
  ByteWriter snapshot;
  ASSERT_TRUE(q.Snapshot(&snapshot).ok());

  EventQueue restored;
  ByteReader reader(snapshot.bytes());
  ASSERT_TRUE(restored.Restore(&reader, noop_factory).ok());
  restored.Cancel(victim);  // pre-snapshot token targets the same event
  while (restored.RunNext()) {
  }
  EXPECT_EQ(runs, 1);
}

TEST(EventQueueSnapshotTest, CancelledEventsAreDroppedFromSnapshots) {
  EventQueue q;
  q.ScheduleTagged(1.0, 1, 0, [] {});
  const EventToken t = q.ScheduleTagged(2.0, 2, 0, [] {});
  q.Cancel(t);
  ByteWriter snapshot;
  ASSERT_TRUE(q.Snapshot(&snapshot).ok());

  EventQueue restored;
  ByteReader reader(snapshot.bytes());
  ASSERT_TRUE(restored
                  .Restore(&reader,
                           [](uint64_t, uint64_t,
                              double) -> std::function<void()> {
                             return [] {};
                           })
                  .ok());
  EXPECT_EQ(restored.pending(), 1u);
}

TEST(EventQueueSnapshotTest, UntaggedEventMakesSnapshotNotSupported) {
  EventQueue q;
  q.ScheduleTagged(1.0, 1, 0, [] {});
  q.Schedule(2.0, [] {});  // closure-only: cannot persist
  ByteWriter snapshot;
  const Status st = q.Snapshot(&snapshot);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotSupported());
  EXPECT_NE(st.message().find("untagged"), std::string::npos);
}

TEST(EventQueueSnapshotTest, RestoreIntoNonEmptyQueueIsRejected) {
  EventQueue q;
  q.ScheduleTagged(1.0, 1, 0, [] {});
  ByteWriter snapshot;
  ASSERT_TRUE(q.Snapshot(&snapshot).ok());
  ByteReader reader(snapshot.bytes());
  EXPECT_FALSE(q.Restore(&reader,
                         [](uint64_t, uint64_t,
                            double) -> std::function<void()> {
                           return [] {};
                         })
                   .ok());
}

TEST(EventQueueSnapshotTest, TruncatedSnapshotIsRejected) {
  EventQueue q;
  q.ScheduleTagged(1.0, 1, 0, [] {});
  q.ScheduleTagged(2.0, 2, 0, [] {});
  ByteWriter snapshot;
  ASSERT_TRUE(q.Snapshot(&snapshot).ok());
  const std::string cut =
      snapshot.bytes().substr(0, snapshot.bytes().size() - 9);
  EventQueue restored;
  ByteReader reader(cut);
  const Status st = restored.Restore(&reader,
                                     [](uint64_t, uint64_t,
                                        double) -> std::function<void()> {
                                       return [] {};
                                     });
  ASSERT_FALSE(st.ok());
  // All-or-nothing: the failed restore must not leave partial state.
  EXPECT_EQ(restored.pending(), 0u);
  EXPECT_DOUBLE_EQ(restored.Now(), 0.0);
}

TEST(EventQueueSnapshotTest, UnknownKindIsRejected) {
  EventQueue q;
  q.ScheduleTagged(1.0, /*kind=*/77, 0, [] {});
  ByteWriter snapshot;
  ASSERT_TRUE(q.Snapshot(&snapshot).ok());
  EventQueue restored;
  ByteReader reader(snapshot.bytes());
  const Status st = restored.Restore(
      &reader,
      [](uint64_t kind, uint64_t, double) -> std::function<void()> {
        if (kind == 77) return nullptr;  // factory refuses this kind
        return [] {};
      });
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("kind"), std::string::npos);
}

TEST(EventQueueSnapshotTest, SimultaneousEventsKeepScheduleOrderAcrossRestore) {
  // Tie-breaking at equal timestamps must be the insertion order, and a
  // snapshot/restore cycle must not perturb it.
  std::vector<uint64_t> executed;
  auto factory = [&executed](uint64_t kind, uint64_t,
                             double) -> std::function<void()> {
    return [&executed, kind] { executed.push_back(kind); };
  };
  EventQueue q;
  for (uint64_t i = 0; i < 6; ++i) {
    q.ScheduleTagged(5.0, i, 0, factory(i, 0, 5.0));
  }
  ByteWriter snapshot;
  ASSERT_TRUE(q.Snapshot(&snapshot).ok());
  EventQueue restored;
  ByteReader reader(snapshot.bytes());
  ASSERT_TRUE(restored.Restore(&reader, factory).ok());
  while (restored.RunNext()) {
  }
  EXPECT_EQ(executed, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5}));
}

// ---- hand-built snapshot blobs: every Restore rejection ------------------

/// First word of a current-format snapshot; pinned here because it is the
/// on-disk format identifier.
constexpr uint64_t kSnapshotMagic = 0xFFF7'4551'4232'0002ULL;

struct BlobEntry {
  double time;
  uint32_t gen;
  uint32_t slot;
  uint64_t kind;
  uint64_t payload;
};

/// Serializes the snapshot layout field by field: magic, clock, generation
/// counter, executed count, entry count, then (time, token, kind, payload).
std::string BuildBlob(double clock, uint64_t next_gen,
                      const std::vector<BlobEntry>& entries) {
  ByteWriter w;
  w.PutU64(kSnapshotMagic);
  w.PutDouble(clock);
  w.PutU64(next_gen);
  w.PutU64(/*executed=*/0);
  w.PutU64(entries.size());
  for (const BlobEntry& e : entries) {
    w.PutDouble(e.time);
    w.PutU64((static_cast<uint64_t>(e.gen) << 32) | e.slot);
    w.PutU64(e.kind);
    w.PutU64(e.payload);
  }
  return w.bytes();
}

Status RestoreBlob(const std::string& blob) {
  EventQueue q;
  ByteReader reader(blob);
  const Status st = q.Restore(
      &reader, [](uint64_t, uint64_t, double) -> std::function<void()> {
        return [] {};
      });
  // All-or-nothing: a rejected blob leaves no partial state behind.
  if (!st.ok()) {
    EXPECT_EQ(q.pending(), 0u);
  }
  return st;
}

void ExpectRejected(const std::string& blob, const std::string& reason) {
  const Status st = RestoreBlob(blob);
  ASSERT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find(reason), std::string::npos) << st.message();
}

TEST(EventQueueSnapshotBlobTest, HandBuiltBlobRestoresAndRuns) {
  // The builder itself must produce an acceptable blob, or the rejection
  // cases below would pass for the wrong reason.
  EventQueue q;
  std::vector<uint64_t> payloads;
  q.AddHandler([&payloads](uint64_t p) { payloads.push_back(p); });
  const std::string blob =
      BuildBlob(1.0, /*next_gen=*/5, {{2.0, 3, 0, 0, 30}, {2.0, 1, 7, 0, 10}});
  ByteReader reader(blob);
  const Status st = q.Restore(&reader, nullptr);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(reader.AtEnd());
  q.RunUntil(10.0);
  EXPECT_EQ(payloads, (std::vector<uint64_t>{10, 30}));
}

TEST(EventQueueSnapshotBlobTest, EntryBeforeTheClockIsRejected) {
  ExpectRejected(BuildBlob(5.0, 1, {{4.0, 0, 0, 1, 0}}),
                 "precedes the snapshot clock");
}

TEST(EventQueueSnapshotBlobTest, GenerationAtOrAboveTheCounterIsRejected) {
  ExpectRejected(BuildBlob(0.0, 3, {{1.0, 3, 0, 1, 0}}), "sequence counter");
}

TEST(EventQueueSnapshotBlobTest, CounterOutOfRangeIsRejected) {
  ExpectRejected(BuildBlob(0.0, uint64_t{1} << 32, {}), "out of range");
}

TEST(EventQueueSnapshotBlobTest, DuplicateSlotIsRejected) {
  ExpectRejected(BuildBlob(0.0, 2, {{1.0, 0, 4, 1, 0}, {2.0, 1, 4, 1, 0}}),
                 "duplicate slot");
}

TEST(EventQueueSnapshotBlobTest, ImplausibleSlotIsRejected) {
  ExpectRejected(BuildBlob(0.0, 1, {{1.0, 0, uint32_t{1} << 26, 1, 0}}),
                 "implausibly large");
}

TEST(EventQueueSnapshotBlobTest, UnknownFormatIsRejected) {
  // An unversioned layout opening with the clock double, not the magic.
  ByteWriter w;
  w.PutDouble(0.0);
  w.PutU64(0);
  w.PutU64(0);
  w.PutU64(0);
  ExpectRejected(w.bytes(), "unsupported event queue snapshot format");
}

TEST(EventQueueSnapshotBlobTest, CountBeyondTheBlobIsRejected) {
  // 40 bytes declaring 2^40 entries: the count is checked against the bytes
  // that remain before anything is allocated by it.
  ByteWriter w;
  w.PutU64(kSnapshotMagic);
  w.PutDouble(0.0);
  w.PutU64(0);
  w.PutU64(0);
  w.PutU64(uint64_t{1} << 40);
  ASSERT_EQ(w.bytes().size(), 40u);
  ExpectRejected(w.bytes(), "entries declared");
}

TEST(EventQueueTest, ManyEventsStressOrder) {
  EventQueue q;
  double last = -1.0;
  int count = 0;
  // Deterministic pseudo-random times.
  uint64_t state = 12345;
  for (int i = 0; i < 10000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double t = static_cast<double>(state >> 40);
    q.Schedule(t, [&, t] {
      EXPECT_GE(t, last);
      last = t;
      ++count;
    });
  }
  while (q.RunNext()) {
  }
  EXPECT_EQ(count, 10000);
}

}  // namespace
}  // namespace vod
