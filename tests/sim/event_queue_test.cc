#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

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
  struct Seen {
    std::vector<double> observed;
    int side_effect = 0;
  };
  for (const bool run_until : {false, true}) {
    EventQueue q;
    Seen seen;
    std::vector<double>& observed = seen.observed;
    int& side_effect = seen.side_effect;
    q.set_observer(
        [](void* ctx, double t) {
          auto* s = static_cast<Seen*>(ctx);
          s->observed.push_back(t);
          // Observer fires *after* the action: state must be settled.
          EXPECT_EQ(s->side_effect, static_cast<int>(s->observed.size()));
        },
        &seen);
    const uint64_t kind = q.AddHandler(
        [](void* ctx, uint64_t) { ++static_cast<Seen*>(ctx)->side_effect; },
        &seen);
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
