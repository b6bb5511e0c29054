#include "sim/degradation.h"

#include <gtest/gtest.h>

namespace vod {
namespace {

DegradationPolicy EnabledPolicy() {
  DegradationPolicy policy;
  policy.enabled = true;
  policy.queue_deadline_minutes = 5.0;
  return policy;
}

TEST(DegradationPolicyTest, Validation) {
  EXPECT_TRUE(EnabledPolicy().Validate().ok());
  DegradationPolicy p = EnabledPolicy();
  p.queue_deadline_minutes = -1.0;
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
}

TEST(ReserveManagerTest, LegacySemanticsWithPolicyDisabled) {
  EventQueue queue;
  ReserveManager mgr(2, DegradationPolicy{}, &queue, 0.0);
  EXPECT_TRUE(mgr.TryAcquire(0.0));
  EXPECT_TRUE(mgr.TryAcquire(0.0));
  EXPECT_FALSE(mgr.TryAcquire(0.0));
  EXPECT_EQ(mgr.refused(), 1);
  EXPECT_EQ(mgr.acquired(), 2);
  // No queueing with the policy off: the callback is never taken.
  bool invoked = false;
  EXPECT_FALSE(
      mgr.TryQueueAcquire(0.0, [&invoked](double, bool) { invoked = true; }));
  EXPECT_FALSE(invoked);
  EXPECT_EQ(mgr.vcr_denied(), 1);
  mgr.Release(1.0);
  EXPECT_TRUE(mgr.TryAcquire(1.0));
}

TEST(ReserveManagerTest, ZeroCapacityRefusesAll) {
  EventQueue queue;
  ReserveManager mgr(0, DegradationPolicy{}, &queue, 0.0);
  EXPECT_FALSE(mgr.TryAcquire(0.0));
  EXPECT_EQ(mgr.refused(), 1);
  EXPECT_EQ(mgr.in_use(), 0);
  EXPECT_EQ(mgr.level(), DegradationLevel::kNormal);
}

TEST(ReserveManagerTest, PeakAndMeanUsage) {
  EventQueue queue;
  ReserveManager mgr(10, DegradationPolicy{}, &queue, 0.0);
  EXPECT_TRUE(mgr.TryAcquire(0.0));
  EXPECT_TRUE(mgr.TryAcquire(0.0));
  mgr.Release(5.0);
  EXPECT_EQ(mgr.peak_in_use(), 2);
  // 2 for [0,5), 1 for [5,10): average 1.5.
  EXPECT_NEAR(mgr.MeanInUse(10.0), 1.5, 1e-12);
  EXPECT_EQ(mgr.level(), DegradationLevel::kNormal);
}

TEST(ReserveManagerTest, OversubscriptionClampsAndDrains) {
  EventQueue queue;
  ReserveManager mgr(5, DegradationPolicy{}, &queue, 0.0);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(mgr.TryAcquire(0.0));
  mgr.SetCapacity(1.0, 3);
  EXPECT_EQ(mgr.in_use(), 5);
  EXPECT_EQ(mgr.capacity(), 3);
  EXPECT_EQ(mgr.oversubscription(), 2);
  EXPECT_EQ(mgr.max_oversubscription(), 2);
  EXPECT_EQ(mgr.min_capacity_seen(), 3);
  EXPECT_EQ(mgr.level(), DegradationLevel::kReclaim);
  EXPECT_FALSE(mgr.TryAcquire(1.5));
  // The overhang drains as holders release; never negative anywhere.
  mgr.Release(2.0);
  mgr.Release(2.0);
  EXPECT_EQ(mgr.oversubscription(), 0);
  EXPECT_FALSE(mgr.TryAcquire(2.5));  // still full: in_use == capacity
  mgr.Release(3.0);
  EXPECT_TRUE(mgr.TryAcquire(3.5));
  EXPECT_EQ(mgr.max_oversubscription(), 2);
}

TEST(ReserveManagerTest, QueuedRequestGrantedAfterRelease) {
  EventQueue queue;
  ReserveManager mgr(1, EnabledPolicy(), &queue, 0.0);
  ASSERT_TRUE(mgr.TryAcquire(0.0));
  ASSERT_FALSE(mgr.TryAcquire(0.0));
  bool granted = false;
  double decision_time = -1.0;
  ASSERT_TRUE(mgr.TryQueueAcquire(0.0, [&](double t, bool g) {
    granted = g;
    decision_time = t;
  }));
  EXPECT_EQ(mgr.level(), DegradationLevel::kQueueing);
  EXPECT_EQ(mgr.queue_length(), 1);
  mgr.Release(0.1);
  queue.RunUntil(10.0);
  EXPECT_TRUE(granted);
  // Re-offer happens at the first backoff retry after the release.
  EXPECT_NEAR(decision_time, 0.25, 1e-12);
  EXPECT_EQ(mgr.vcr_queued(), 1);
  EXPECT_EQ(mgr.vcr_queue_grants(), 1);
  EXPECT_EQ(mgr.vcr_queue_expirations(), 0);
  EXPECT_EQ(mgr.in_use(), 1);  // the granted stream belongs to the caller
  EXPECT_EQ(mgr.level(), DegradationLevel::kNormal);
  EXPECT_NEAR(mgr.queued_wait().mean(), 0.25, 1e-12);
}

TEST(ReserveManagerTest, QueuedRequestExpiresAtDeadline) {
  EventQueue queue;
  ReserveManager mgr(1, EnabledPolicy(), &queue, 0.0);
  ASSERT_TRUE(mgr.TryAcquire(0.0));
  bool granted = true;
  double decision_time = -1.0;
  ASSERT_TRUE(mgr.TryQueueAcquire(0.0, [&](double t, bool g) {
    granted = g;
    decision_time = t;
  }));
  queue.RunUntil(10.0);  // never released
  EXPECT_FALSE(granted);
  EXPECT_NEAR(decision_time, 5.0, 1e-12);  // the configured deadline
  EXPECT_EQ(mgr.vcr_queue_expirations(), 1);
  EXPECT_EQ(mgr.vcr_queue_grants(), 0);
  EXPECT_EQ(mgr.queue_length(), 0);
}

TEST(ReserveManagerTest, ShedLevelClosesAdmissionAndQueue) {
  EventQueue queue;
  ReserveManager mgr(10, EnabledPolicy(), &queue, 0.0);
  mgr.SetCapacity(1.0, 4);  // 40% of nominal < kLadderShedBelowFraction
  EXPECT_EQ(mgr.level(), DegradationLevel::kShedVcr);
  EXPECT_FALSE(mgr.TryAcquire(1.5));  // admission closed despite free units
  bool invoked = false;
  EXPECT_FALSE(
      mgr.TryQueueAcquire(1.5, [&invoked](double, bool) { invoked = true; }));
  EXPECT_FALSE(invoked);
  EXPECT_EQ(mgr.vcr_denied(), 1);
  mgr.SetCapacity(2.0, 10);
  EXPECT_EQ(mgr.level(), DegradationLevel::kNormal);
  EXPECT_TRUE(mgr.TryAcquire(2.5));
}

TEST(ReserveManagerTest, BatchingOnlyReclaimsEverything) {
  EventQueue queue;
  ReserveManager mgr(10, EnabledPolicy(), &queue, 0.0);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(mgr.TryAcquire(0.0));
  int64_t reclaim_requests = 0;
  mgr.set_reclaim_hook([&](double t, int64_t need) {
    reclaim_requests += need;
    for (int64_t i = 0; i < need; ++i) mgr.Release(t);
    return need;
  });
  mgr.SetCapacity(1.0, 1);  // 10% of nominal < kLadderBatchingBelowFraction
  EXPECT_EQ(reclaim_requests, 6);
  EXPECT_EQ(mgr.forced_reclaims(), 6);
  EXPECT_EQ(mgr.in_use(), 0);
  EXPECT_EQ(mgr.level(), DegradationLevel::kBatchingOnly);
  // Repair: back to normal, and the excursion counts as one recovery.
  mgr.SetCapacity(5.0, 10);
  EXPECT_EQ(mgr.level(), DegradationLevel::kNormal);
  EXPECT_EQ(mgr.recovery_times().count(), 1);
  EXPECT_NEAR(mgr.recovery_times().mean(), 4.0, 1e-12);
}

TEST(ReserveManagerTest, PartialReclaimOnOversubscription) {
  EventQueue queue;
  ReserveManager mgr(10, EnabledPolicy(), &queue, 0.0);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(mgr.TryAcquire(0.0));
  mgr.set_reclaim_hook([&](double t, int64_t need) {
    for (int64_t i = 0; i < need; ++i) mgr.Release(t);
    return need;
  });
  mgr.SetCapacity(1.0, 6);  // 60% of nominal: above shed, but oversubscribed
  // Only the overhang (2) is reclaimed, not everything.
  EXPECT_EQ(mgr.forced_reclaims(), 2);
  EXPECT_EQ(mgr.in_use(), 6);
  EXPECT_EQ(mgr.oversubscription(), 0);
}

TEST(ReserveManagerTest, TimeInLevelsSumToHorizonAndLogTransitions) {
  EventQueue queue;
  ReserveManager mgr(10, EnabledPolicy(), &queue, 0.0);
  mgr.SetCapacity(10.0, 4);  // normal -> shed
  mgr.SetCapacity(30.0, 10);  // shed -> normal
  mgr.Finalize(100.0);
  double total = 0.0;
  for (int i = 0; i < kNumDegradationLevels; ++i) {
    total += mgr.time_in_level(static_cast<DegradationLevel>(i));
  }
  EXPECT_NEAR(total, 100.0, 1e-9);
  EXPECT_NEAR(mgr.time_in_level(DegradationLevel::kShedVcr), 20.0, 1e-9);
  EXPECT_NEAR(mgr.time_in_level(DegradationLevel::kNormal), 80.0, 1e-9);
  ASSERT_EQ(mgr.transitions().size(), 2u);
  EXPECT_EQ(mgr.total_transitions(), 2);
  EXPECT_EQ(mgr.transitions()[0].from, DegradationLevel::kNormal);
  EXPECT_EQ(mgr.transitions()[0].to, DegradationLevel::kShedVcr);
  EXPECT_EQ(mgr.transitions()[1].to, DegradationLevel::kNormal);
  EXPECT_EQ(mgr.recovery_times().count(), 1);
  EXPECT_NEAR(mgr.recovery_times().mean(), 20.0, 1e-9);
}

TEST(ReserveManagerTest, QueueAccountingIdentity) {
  EventQueue queue;
  ReserveManager mgr(1, EnabledPolicy(), &queue, 0.0);
  ASSERT_TRUE(mgr.TryAcquire(0.0));
  int decided = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(mgr.TryQueueAcquire(
        static_cast<double>(i), [&decided](double, bool) { ++decided; }));
  }
  // Keep the manager's clock monotone: run the queue up to the release
  // time first (those retries find no free stream), release, then let the
  // next retry re-offer. Releasing at 2.5 with unexecuted earlier retry
  // events still pending would step the time-weighted trackers backwards.
  queue.RunUntil(2.5);
  mgr.Release(2.5);  // exactly one waiter can be re-offered (at the 2.75 retry)
  queue.RunUntil(3.0);  // before the deadlines: expirations still pending
  mgr.Finalize(3.0);
  EXPECT_EQ(mgr.vcr_queued(), mgr.vcr_queue_grants() +
                                  mgr.vcr_queue_expirations() +
                                  mgr.queue_length());
  EXPECT_EQ(mgr.vcr_queue_grants(), 1);
  EXPECT_EQ(mgr.queue_length(), 2);
  EXPECT_EQ(decided, 1);
}

// ---- windowed cross-shard ladder (pure functions) -------------------------

WindowedPressure Pressure(int64_t capacity, int64_t nominal, int64_t held,
                          int64_t queued) {
  WindowedPressure p;
  p.capacity = capacity;
  p.nominal_capacity = nominal;
  p.sum_held = held;
  p.sum_queued = queued;
  return p;
}

TEST(WindowedLadderTest, ComputeLevelMirrorsReserveManagerThresholds) {
  // Full capacity, nothing held or queued: normal.
  EXPECT_EQ(ComputeWindowedLevel(Pressure(50, 50, 10, 0)),
            DegradationLevel::kNormal);
  // Any queued demand raises kQueueing.
  EXPECT_EQ(ComputeWindowedLevel(Pressure(50, 50, 10, 1)),
            DegradationLevel::kQueueing);
  // Below half of nominal: shed new VCR work (queued or not).
  EXPECT_EQ(ComputeWindowedLevel(Pressure(24, 50, 10, 0)),
            DegradationLevel::kShedVcr);
  // Oversubscribed (held > capacity) outranks shed.
  EXPECT_EQ(ComputeWindowedLevel(Pressure(24, 50, 30, 5)),
            DegradationLevel::kReclaim);
  // Below the batching fraction outranks everything.
  EXPECT_EQ(ComputeWindowedLevel(Pressure(9, 50, 30, 5)),
            DegradationLevel::kBatchingOnly);
}

TEST(WindowedLadderTest, DegradingStepsApplyImmediately) {
  WindowedLadderState state;  // kNormal, streak 0
  state = StepWindowedLadder(state, Pressure(9, 50, 30, 5));
  EXPECT_EQ(state.level, DegradationLevel::kBatchingOnly);
  EXPECT_EQ(state.below_streak, 0);
}

TEST(WindowedLadderTest, RecoveryNeedsConsecutiveCalmWindows) {
  WindowedLadderState state;
  state.level = DegradationLevel::kShedVcr;
  const WindowedPressure calm = Pressure(50, 50, 10, 0);  // raw = kNormal
  // One calm window: rung held, streak counts up.
  state = StepWindowedLadder(state, calm);
  EXPECT_EQ(state.level, DegradationLevel::kShedVcr);
  EXPECT_EQ(state.below_streak, 1);
  // Second calm window: the rung finally steps down, streak resets.
  state = StepWindowedLadder(state, calm);
  EXPECT_EQ(state.level, DegradationLevel::kNormal);
  EXPECT_EQ(state.below_streak, 0);
}

TEST(WindowedLadderTest, PressureSpikeMidRecoveryResetsTheStreak) {
  WindowedLadderState state;
  state.level = DegradationLevel::kShedVcr;
  state = StepWindowedLadder(state, Pressure(50, 50, 10, 0));
  EXPECT_EQ(state.below_streak, 1);
  // Raw pressure back at the held rung: the streak must restart from zero.
  state = StepWindowedLadder(state, Pressure(24, 50, 10, 0));
  EXPECT_EQ(state.level, DegradationLevel::kShedVcr);
  EXPECT_EQ(state.below_streak, 0);
  state = StepWindowedLadder(state, Pressure(50, 50, 10, 0));
  EXPECT_EQ(state.below_streak, 1);
  state = StepWindowedLadder(state, Pressure(50, 50, 10, 0));
  EXPECT_EQ(state.level, DegradationLevel::kNormal);
}

TEST(WindowedLadderTest, RecoveryDescendsOneRawLevelAtATime) {
  WindowedLadderState state;
  state.level = DegradationLevel::kReclaim;
  // Raw pressure at kQueueing: recovery lands there, not at kNormal.
  const WindowedPressure queued = Pressure(50, 50, 10, 3);
  state = StepWindowedLadder(state, queued);
  EXPECT_EQ(state.level, DegradationLevel::kReclaim);
  state = StepWindowedLadder(state, queued);
  EXPECT_EQ(state.level, DegradationLevel::kQueueing);
  EXPECT_EQ(state.below_streak, 0);
  state = StepWindowedLadder(state, queued);
  EXPECT_EQ(state.level, DegradationLevel::kQueueing);
}

}  // namespace
}  // namespace vod
