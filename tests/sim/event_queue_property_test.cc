// Property and regression tests for the slab/4-ary heap event-queue kernel.
//
//  * Randomized property test: the kernel is driven with a mixed
//    schedule/cancel/pop/RunUntil workload and compared against a naive
//    std::multimap reference keyed by (time, insertion sequence). Covers pop
//    order, Cancel semantics, stale-token safety while slots are being
//    reused, observer ticks, and every way a dispatching event can leave
//    the root it ran from: scheduling nothing, one event (at the current
//    timestamp, -0.0 included at t = 0) or several, and cancelling enough to
//    compact the heap mid-dispatch. Labeled "unit" so the asan/ubsan and
//    tsan CI legs execute it.
//  * Compaction regression: cancel-heavy bursts must not pin heap memory
//    (the lazy-deletion leak the compactor exists to prevent).

#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

namespace vod {
namespace {

// ---- randomized property test vs std::multimap ----------------------------

/// Deterministic 64-bit LCG so failures reproduce exactly.
class MixRng {
 public:
  explicit MixRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 11;
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Kernel under test plus a std::multimap reference keyed by (time,
/// schedule sequence) — the exact order the kernel promises. Every schedule,
/// whether from the test body or from a handler mid-run, goes through
/// Schedule() so both sides see the same sequence numbers; every execution
/// goes through OnExecute(), which pops the reference head as the expected
/// event.
struct MixHarness {
  /// Event identity: kHandlerA, kHandlerB or kClosure, and a unique id.
  enum Tag : uint64_t { kHandlerA, kHandlerB, kClosure };
  using Event = std::pair<uint64_t, uint64_t>;  ///< (tag, id)
  /// Offset for ids of event-spawned children (the k-th child of `id` is
  /// id + k * kChild), so the cascade stops.
  static constexpr uint64_t kChild = uint64_t{1} << 40;

  explicit MixHarness(uint64_t seed) : rng(seed) {
    for (uint64_t k = 0; k < 2; ++k) {
      kind[k] = q.AddHandler(
          k == 0 ? +[](void* c, uint64_t id) {
                     static_cast<MixHarness*>(c)->OnEvent(kHandlerA, id);
                   }
                 : +[](void* c, uint64_t id) {
                     static_cast<MixHarness*>(c)->OnEvent(kHandlerB, id);
                   },
          this);
    }
  }

  MixRng rng;  ///< drives the test body and the events' own choices
  EventQueue q;
  std::multimap<std::pair<double, uint64_t>, Event> pending;
  uint64_t next_seq = 0;
  uint64_t next_id = 0;
  uint64_t kind[2] = {0, 0};

  std::vector<Event> executed;  ///< from the kernel, in dispatch order
  std::vector<Event> expected;  ///< reference head at each dispatch
  std::vector<double> ticks;    ///< observer calls
  std::vector<double> expected_ticks;
  bool observing = false;

  /// Live events by token, and tokens whose event has run or was
  /// cancelled (fired at the kernel later, while slots are recycled).
  std::map<EventToken, std::pair<uint64_t, std::pair<double, uint64_t>>>
      live;
  std::map<uint64_t, EventToken> token_of;
  std::vector<EventToken> stale;

  /// What the events did while dispatching (the mix must cover each).
  int schedules_nothing = 0;
  int schedules_many = 0;
  int compactions_in_dispatch = 0;
  int negative_zero_schedules = 0;

  void Schedule(double t, uint64_t tag, uint64_t id) {
    EventToken tok;
    if (tag == kClosure) {
      tok = q.Schedule(t, [this, id] { OnEvent(kClosure, id); });
    } else {
      tok = q.ScheduleHandler(t, kind[tag], id);
    }
    const auto key = std::make_pair(t, next_seq++);
    pending.emplace(key, Event{tag, id});
    ASSERT_TRUE(live.emplace(tok, std::make_pair(id, key)).second)
        << "kernel issued a duplicate token for a live event";
    token_of[id] = tok;
  }

  void OnExecute(Event event) {
    executed.push_back(event);
    ASSERT_FALSE(pending.empty()) << "kernel ran an event the model lacks";
    const auto head = pending.begin();
    expected.push_back(head->second);
    if (observing) expected_ticks.push_back(head->first.first);
    ASSERT_DOUBLE_EQ(q.Now(), head->first.first);
    // Stop at the first event out of order, before the bookkeeping below
    // lets the kernel and the reference drift apart.
    ASSERT_EQ(event, head->second) << "kernel ran an event out of order";
    pending.erase(head);
    const EventToken tok = token_of.at(event.second);
    token_of.erase(event.second);
    live.erase(tok);
    stale.push_back(tok);
  }

  /// Cancels a random live event in the kernel and the reference; its token
  /// joins the stale ones.
  void CancelRandom() {
    if (live.empty()) return;
    auto it = live.begin();
    std::advance(it, static_cast<long>(rng.Below(live.size())));
    const EventToken tok = it->first;
    q.Cancel(tok);
    pending.erase(pending.find(it->second.second));
    token_of.erase(it->second.first);
    stale.push_back(tok);
    live.erase(it);
  }

  /// The current time, spelled -0.0 at t = 0: the kernel accepts it there
  /// and must order it as 0.0, by schedule sequence.
  double SameTime() {
    if (q.Now() != 0.0) return q.Now();
    ++negative_zero_schedules;
    return -0.0;
  }

  /// Every event runs this. An event with a parent id (below kChild) then
  /// leaves the root it ran from in one of several ways: it schedules
  /// nothing, one child at Now() (same kind, so it lands behind its parent,
  /// or the other kind), several children at or after Now(), or first
  /// cancels until the heap compacts under it and then schedules a child.
  void OnEvent(uint64_t tag, uint64_t id) {
    OnExecute({tag, id});
    if (id >= kChild || ::testing::Test::HasFatalFailure()) return;
    const uint64_t other = tag == kHandlerA ? kHandlerB : kHandlerA;
    const uint64_t dice = rng.Below(39);
    if (dice < 12) {
      ++schedules_nothing;
    } else if (dice < 22) {
      Schedule(SameTime(), tag, id + kChild);
    } else if (dice < 30) {
      Schedule(SameTime(), other, id + 2 * kChild);
    } else if (dice < 38) {
      ++schedules_many;
      const uint64_t n = 2 + rng.Below(3);
      for (uint64_t k = 1; k <= n; ++k) {
        const double t =
            rng.Below(2) == 0
                ? SameTime()
                : q.Now() + static_cast<double>(rng.Below(64)) / 16.0;
        Schedule(t, rng.Below(3), id + k * kChild);
      }
    } else {
      // Cancel until CompactHeap runs inside this dispatch (heap_nodes
      // shrinks), then reschedule into the compacted heap.
      size_t nodes = q.heap_nodes();
      while (!live.empty()) {
        CancelRandom();
        if (q.heap_nodes() < nodes) {
          ++compactions_in_dispatch;
          break;
        }
        nodes = q.heap_nodes();
      }
      Schedule(q.Now() + static_cast<double>(rng.Below(64)) / 16.0, tag,
               id + kChild);
    }
  }

  void SetObserving(bool on) {
    observing = on;
    if (on) {
      q.set_observer(
          [](void* c, double t) {
            static_cast<MixHarness*>(c)->ticks.push_back(t);
          },
          this);
    } else {
      q.set_observer(nullptr, nullptr);
    }
  }
};

TEST(EventQueuePropertyTest, MatchesMultimapReferenceUnderRandomMix) {
  for (const uint64_t seed : {1ULL, 42ULL, 20260806ULL}) {
    MixHarness h(seed);
    MixRng& rng = h.rng;

    // Events at t = 0 spelled +0.0 and -0.0 alike, ahead of the mix: they
    // must run in schedule order, before anything later.
    for (int i = 0; i < 8; ++i) {
      h.Schedule(i % 2 == 0 ? 0.0 : h.SameTime(), rng.Below(3), h.next_id++);
    }

    for (int op = 0; op < 20000; ++op) {
      const uint64_t dice = rng.Below(20);
      if (dice < 10) {  // 50%: schedule (handler A, handler B, or closure)
        // A coarse time grid makes equal-time ties common.
        const double t =
            h.q.Now() + static_cast<double>(rng.Below(1000)) / 16.0;
        h.Schedule(t, rng.Below(3), h.next_id++);
      } else if (dice < 14 && !h.live.empty()) {  // 20%: cancel a live event
        h.CancelRandom();
      } else if (dice < 16 && !h.stale.empty()) {  // 10%: stale cancel
        // Must be a no-op even though the token's slot may by now hold a
        // different live event.
        h.q.Cancel(h.stale[rng.Below(h.stale.size())]);
      } else if (dice < 18) {  // 10%: single step
        const bool expect_run = !h.pending.empty();
        ASSERT_EQ(h.q.RunNext(), expect_run) << "seed " << seed;
      } else if (dice < 19) {  // 5%: drain to a horizon
        const double horizon =
            h.q.Now() + static_cast<double>(rng.Below(64)) / 16.0;
        h.q.RunUntil(horizon);
        ASSERT_TRUE(h.pending.empty() ||
                    h.pending.begin()->first.first > horizon)
            << "RunUntil left an event at or before the horizon";
        ASSERT_EQ(h.q.Now(), horizon);
      } else {  // 5%: toggle the observer (observed vs unobserved loop)
        h.SetObserving(!h.observing);
      }
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_EQ(h.q.pending(), h.pending.size()) << "seed " << seed;
    }

    // Drain both and compare the complete execution history.
    h.q.RunUntil(1.0e18);
    EXPECT_TRUE(h.pending.empty());
    EXPECT_EQ(h.executed, h.expected) << "seed " << seed;
    EXPECT_EQ(h.ticks, h.expected_ticks) << "seed " << seed;
    // The mix must actually have exercised what it claims to.
    EXPECT_GT(h.expected_ticks.size(), 1000u);
    EXPECT_TRUE(std::any_of(h.executed.begin(), h.executed.end(),
                            [](const MixHarness::Event& e) {
                              return e.second >= 2 * MixHarness::kChild;
                            }));
    EXPECT_GT(h.schedules_nothing, 100) << "seed " << seed;
    EXPECT_GT(h.schedules_many, 100) << "seed " << seed;
    EXPECT_GT(h.compactions_in_dispatch, 20) << "seed " << seed;
    EXPECT_GT(h.negative_zero_schedules, 4) << "seed " << seed;
  }
}

TEST(EventQueuePropertyTest, StaleTokenNeverCancelsSlotReuser) {
  // Directed version of the reuse hazard: cancel A, let B recycle A's slab
  // slot, then replay A's token. Generation stamps must protect B.
  EventQueue q;
  int b_runs = 0;
  const EventToken a = q.Schedule(1.0, [] { FAIL() << "A was cancelled"; });
  q.Cancel(a);
  // The freed slot is head of the free list, so B reuses it immediately.
  const EventToken b = q.Schedule(2.0, [&b_runs] { ++b_runs; });
  EXPECT_EQ(static_cast<uint32_t>(a), static_cast<uint32_t>(b))
      << "test premise: B must recycle A's slot";
  q.Cancel(a);  // stale token, same slot, older generation
  while (q.RunNext()) {
  }
  EXPECT_EQ(b_runs, 1);
}

TEST(EventQueuePropertyTest, TokensRemainDistinctAcrossManyReuses) {
  // A slot reused N times must issue N distinct tokens, and only the newest
  // may cancel the current occupant.
  EventQueue q;
  std::vector<EventToken> history;
  for (int round = 0; round < 100; ++round) {
    const EventToken t = q.Schedule(1.0, [] { FAIL() << "cancelled"; });
    for (const EventToken old : history) EXPECT_NE(old, t);
    // Older tokens are all stale; none may touch the live event.
    for (const EventToken old : history) q.Cancel(old);
    EXPECT_EQ(q.pending(), 1u);
    q.Cancel(t);
    history.push_back(t);
  }
  EXPECT_EQ(q.pending(), 0u);
  int runs = 0;
  q.Schedule(1.0, [&runs] { ++runs; });
  while (q.RunNext()) {
  }
  EXPECT_EQ(runs, 1);
}

// ---- compaction / lazy-deletion leak regression ----------------------------

TEST(EventQueueCompactionTest, CancelHeavyBurstDoesNotPinHeapMemory) {
  // Before the compactor, each cancelled event left its heap key behind
  // until pop time; a mass-abandonment burst at a far-future timestamp
  // pinned O(cancelled) memory indefinitely. Now tombstones may never
  // exceed live keys (plus the small-heap threshold below which compaction
  // is pointless).
  EventQueue q;
  std::vector<EventToken> tokens;
  constexpr int kBurst = 100000;
  tokens.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    tokens.push_back(q.Schedule(1.0e6 + i, [] {}));
  }
  // Keep a handful alive so the heap cannot trivially empty.
  for (int i = 0; i < kBurst - 10; ++i) q.Cancel(tokens[i]);
  EXPECT_EQ(q.pending(), 10u);
  // Invariant maintained by Cancel: tombstones <= max(live, threshold).
  EXPECT_LE(q.heap_nodes(), 2u * q.pending() + 64u)
      << "cancelled keys are pinning heap memory";
}

TEST(EventQueueCompactionTest, RepeatedBurstsKeepSlabAndHeapBounded) {
  // Steady-state churn: every round schedules a wave and cancels most of
  // it. Slab and heap must stay proportional to the peak concurrent
  // population, not to cumulative throughput.
  EventQueue q;
  constexpr int kRounds = 50;
  constexpr int kWave = 1000;
  size_t max_concurrent = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<EventToken> wave;
    wave.reserve(kWave);
    const double base = q.Now() + 1.0;
    for (int i = 0; i < kWave; ++i) {
      wave.push_back(q.Schedule(base + i, [] {}));
    }
    max_concurrent = std::max(max_concurrent, q.pending());
    for (int i = 0; i < kWave; ++i) {
      if (i % 10 != 0) q.Cancel(wave[i]);
    }
    q.RunUntil(base + kWave);  // drain the survivors
  }
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.heap_nodes(), 0u);
  EXPECT_LE(q.slab_slots(), max_concurrent + 64)
      << "slab grew with throughput instead of peak population";
}

TEST(EventQueueCompactionTest, CompactionPreservesExecutionOrder) {
  // Force a compaction mid-stream and check the survivors still run in
  // (time, schedule order).
  EventQueue q;
  std::vector<int> order;
  std::vector<EventToken> victims;
  for (int i = 0; i < 1000; ++i) {
    const double t = static_cast<double>((i * 37) % 500) + 1.0;
    if (i % 5 == 0) {
      q.Schedule(t, [&order, i] { order.push_back(i); });
    } else {
      victims.push_back(q.Schedule(t, [] { FAIL() << "cancelled"; }));
    }
  }
  for (const EventToken t : victims) q.Cancel(t);  // 800 tombstones -> compact
  EXPECT_LE(q.heap_nodes(), 2u * q.pending() + 64u);
  while (q.RunNext()) {
  }
  ASSERT_EQ(order.size(), 200u);
  // Reference order: stable sort of the survivor ids by time (schedule
  // order breaks ties because i increases monotonically).
  std::vector<int> survivors;
  for (int i = 0; i < 1000; i += 5) survivors.push_back(i);
  std::stable_sort(survivors.begin(), survivors.end(), [](int a, int b) {
    return (a * 37) % 500 < (b * 37) % 500;
  });
  EXPECT_EQ(order, survivors);
}

}  // namespace
}  // namespace vod
