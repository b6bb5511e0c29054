#include "sim/event_queue.h"

#include "common/check.h"

namespace vod {

uint64_t EventQueue::AddHandler(RawHandler fn, void* ctx) {
  VOD_CHECK_MSG(fn != nullptr, "event handler must be callable");
  handlers_.push_back(HandlerRec{fn, ctx});
  return handlers_.size() - 1;
}

void EventQueue::set_observer(RawObserver fn, void* ctx) {
  observer_fn_ = fn;
  observer_ctx_ = fn != nullptr ? ctx : nullptr;
}

uint32_t EventQueue::AllocSlot() {
  if (free_head_ != kNilSlot) {
    const uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  VOD_CHECK_MSG(slots_.size() < kNilSlot, "event slab exhausted");
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventQueue::FreeSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.kind & kHasActionBit) {
    actions_[slot] = nullptr;  // release any captured state promptly
  }
  s.gen = kFreeGen;
  s.next_free = free_head_;
  free_head_ = slot;
}

EventToken EventQueue::ScheduleHandler(double time, uint64_t kind,
                                       uint64_t payload) {
  VOD_CHECK_MSG(kind < handlers_.size(), "unregistered event handler kind");
  VOD_CHECK_MSG(time >= now_, "cannot schedule an event in the past");
  // Steady-state fast path: identical to Schedule minus the action — the
  // side action column is never touched, so this never constructs, moves,
  // or destroys a std::function.
  if (next_gen_ == kFreeGen) next_gen_ = 0;  // skip the free sentinel on wrap
  const uint32_t gen = next_gen_++;
  const uint32_t slot = AllocSlot();
  Slot& s = slots_[slot];
  s.gen = gen;
  s.kind = kind;
  s.payload = payload;
  const EventToken token = (static_cast<uint64_t>(gen) << 32) | slot;
  PushKey(HeapKey{TimeBits(time), token});
  ++live_;
  return token;
}

EventToken EventQueue::Schedule(double time, std::function<void()> action) {
  VOD_CHECK_MSG(time >= now_, "cannot schedule an event in the past");
  if (next_gen_ == kFreeGen) next_gen_ = 0;
  const uint32_t gen = next_gen_++;
  const uint32_t slot = AllocSlot();
  Slot& s = slots_[slot];
  s.gen = gen;
  s.kind = kUntagged;  // all-ones, so it carries kHasActionBit
  s.payload = 0;
  if (actions_.size() <= slot) actions_.resize(slots_.size());  // cold path
  actions_[slot] = std::move(action);
  const EventToken token = (static_cast<uint64_t>(gen) << 32) | slot;
  PushKey(HeapKey{TimeBits(time), token});
  ++live_;
  return token;
}

void EventQueue::Cancel(EventToken token) {
  const uint32_t slot = static_cast<uint32_t>(token);
  const uint32_t gen = static_cast<uint32_t>(token >> 32);
  // kNoEvent, stale, and malformed tokens all fail one of these compares;
  // gen == kFreeGen can never belong to a live event.
  if (gen == kFreeGen || slot >= slots_.size() || slots_[slot].gen != gen) {
    return;
  }
  FreeSlot(slot);
  --live_;
  ++tombstones_;
  // Lazy deletion must not pin memory after a cancel-heavy burst: once
  // tombstones dominate, drop them all and re-heapify in O(n).
  const size_t keys = heap_nodes();
  if (tombstones_ > keys / 2 && keys > 64) CompactHeap();
}

void EventQueue::HeapifyAll() {
  if (heap_.size() <= 1) return;
  for (size_t i = HeapParent(heap_.size() - 1) + 1; i-- > 0;) {
    SiftDown(i, heap_[i]);
  }
}

void EventQueue::PushKey(HeapKey key) {
  if (root_spent_) {
    // Fused hold: the dispatching event's key is still at the root. The
    // new key takes its place in one sift-down, where a pop and a push
    // would sift the heap's last key down and this one up.
    root_spent_ = false;
    SiftDown(0, key);
    return;
  }
  heap_.push_back(key);
  SiftUp(heap_.size() - 1);
}

void EventQueue::PopRoot() {
  const HeapKey last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0, last);
}

void EventQueue::SiftUp(size_t i) {
  const HeapKey key = heap_[i];
  while (i > 0) {
    const size_t parent = HeapParent(i);
    if (!RunsBefore(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void EventQueue::SiftDown(size_t i, HeapKey key) {
  const size_t n = heap_.size();
  for (;;) {
    const size_t first = HeapChild(i);
    if (first + 4 <= n) {
      // Full group of four: tournament min with branch-free comparisons
      // and index arithmetic, so the only data-dependent branch per level
      // is the loop exit (the Release object code has no other jump here).
      // The naive scan's selection branches mispredict ~50% on random keys
      // and dominated the pop cost.
      const HeapKey* g = &heap_[first];
      const size_t b01 = first + static_cast<size_t>(RunsBefore(g[1], g[0]));
      const size_t b23 =
          first + 2 + static_cast<size_t>(RunsBefore(g[3], g[2]));
      // The final select is index arithmetic too: written as `?:`, GCC
      // turns the compare back into a branch.
      const size_t best =
          b01 + (b23 - b01) * static_cast<size_t>(
                                  RunsBefore(heap_[b23], heap_[b01]));
      if (!RunsBefore(heap_[best], key)) break;
      heap_[i] = heap_[best];
      i = best;
      continue;
    }
    if (first >= n) break;
    // Partial trailing group (its members are leaves; one more level ends
    // the walk).
    size_t best = first;
    for (size_t c = first + 1; c < n; ++c) {
      if (RunsBefore(heap_[c], heap_[best])) best = c;
    }
    if (!RunsBefore(heap_[best], key)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = key;
}

void EventQueue::CompactHeap() {
  // In-place: slide the live keys down over the tombstones, truncate, and
  // heapify bottom-up. No allocation — Cancel calls this from inside
  // cancel-heavy bursts, where a scratch vector per compaction measurably
  // drags the whole mix.
  size_t write = 0;
  for (const HeapKey& key : heap_) {
    if (!IsLive(key)) continue;  // a tombstone or the spent root
    heap_[write++] = key;
  }
  heap_.resize(write);
  tombstones_ = 0;
  root_spent_ = false;
  HeapifyAll();
}

void EventQueue::ExecuteHead(const HeapKey& head) {
  const uint32_t slot = SlotOf(head);
  Slot& s = slots_[slot];
  const uint64_t kind = s.kind;
  const uint64_t payload = s.payload;
  std::function<void()> action;
  if (kind & kHasActionBit) action = std::move(actions_[slot]);
  FreeSlot(slot);  // before dispatch: the action may reuse the slot
  --live_;
  now_ = TimeOf(head);
  root_spent_ = true;  // the key stays at the root for a reschedule
  if (kind & kHasActionBit) {
    action();
  } else {
    const HandlerRec h = handlers_[kind];
    h.fn(h.ctx, payload);
  }
  SettleRoot();
  ++executed_;
  if (observer_fn_ != nullptr) observer_fn_(observer_ctx_, now_);
}

bool EventQueue::RunNext() {
  SettleRoot();  // nested in a handler: that event's key is spent
  while (!heap_.empty()) {
    const HeapKey head = heap_.front();
    if (!IsLive(head)) {  // tombstone: discard lazily
      PopRoot();
      --tombstones_;
      continue;
    }
    ExecuteHead(head);
    return true;
  }
  return false;
}

template <bool kObserved>
void EventQueue::RunLoop(double horizon) {
  while (!heap_.empty()) {
    const HeapKey head = heap_.front();
    const uint32_t slot = SlotOf(head);
    Slot& s = slots_[slot];
    if (s.gen != GenOf(head)) {  // tombstone: discard lazily
      PopRoot();
      --tombstones_;
      continue;
    }
    if (TimeOf(head) > horizon) break;
    const uint64_t kind = s.kind;
    if (kind & kHasActionBit) {
      // Closure event (faults, timers, tests): cold path; ExecuteHead fires
      // the observer itself.
      ExecuteHead(head);
      continue;
    }
    // Handler dispatch, inlined (no action column, no std::function). The
    // key stays at the root, spent, until the handler's first schedule
    // replaces it or SettleRoot pops it.
    const uint64_t payload = s.payload;
    s.gen = kFreeGen;
    s.next_free = free_head_;
    free_head_ = slot;
    --live_;
    now_ = TimeOf(head);
    root_spent_ = true;
    const HandlerRec h = handlers_[kind];
    h.fn(h.ctx, payload);
    SettleRoot();
    ++executed_;
    if constexpr (kObserved) observer_fn_(observer_ctx_, now_);
  }
  if (now_ < horizon) now_ = horizon;
}

void EventQueue::RunUntil(double horizon) {
  SettleRoot();  // nested in a handler: that event's key is spent
  if (observer_fn_ != nullptr) {
    RunLoop<true>(horizon);
  } else {
    RunLoop<false>(horizon);
  }
}

}  // namespace vod
