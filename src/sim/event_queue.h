// Discrete-event simulation kernel: a future-event list with cancellation
// and an execution observer (for runtime invariant auditing).
//
// Internals are built for throughput: event payloads live in a slab of
// generation-stamped 24-byte POD slots threaded by an intrusive free list,
// the ordering structure is a cache-friendly 4-ary implicit heap of 16-byte
// integer (time bits, token) keys, and steady-state events dispatch through
// a registered (kind, payload) handler table of raw function pointers so the
// hot path never allocates and never touches a std::function. An event's
// key stays at the heap root while it dispatches, so the first event it
// schedules replaces that key with one sift-down (the fused hold). Closures
// remain supported for one-off events (fault injection, tests); their
// std::function state lives in a side column touched only by that cold path.
// The run loop is a template instantiated with and without an observer, so
// an unobserved run carries no per-event observer branch (DESIGN.md §10,
// §15).

#ifndef VOD_SIM_EVENT_QUEUE_H_
#define VOD_SIM_EVENT_QUEUE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace vod {

/// Handle identifying a scheduled event (for cancellation). Packs the slab
/// slot index (low 32 bits) and the slot's generation stamp at schedule time
/// (high 32 bits); validation is a single generation compare.
using EventToken = uint64_t;

/// Sentinel for "no event scheduled"; Cancel(kNoEvent) is always a no-op.
/// (Decodes to an out-of-range slot with the never-issued generation.)
inline constexpr EventToken kNoEvent = ~EventToken{0};

/// \brief Future-event list ordered by (time, insertion sequence).
///
/// Insertion-sequence tiebreak makes simultaneous events run in schedule
/// order, which keeps runs deterministic. Cancellation is O(1): the slot is
/// tombstoned (generation bumped, payload freed for reuse) and its heap key
/// is discarded lazily at pop time — or eagerly, when tombstones come to
/// dominate the heap (see CompactHeap), so cancel-heavy bursts cannot pin
/// memory.
class EventQueue {
 public:
  /// A steady-state event handler: a function pointer plus an opaque
  /// context (typically a static member trampoline and the owning object),
  /// called as `fn(ctx, payload)` with the payload stamped at schedule
  /// time; the event time is Now(). Registered once, reused by every event
  /// of its kind — scheduling such events allocates nothing.
  using RawHandler = void (*)(void* ctx, uint64_t payload);

  /// Observer form; see set_observer.
  using RawObserver = void (*)(void* ctx, double time);

  /// Registers a handler and returns its kind id. Kinds are assigned
  /// sequentially from 0 in registration order. `fn(ctx, payload)` is
  /// called directly from the run loop with zero indirection beyond the
  /// table load.
  uint64_t AddHandler(RawHandler fn, void* ctx);

  /// Schedules the registered handler `kind` with `payload` at absolute time
  /// `time` (>= Now()). The fast path: no allocation.
  EventToken ScheduleHandler(double time, uint64_t kind, uint64_t payload);

  /// Schedules `action` at absolute time `time` (>= Now()). Returns a token
  /// usable with Cancel.
  EventToken Schedule(double time, std::function<void()> action);

  /// Pre-sizes the heap and slab for about `events` concurrently pending
  /// events, so a run that stays under the estimate never grows kernel
  /// storage mid-simulation. Purely an optimization hint.
  void Reserve(size_t events) {
    heap_.reserve(events);
    slots_.reserve(events);
  }

  /// Cancels a scheduled event. Cancelling an already-run, already-cancelled,
  /// or unknown token (including kNoEvent) is a safe no-op.
  void Cancel(EventToken token);

  /// Runs the earliest pending event, advancing Now(). Returns false when
  /// the queue is empty.
  bool RunNext();

  /// Runs events until the queue empties or the next event is after
  /// `horizon`; Now() ends at min(horizon, last event time). Events at
  /// exactly `horizon` are executed. Dispatches to the observed or the
  /// unobserved loop instantiation, selected once per call.
  void RunUntil(double horizon);

  /// Current simulation time (time of the last executed event).
  double Now() const { return now_; }

  size_t pending() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// Total events executed by RunNext (cancelled pops excluded).
  uint64_t executed() const { return executed_; }

  /// Heap keys currently held, live + tombstoned (diagnostics; the
  /// compaction regression test bounds this against pending()). The spent
  /// key of the event being dispatched is not counted.
  size_t heap_nodes() const { return heap_.size() - root_spent_; }

  /// Slab slots allocated so far (diagnostics; bounded by the peak number
  /// of concurrently pending events, not by throughput).
  size_t slab_slots() const { return slots_.size(); }

  /// Installs an observer, called as `fn(ctx, time)` after each executed
  /// event (state is settled when it fires — the auditor's hook point).
  /// Pass fn == nullptr to remove. The observer must not mutate the queue
  /// beyond scheduling/cancelling (no nested RunNext).
  void set_observer(RawObserver fn, void* ctx);

 private:
  /// Generation value of free slots; never issued to a live event, so a
  /// token or heap key can never match a freed slot.
  static constexpr uint32_t kFreeGen = 0xFFFFFFFFu;
  /// Kind value marking a closure event. Note bit 63 is set: kUntagged
  /// naturally carries kHasActionBit.
  static constexpr uint64_t kUntagged = ~uint64_t{0};
  /// Bit 63 of Slot::kind marks "this slot has a closure in actions_".
  /// Handler kinds are small sequential ids, so the top bit is free; keeping
  /// the marker inside the kind word means the hot loop classifies an event
  /// with one load and one mask.
  static constexpr uint64_t kHasActionBit = uint64_t{1} << 63;
  /// Free-list terminator.
  static constexpr uint32_t kNilSlot = 0xFFFFFFFFu;

  /// One slab slot: 24-byte POD. The event's payload stays put here while
  /// the heap shuffles only 16-byte keys. `gen` is stamped from a global
  /// counter at schedule time and reset to kFreeGen on free, so liveness of
  /// a heap key or token is a single compare. Closure state lives in the
  /// actions_ side column (indexed by slot), touched only when kind carries
  /// kHasActionBit — the steady-state path never constructs, moves, or
  /// destroys a std::function.
  struct Slot {
    uint64_t kind = kUntagged;  ///< handler index; bit 63 = has action
    uint64_t payload = 0;
    uint32_t gen = kFreeGen;
    uint32_t next_free = kNilSlot;
  };

  /// 16-byte heap key of two integers. `time` is the event time's bit
  /// pattern: times are >= +0.0 (TimeBits folds -0.0 into +0.0) and never
  /// NaN, and such doubles order exactly as their bits do as unsigned
  /// integers. `token` is the event's EventToken, gen << 32 | slot; the
  /// generation doubles as the determinism tiebreak: it is issued by a
  /// monotone counter per Schedule call, so (time, token) order equals
  /// (time, insertion sequence) order. (The u32 counter wraps after 2^32
  /// schedules; simultaneous events 4e9 schedules apart cannot occur in
  /// these workloads, and a token would have to survive that long while its
  /// slot is reused to alias — live tokens never do.)
  struct HeapKey {
    uint64_t time;
    EventToken token;
  };

  /// The heap-key bits of a schedule time (>= Now(), so >= -0.0). Adding
  /// +0.0 maps -0.0 to +0.0 and leaves every other value alone; without it
  /// an event at -0.0 would order after every positive time.
  static uint64_t TimeBits(double time) {
    return std::bit_cast<uint64_t>(time + 0.0);
  }
  static double TimeOf(const HeapKey& key) {
    return std::bit_cast<double>(key.time);
  }
  static uint32_t SlotOf(const HeapKey& key) {
    return static_cast<uint32_t>(key.token);
  }
  static uint32_t GenOf(const HeapKey& key) {
    return static_cast<uint32_t>(key.token >> 32);
  }

  /// Textbook 4-ary implicit heap layout: children(i) = 4i+1 .. 4i+4.
  static std::size_t HeapChild(std::size_t i) { return 4 * i + 1; }
  static std::size_t HeapParent(std::size_t i) { return (i - 1) / 4; }

  /// Raw handler record: one direct call, no virtual, no std::function.
  struct HandlerRec {
    RawHandler fn = nullptr;
    void* ctx = nullptr;
  };

  /// True when `a` must run before `b`: two unsigned integer compares
  /// joined with bitwise ops, which lower to setcc code with no jumps.
  /// SiftDown's min-of-4 tournament runs this on effectively random keys,
  /// where a branch mispredicts about half the time. (A double time
  /// compare does not lower this way: ucomisd's unordered case kept a
  /// jne/ja in the tournament's final select.)
  static bool RunsBefore(const HeapKey& a, const HeapKey& b) {
    return (a.time < b.time) | ((a.time == b.time) & (a.token < b.token));
  }

  /// Whether `key` still names a pending event (not a tombstone, not the
  /// spent key of the event being dispatched).
  bool IsLive(const HeapKey& key) const {
    return slots_[SlotOf(key)].gen == GenOf(key);
  }

  uint32_t AllocSlot();
  void FreeSlot(uint32_t slot);
  /// Pushes a new key; while the root is spent, the key replaces it
  /// instead (the fused hold).
  void PushKey(HeapKey key);
  /// Bottom-up O(n) heapify: one descending SiftDown pass over the
  /// internal nodes.
  void HeapifyAll();
  void PopRoot();
  /// Pops the dispatched event's key if its handler scheduled nothing.
  void SettleRoot() {
    if (root_spent_) {
      root_spent_ = false;
      PopRoot();
    }
  }
  void SiftUp(size_t i);
  /// Moves the hole at `i` down to where `key` belongs and writes it there.
  void SiftDown(size_t i, HeapKey key);
  /// Drops every tombstoned key (and a spent root) and re-heapifies in
  /// O(n). Called from Cancel when tombstones exceed the live keys, so a
  /// cancel-heavy burst (mass abandonment) cannot pin heap memory until pop
  /// time.
  void CompactHeap();
  /// Executes the live head key (caller validated liveness). Advances the
  /// clock, dispatches, settles the root and fires the observer. Shared by
  /// RunNext and the closure path of the run loop.
  void ExecuteHead(const HeapKey& head);

  /// The specialized hot loop. kObserved bakes the observer call in or out;
  /// RunUntil picks one of the two instantiations per call.
  template <bool kObserved>
  void RunLoop(double horizon);

  std::vector<HeapKey> heap_;  ///< 4-ary implicit min-heap (layout above)
  /// True while an event dispatches and heap_[0] still holds its key, whose
  /// slot is already freed. The event's first schedule overwrites that key
  /// and clears the mark; SettleRoot pops it if none came, and CompactHeap
  /// drops it with the tombstones.
  bool root_spent_ = false;
  std::vector<Slot> slots_;    ///< POD payload slab, indexed by SlotOf(key)
  /// Side column for closure events, indexed by slot. Sized lazily: a run
  /// that never schedules a closure never allocates it.
  std::vector<std::function<void()>> actions_;
  uint32_t free_head_ = kNilSlot;
  uint32_t next_gen_ = 0;   ///< monotone generation/sequence counter
  size_t live_ = 0;         ///< scheduled, not yet run or cancelled
  size_t tombstones_ = 0;   ///< cancelled keys still in heap_
  double now_ = 0.0;
  uint64_t executed_ = 0;
  std::vector<HandlerRec> handlers_;
  RawObserver observer_fn_ = nullptr;
  void* observer_ctx_ = nullptr;
};

}  // namespace vod

#endif  // VOD_SIM_EVENT_QUEUE_H_
