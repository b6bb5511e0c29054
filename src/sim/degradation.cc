#include "sim/degradation.h"

#include <algorithm>

#include "common/check.h"

namespace vod {

const char* DegradationLevelName(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kNormal:
      return "normal";
    case DegradationLevel::kQueueing:
      return "queueing";
    case DegradationLevel::kShedVcr:
      return "shed-vcr";
    case DegradationLevel::kReclaim:
      return "reclaim";
    case DegradationLevel::kBatchingOnly:
      return "batching-only";
  }
  return "unknown";
}

Status DegradationPolicy::Validate() const {
  if (queue_deadline_minutes < 0.0) {
    return Status::InvalidArgument("queue deadline must be non-negative");
  }
  return Status::OK();
}

DegradationLevel ComputeWindowedLevel(const WindowedPressure& pressure) {
  const double nominal = pressure.nominal_capacity > 0
                             ? static_cast<double>(pressure.nominal_capacity)
                             : 1.0;
  const double fraction = static_cast<double>(pressure.capacity) / nominal;
  if (fraction < kLadderBatchingBelowFraction) {
    return DegradationLevel::kBatchingOnly;
  }
  if (pressure.sum_held > pressure.capacity) return DegradationLevel::kReclaim;
  if (fraction < kLadderShedBelowFraction) return DegradationLevel::kShedVcr;
  if (pressure.sum_queued > 0) return DegradationLevel::kQueueing;
  return DegradationLevel::kNormal;
}

WindowedLadderState StepWindowedLadder(const WindowedLadderState& state,
                                       const WindowedPressure& pressure) {
  const DegradationLevel raw = ComputeWindowedLevel(pressure);
  WindowedLadderState next = state;
  if (raw > state.level) {
    next.level = raw;
    next.below_streak = 0;
  } else if (raw < state.level) {
    next.below_streak = state.below_streak + 1;
    if (next.below_streak >= kLadderRecoverWindows) {
      next.level = raw;
      next.below_streak = 0;
    }
  } else {
    next.below_streak = 0;
  }
  return next;
}

void LadderHistory::Record(double t, DegradationLevel from,
                           DegradationLevel to, int64_t capacity) {
  if (transitions.size() < kMaxStoredTransitions) {
    transitions.push_back({t, from, to, capacity});
  }
  ++total_transitions;
  if (from == DegradationLevel::kNormal) {
    excursion_start = t;
  } else if (to == DegradationLevel::kNormal) {
    recovery_times.Add(t - excursion_start);
  }
}

void VcrWaitQueue::ArmVcrQueue(const DegradationPolicy& policy,
                               EventQueue* events, double measurement_start) {
  VOD_CHECK(events != nullptr);
  policy_ = policy;
  events_ = events;
  measurement_start_ = measurement_start;
}

int64_t VcrWaitQueue::measured_queue_pending() const {
  int64_t n = 0;
  for (const Waiter& w : waiting_) {
    if (InMeasurement(w.enqueued)) ++n;
  }
  return n;
}

void VcrWaitQueue::EnqueueVcr(double t,
                              std::function<void(double, bool)> on_decision) {
  Waiter waiter;
  waiter.id = next_waiter_id_++;
  waiter.enqueued = t;
  waiter.deadline = t + policy_.queue_deadline_minutes;
  waiter.backoff = kLadderBackoffInitialMinutes;
  waiter.on_decision = std::move(on_decision);
  const uint64_t id = waiter.id;
  waiter.deadline_token = events_->Schedule(
      waiter.deadline, [this, id] { OnDeadline(events_->Now(), id); });
  const double first_retry = std::min(t + waiter.backoff, waiter.deadline);
  if (first_retry < waiter.deadline) {
    waiter.retry_token = events_->Schedule(
        first_retry, [this, id] { OnRetry(events_->Now(), id); });
  }
  waiting_.push_back(std::move(waiter));
  if (InMeasurement(t)) ++queued_;
  OnQueueChanged(t);
}

std::deque<VcrWaitQueue::Waiter>::iterator VcrWaitQueue::FindWaiter(
    uint64_t waiter_id) {
  return std::find_if(
      waiting_.begin(), waiting_.end(),
      [waiter_id](const Waiter& w) { return w.id == waiter_id; });
}

void VcrWaitQueue::DrainVcrQueue(double t) {
  // FIFO: any re-offer opportunity serves the longest-waiting request
  // first, regardless of whose retry timer fired.
  while (!waiting_.empty() && MayGrantQueued()) {
    Waiter waiter = std::move(waiting_.front());
    waiting_.pop_front();
    events_->Cancel(waiter.deadline_token);
    events_->Cancel(waiter.retry_token);
    GrantQueued(t);
    if (InMeasurement(waiter.enqueued)) {
      ++grants_;
      wait_.Add(t - waiter.enqueued);
      wait_quantiles_.Add(t - waiter.enqueued);
    }
    OnQueueChanged(t);
    waiter.on_decision(t, true);
  }
}

void VcrWaitQueue::OnRetry(double t, uint64_t waiter_id) {
  auto it = FindWaiter(waiter_id);
  if (it == waiting_.end()) return;  // already granted or expired
  DrainVcrQueue(t);
  it = FindWaiter(waiter_id);
  if (it == waiting_.end()) return;  // granted by the drain above
  it->backoff *= kLadderBackoffFactor;
  const double next_retry = t + it->backoff;
  if (next_retry < it->deadline) {
    it->retry_token = events_->Schedule(
        next_retry, [this, waiter_id] { OnRetry(events_->Now(), waiter_id); });
  } else {
    it->retry_token = kNoEvent;  // the deadline event resolves this waiter
  }
}

void VcrWaitQueue::OnDeadline(double t, uint64_t waiter_id) {
  auto it = FindWaiter(waiter_id);
  if (it == waiting_.end()) return;
  Waiter waiter = std::move(*it);
  waiting_.erase(it);
  events_->Cancel(waiter.retry_token);
  if (InMeasurement(waiter.enqueued)) ++expirations_;
  OnQueueChanged(t);
  waiter.on_decision(t, false);
}

ReserveManager::ReserveManager(int64_t nominal_capacity,
                               const DegradationPolicy& policy,
                               EventQueue* queue, double measurement_start)
    : nominal_capacity_(nominal_capacity),
      capacity_(nominal_capacity),
      normal_at_full_capacity_(
          !policy.enabled &&
          ComputeWindowedLevel({nominal_capacity, nominal_capacity, 0, 0}) ==
              DegradationLevel::kNormal),
      min_capacity_seen_(nominal_capacity) {
  VOD_CHECK_MSG(nominal_capacity >= 0, "reserve must be non-negative");
  ArmVcrQueue(policy, queue, measurement_start);
  usage_.Reset(0.0, 0.0);
}

DegradationLevel ReserveManager::ComputeLevel() const {
  return ComputeWindowedLevel(
      {capacity_, nominal_capacity_, in_use_, queue_length()});
}

void ReserveManager::UpdateLevel(double t) {
  if (normal_at_full_capacity_ && capacity_ == nominal_capacity_ &&
      level_ == DegradationLevel::kNormal) {
    return;
  }
  const DegradationLevel next = ComputeLevel();
  if (next != level_) {
    history_.time_in_level[static_cast<int>(level_)] += t - level_since_;
    level_since_ = t;
    history_.Record(t, level_, next, capacity_);
    if (ObsEnabled(event_log_, EventCategory::kDegradation)) {
      event_log_->Emit(t, EventCategory::kDegradation,
                       static_cast<uint8_t>(next), /*movie=*/-1, /*id=*/-1,
                       static_cast<double>(capacity_),
                       static_cast<uint8_t>(level_));
    }
    level_ = next;
  }
  // Entry actions: forcibly reclaim dedicated streams when the ladder says
  // so. Guarded so the releases triggered by the reclaim (which re-enter
  // UpdateLevel) cannot recurse into another reclaim.
  if (policy().enabled && reclaim_hook_ && !reclaiming_) {
    int64_t need = 0;
    if (level_ == DegradationLevel::kBatchingOnly) {
      need = in_use_;  // shed everything: pure batching until repairs land
    } else if (level_ == DegradationLevel::kReclaim) {
      need = oversubscription();
    }
    if (need > 0) {
      reclaiming_ = true;
      const int64_t got = reclaim_hook_(t, need);
      reclaiming_ = false;
      if (InMeasurement(t)) forced_reclaims_ += got;
      // The releases above already re-ran UpdateLevel (with entry actions
      // suppressed); recompute once more so level_ reflects the new state.
      // Only when the hook made progress, though: every eligible victim
      // may already be reclaimed (the remaining holders frozen mid-VCR-op,
      // or the deficit held by the reallocation controller's ledger rather
      // than by any viewer), and recursing on got == 0 would loop forever
      // at one timestamp. The deficit then clears through the normal
      // release/repair path, each of which re-enters UpdateLevel.
      if (got > 0) UpdateLevel(t);
    }
  }
}

void ReserveManager::GrantStream(double t) {
  ++in_use_;
  ++acquired_;
  peak_ = std::max(peak_, in_use_);
  usage_.Set(t, static_cast<double>(in_use_));
}

bool ReserveManager::TryAcquire(double t) {
  // With the policy on, a deeply degraded ladder closes admission even if a
  // few units are free — that is the declared shedding order.
  if ((policy().enabled && ComputeLevel() >= DegradationLevel::kShedVcr) ||
      in_use_ >= capacity_) {
    ++refused_;
    return false;
  }
  GrantStream(t);
  UpdateLevel(t);
  return true;
}

void ReserveManager::Release(double t) {
  VOD_CHECK_MSG(in_use_ > 0, "reserve release without acquire");
  --in_use_;
  usage_.Set(t, static_cast<double>(in_use_));
  UpdateLevel(t);
}

bool ReserveManager::TryQueueAcquire(
    double t, std::function<void(double, bool)> on_decision) {
  if (!policy().enabled || policy().queue_deadline_minutes <= 0.0 ||
      ComputeLevel() >= DegradationLevel::kShedVcr) {
    DenyVcr(t);
    return false;
  }
  EnqueueVcr(t, std::move(on_decision));
  return true;
}

void ReserveManager::SetCapacity(double t, int64_t capacity) {
  VOD_CHECK_MSG(capacity >= 0, "capacity must be non-negative");
  const int64_t previous = capacity_;
  capacity_ = capacity;
  min_capacity_seen_ = std::min(min_capacity_seen_, capacity_);
  max_oversubscription_ = std::max(max_oversubscription_, oversubscription());
  UpdateLevel(t);
  if (policy().enabled && capacity_ > previous) DrainVcrQueue(t);
}

void ReserveManager::Finalize(double t) {
  history_.time_in_level[static_cast<int>(level_)] += t - level_since_;
  level_since_ = t;
}

}  // namespace vod
