#include "sim/audit.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace vod {

namespace {
// Slack for divisible (double) buffer accounting; stream counts are exact.
constexpr double kBufferEps = 1e-9;
}  // namespace

AuditSnapshot::MovieBuffers BuildMovieAuditBuffers(
    const std::string& name, const PartitionLayout& layout) {
  AuditSnapshot::MovieBuffers buffers;
  buffers.name = name;
  buffers.budget = layout.buffer_minutes();
  buffers.partitions.reserve(static_cast<size_t>(layout.streams()));
  for (int k = 0; k < layout.streams(); ++k) {
    buffers.partitions.push_back(
        {k * layout.restart_period(), layout.window()});
  }
  return buffers;
}

Status AuditOptions::Validate() const {
  if (every_events < 1) {
    return Status::InvalidArgument("audit.every_events must be >= 1, got " +
                                   std::to_string(every_events));
  }
  if (trace_tail < 0) {
    return Status::InvalidArgument("audit.trace_tail must be >= 0");
  }
  return Status::OK();
}

InvariantAuditor::InvariantAuditor(const AuditOptions& options)
    : options_(options),
      recent_(static_cast<size_t>(std::max(options.trace_tail, 0))) {}

void InvariantAuditor::RecordEvent(double t) {
  ++events_seen_;
  ++events_since_audit_;
  if (options_.trace_tail <= 0) return;
  TraceEvent event;
  event.time = t;
  event.category = EventCategory::kTick;
  event.seq = static_cast<uint64_t>(events_seen_);
  recent_.Append(event);
}

void InvariantAuditor::AddViolation(double t, const char* invariant,
                                    std::string detail) {
  ++total_violations_;
  if (static_cast<int64_t>(violations_.size()) < kMaxRecorded) {
    AuditViolation v;
    v.time = t;
    v.event_index = static_cast<uint64_t>(events_seen_);
    v.invariant = invariant;
    v.detail = std::move(detail);
    violations_.push_back(std::move(v));
  }
}

std::string InvariantAuditor::TraceTail() const {
  if (recent_.empty()) return "(no event trace)";
  std::ostringstream os;
  os << "last " << recent_.size() << " events:";
  for (const TraceEvent& event : recent_.Snapshot()) {
    os << " #" << event.seq << "@t=" << event.time;
    // Rich records (the ring doubles as an EventLog sink when tracing is on)
    // carry their category so the diagnostic shows *what* happened, not just
    // when.
    if (event.category != EventCategory::kTick) {
      os << '[' << EventCategoryName(event.category) << ']';
    }
  }
  return os.str();
}

void InvariantAuditor::Audit(const AuditSnapshot& s) {
  events_since_audit_ = 0;
  ++audits_run_;
  AuditStreams(s);
  AuditPartitions(s);
  AuditControllerLedger(s);
  AuditShardLedgers(s);
  AuditLadder(s);
}

// Stream counters: supplier against world holds, and the capacity bounds.
void InvariantAuditor::AuditStreams(const AuditSnapshot& s) {
  const double t = s.time;
  if (s.supplier_in_use < 0 || s.sum_world_holds < 0) {
    AddViolation(t, "negative-streams",
                 "supplier in_use=" + std::to_string(s.supplier_in_use) +
                     ", world holds=" + std::to_string(s.sum_world_holds) +
                     " (a stream was released twice)");
  }
  if (s.supplier_in_use != s.sum_world_holds) {
    AddViolation(
        t, "stream-conservation",
        "supplier believes " + std::to_string(s.supplier_in_use) +
            " streams are out, the movie worlds hold " +
            std::to_string(s.sum_world_holds) +
            " (a stream was leaked or double-held)");
  }
  if (s.supplier_capacity >= 0) {
    if (s.nominal_capacity >= 0 && s.supplier_capacity > s.nominal_capacity) {
      AddViolation(t, "capacity-exceeds-nominal",
                   "capacity " + std::to_string(s.supplier_capacity) +
                       " exceeds nominal " +
                       std::to_string(s.nominal_capacity));
    }
    const bool fault_shrunk = s.nominal_capacity >= 0 &&
                              s.supplier_capacity < s.nominal_capacity;
    if (s.supplier_in_use > s.supplier_capacity && !fault_shrunk) {
      AddViolation(
          t, "capacity-bound",
          std::to_string(s.supplier_in_use) + " streams in use exceed " +
              "capacity " + std::to_string(s.supplier_capacity) +
              " with no outstanding capacity loss to explain it");
    }
  }
}

// Buffer partitions: each movie's windows fit budget B and never overlap.
void InvariantAuditor::AuditPartitions(const AuditSnapshot& s) {
  const double t = s.time;
  for (const auto& movie : s.movies) {
    double total = 0.0;
    for (const AuditPartition& p : movie.partitions) {
      if (p.size < -kBufferEps) {
        AddViolation(t, "partition-budget",
                     "movie '" + movie.name + "' has a negative partition (" +
                         std::to_string(p.size) + " min)");
      }
      total += p.size;
    }
    if (total > movie.budget + kBufferEps) {
      AddViolation(t, "partition-budget",
                   "movie '" + movie.name + "' partitions sum to " +
                       std::to_string(total) + " min, budget B = " +
                       std::to_string(movie.budget));
    }
    std::vector<AuditPartition> sorted = movie.partitions;
    std::sort(sorted.begin(), sorted.end(),
              [](const AuditPartition& a, const AuditPartition& b) {
                return a.start < b.start;
              });
    for (size_t i = 1; i < sorted.size(); ++i) {
      const double prev_end = sorted[i - 1].start + sorted[i - 1].size;
      if (sorted[i].start < prev_end - kBufferEps) {
        AddViolation(
            t, "partition-overlap",
            "movie '" + movie.name + "' partitions overlap: [" +
                std::to_string(sorted[i - 1].start) + ", " +
                std::to_string(prev_end) + ") and [" +
                std::to_string(sorted[i].start) + ", " +
                std::to_string(sorted[i].start + sorted[i].size) + ")");
      }
    }
  }
}

// Controller resource ledger: conservation, no double grant, epoch order.
void InvariantAuditor::AuditControllerLedger(const AuditSnapshot& s) {
  const double t = s.time;
  if (!s.controller.enabled) return;
  const auto& c = s.controller;
  const int64_t stream_sum =
      c.sum_live_streams + c.free_streams + c.inflight_streams;
  if (stream_sum != c.stream_budget) {
    AddViolation(t, "ctrl-stream-conservation",
                 "live " + std::to_string(c.sum_live_streams) + " + free " +
                     std::to_string(c.free_streams) + " + in-flight " +
                     std::to_string(c.inflight_streams) + " = " +
                     std::to_string(stream_sum) + " streams, budget is " +
                     std::to_string(c.stream_budget) +
                     " (a migration leaked or double-granted a stream)");
  }
  const double buffer_sum =
      c.sum_live_buffer + c.free_buffer + c.inflight_buffer;
  if (std::fabs(buffer_sum - c.buffer_budget) > 1e-6) {
    AddViolation(t, "ctrl-buffer-conservation",
                 "live " + std::to_string(c.sum_live_buffer) + " + free " +
                     std::to_string(c.free_buffer) + " + in-flight " +
                     std::to_string(c.inflight_buffer) + " = " +
                     std::to_string(buffer_sum) + " buffer minutes, " +
                     "budget is " + std::to_string(c.buffer_budget));
  }
  if (c.steps_applied > c.steps_planned) {
    AddViolation(t, "ctrl-no-double-grant",
                 std::to_string(c.steps_applied) +
                     " migration steps applied but only " +
                     std::to_string(c.steps_planned) +
                     " were ever planned (a step ran twice)");
  }
  if (c.epoch < last_controller_epoch_) {
    AddViolation(t, "ctrl-epoch-monotonic",
                 "plan epoch moved backward: " +
                     std::to_string(last_controller_epoch_) + " -> " +
                     std::to_string(c.epoch));
  }
  last_controller_epoch_ = std::max(last_controller_epoch_, c.epoch);
}

// Cross-shard ledgers, then the windowed cross-shard ladder.
void InvariantAuditor::AuditShardLedgers(const AuditSnapshot& s) {
  const double t = s.time;
  if (!s.shard.enabled) return;
  const auto& sh = s.shard;
  int64_t ledger = 0;
  for (const auto& m : sh.movies) {
    if (m.held < 0 || m.credit < 0 || m.debt < 0) {
      AddViolation(t, "shard-credit-negative",
                   "movie " + std::to_string(m.movie) + " ledger held=" +
                       std::to_string(m.held) + " credit=" +
                       std::to_string(m.credit) + " debt=" +
                       std::to_string(m.debt) +
                       " (a credit was spent or repaid twice)");
    }
    ledger += m.held + m.credit - m.debt;
  }
  if (ledger != sh.capacity) {
    AddViolation(t, "shard-reserve-ledger",
                 "sum of per-movie (held + credit - debt) = " +
                     std::to_string(ledger) + ", global capacity is " +
                     std::to_string(sh.capacity) +
                     " (a shard grant minted or leaked reserve)");
  }

  // --- windowed cross-shard ladder ---------------------------------------
  if (sh.ladder.enabled) {
    const auto& ld = sh.ladder;
    // The rung must be the pure fold of the summed pressure: recompute
    // StepWindowedLadder with the published inputs and require an exact
    // match (both sides run the same function, so there is no tolerance).
    WindowedPressure pressure;
    pressure.capacity = sh.capacity;
    pressure.nominal_capacity = ld.nominal_capacity;
    pressure.sum_held = ld.sum_held;
    pressure.sum_queued = ld.sum_queued;
    DegradationPolicy policy;
    policy.enabled = true;
    policy.shed_below_fraction = ld.shed_below_fraction;
    policy.batching_below_fraction = ld.batching_below_fraction;
    WindowedLadderState prev;
    prev.level = static_cast<DegradationLevel>(ld.prev_level);
    prev.below_streak = ld.prev_streak;
    const WindowedLadderState expect =
        StepWindowedLadder(prev, pressure, policy, ld.recover_windows);
    if (static_cast<int>(expect.level) != ld.next_level ||
        expect.below_streak != ld.next_streak) {
      AddViolation(
          t, "shard-ladder-rung",
          "barrier decided rung " + std::to_string(ld.next_level) +
              " streak " + std::to_string(ld.next_streak) +
              " but StepWindowedLadder(prev=" +
              std::to_string(ld.prev_level) + "/" +
              std::to_string(ld.prev_streak) + ", held=" +
              std::to_string(ld.sum_held) + ", queued=" +
              std::to_string(ld.sum_queued) + ", capacity=" +
              std::to_string(sh.capacity) + "/" +
              std::to_string(ld.nominal_capacity) + ") gives " +
              std::to_string(static_cast<int>(expect.level)) + "/" +
              std::to_string(expect.below_streak) +
              " (the rung is not a pure function of the summed pressure)");
    }
    int64_t quota_echoed = 0;
    for (const auto& m : sh.movies) {
      quota_echoed += m.reclaim_quota;
      if (m.reclaim_applied > m.reclaim_quota) {
        AddViolation(t, "shard-ladder-reclaim",
                     "movie " + std::to_string(m.movie) + " reclaimed " +
                         std::to_string(m.reclaim_applied) +
                         " streams against a quota of " +
                         std::to_string(m.reclaim_quota) +
                         " (a shard reclaimed beyond its quota)");
      }
      const int64_t accounted =
          m.queue_grants + m.queue_expirations + m.queue_pending;
      if (m.vcr_queued != accounted) {
        AddViolation(t, "shard-ladder-queue",
                     "movie " + std::to_string(m.movie) + " queued " +
                         std::to_string(m.vcr_queued) + " but grants " +
                         std::to_string(m.queue_grants) + " + expirations " +
                         std::to_string(m.queue_expirations) + " + pending " +
                         std::to_string(m.queue_pending) + " = " +
                         std::to_string(accounted) +
                         " (a queued viewer was lost across a window)");
      }
    }
    if (quota_echoed != ld.quota_issued_prev) {
      AddViolation(t, "shard-ladder-reclaim",
                   "shards echoed reclaim quotas summing to " +
                       std::to_string(quota_echoed) +
                       " but the barrier issued " +
                       std::to_string(ld.quota_issued_prev) +
                       " last window (a reclaim quota was minted or lost)");
    }
  }
}

// Degradation ladder: rung range and transition-log continuity.
void InvariantAuditor::AuditLadder(const AuditSnapshot& s) {
  const double t = s.time;
  if (s.degradation_level != -1 &&
      (s.degradation_level < 0 ||
       s.degradation_level >= kNumDegradationLevels)) {
    AddViolation(t, "ladder-level-range",
                 "degradation level " + std::to_string(s.degradation_level) +
                     " is not a rung of the ladder");
  }
  if (s.transitions != nullptr && !s.transitions->empty()) {
    const auto& trs = *s.transitions;
    if (trs.front().from != DegradationLevel::kNormal) {
      AddViolation(t, "ladder-continuity",
                   std::string("first transition starts at ") +
                       DegradationLevelName(trs.front().from) +
                       ", runs begin at normal");
    }
    for (size_t i = 1; i < trs.size(); ++i) {
      if (trs[i].from != trs[i - 1].to) {
        AddViolation(
            t, "ladder-continuity",
            std::string("transition ") + std::to_string(i) + " leaves " +
                DegradationLevelName(trs[i].from) +
                " but the previous transition ended at " +
                DegradationLevelName(trs[i - 1].to) +
                " (a level change was skipped or rewritten)");
      }
      if (trs[i].time < trs[i - 1].time) {
        AddViolation(t, "ladder-continuity",
                     "transition " + std::to_string(i) + " at t=" +
                         std::to_string(trs[i].time) +
                         " precedes its predecessor at t=" +
                         std::to_string(trs[i - 1].time));
      }
    }
    const bool log_complete =
        s.total_transitions < 0 ||
        s.total_transitions == static_cast<int64_t>(trs.size());
    if (log_complete && s.degradation_level >= 0 &&
        s.degradation_level < kNumDegradationLevels &&
        static_cast<int>(trs.back().to) != s.degradation_level) {
      AddViolation(t, "ladder-continuity",
                   std::string("recorded transitions end at ") +
                       DegradationLevelName(trs.back().to) +
                       " but the live level is " +
                       DegradationLevelName(static_cast<DegradationLevel>(
                           s.degradation_level)));
    }
  }
}

Status InvariantAuditor::status() const {
  if (total_violations_ == 0) return Status::OK();
  const AuditViolation& first = violations_.front();
  std::ostringstream os;
  os << "invariant '" << first.invariant << "' violated at t=" << first.time
     << " (event #" << first.event_index << "): " << first.detail;
  if (total_violations_ > 1) {
    os << "; " << (total_violations_ - 1) << " further violation(s)";
  }
  os << "; " << TraceTail();
  return Status::Internal(os.str());
}

}  // namespace vod
