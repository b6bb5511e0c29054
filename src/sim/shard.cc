#include "sim/shard.h"

#include <algorithm>

namespace vod {

uint64_t ServerShard::executed() const {
  uint64_t total = 0;
  for (const MovieSlot& m : movies_) total += m.queue->executed();
  return total;
}

void ServerShard::RunWindow(double t_start, double t_end) {
  // Lane records carry only deterministic payloads (movie counts,
  // executed-event deltas, quotas) so the merged trace is byte-stable for a
  // fixed shard count; wall-clock timing belongs to the profiler.
  const uint64_t executed_at_open = executed();
  const size_t first_record = lane_buffer_.size();
  const uint64_t first_seq = lane_.emitted();
  if (lane_.ShouldEmit(EventCategory::kShard)) {
    lane_.Emit(t_start, EventCategory::kShard,
               static_cast<uint8_t>(ShardEvent::kWindowOpen),
               /*movie=*/-1, /*id=*/shard_index_,
               static_cast<double>(movies_.size()));
  }

  // Window-open entry actions for the rung the barrier wrote: force-reclaim
  // against the movie's quota (the releases refund credit/retire debt), then
  // re-offer queued requests against the new credit grant.
  for (MovieSlot& m : movies_) {
    if (!m.supplier->ladder_armed()) continue;
    const int64_t quota = m.reclaim_quota;
    m.reclaim_applied =
        quota > 0 ? m.world->ReclaimDedicated(t_start, quota) : 0;
    if (quota > 0 && lane_.ShouldEmit(EventCategory::kShard)) {
      lane_.Emit(t_start, EventCategory::kShard,
                 static_cast<uint8_t>(ShardEvent::kQuotaApply),
                 m.global_index, /*id=*/quota,
                 static_cast<double>(m.reclaim_applied));
    }
    m.supplier->OpenWindow(t_start);
  }

  // Movie-major: inside a window no movie can observe another, so running
  // each movie's kernel to the barrier in turn yields the same trajectories
  // as any interleaving of their events.
  for (MovieSlot& m : movies_) m.queue->RunUntil(t_end);

  // The trace contract is time order within a (window, shard) block. The
  // stable sort keeps each movie's own records in emission order and puts
  // ties across movies in slot order, which is global movie order. The lane
  // numbered the records as they were emitted, so renumber them in their
  // new order.
  std::vector<TraceEvent>& records = lane_buffer_.events();
  const auto window_begin =
      records.begin() + static_cast<std::ptrdiff_t>(first_record);
  std::stable_sort(window_begin, records.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time < b.time;
                   });
  uint64_t seq = first_seq;
  for (auto it = window_begin; it != records.end(); ++it) it->seq = seq++;

  if (lane_.ShouldEmit(EventCategory::kShard)) {
    lane_.Emit(t_end, EventCategory::kShard,
               static_cast<uint8_t>(ShardEvent::kWindowClose),
               /*movie=*/-1, /*id=*/shard_index_,
               static_cast<double>(executed() - executed_at_open));
  }
  if (ring_ != nullptr) {
    for (size_t i = first_record; i < records.size(); ++i) {
      ring_->Append(records[i]);
    }
  }
}

}  // namespace vod
