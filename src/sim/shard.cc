#include "sim/shard.h"

namespace vod {

void ServerShard::RunWindow(double t_start, double t_end) {
  // Lane records carry only deterministic payloads (movie counts,
  // executed-event deltas, quotas) so the merged trace is byte-stable for a
  // fixed shard count; wall-clock timing belongs to the profiler.
  const uint64_t executed_at_open = queue_.executed();
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

  queue_.RunUntil(t_end);

  if (lane_.ShouldEmit(EventCategory::kShard)) {
    lane_.Emit(t_end, EventCategory::kShard,
               static_cast<uint8_t>(ShardEvent::kWindowClose),
               /*movie=*/-1, /*id=*/shard_index_,
               static_cast<double>(queue_.executed() - executed_at_open));
  }
}

}  // namespace vod
