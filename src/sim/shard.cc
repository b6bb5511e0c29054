#include "sim/shard.h"

#include "common/check.h"
#include "core/partition_layout.h"

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
  for (const ShardMessage& msg : inbox_->Drain()) {
    // Find the owned slot for the message's movie. Shards own few movies,
    // so a linear scan beats a map and allocates nothing.
    MovieSlot* slot = nullptr;
    for (MovieSlot& m : movies_) {
      if (m.global_index == msg.movie) {
        slot = &m;
        break;
      }
    }
    VOD_CHECK_MSG(slot != nullptr,
                  "cross-shard message routed to a shard that does not own "
                  "the movie");
    switch (msg.kind) {
      case kShardMsgCreditSet:
        slot->supplier->SetLedger(msg.a, msg.b);
        break;
      case kShardMsgLayout: {
        auto layout = PartitionLayout::FromBuffer(
            msg.x, static_cast<int>(msg.a), msg.y);
        VOD_CHECK_MSG(layout.ok(), "controller committed an invalid layout");
        slot->world->ApplyLayout(t_start, layout.value());
        break;
      }
      case kShardMsgRung:
        slot->supplier->SetRung(static_cast<DegradationLevel>(msg.a));
        slot->pending_reclaim = msg.b;
        break;
      default:
        VOD_CHECK_MSG(false, "unknown coordinator->shard message kind");
    }
  }

  // Window-open entry actions for the freshly applied rung: force-reclaim
  // against the barrier quota (the releases refund credit/retire debt),
  // then re-offer queued requests against the new credit grant. Ordered
  // after the full drain so every movie sees both its credit and its rung.
  for (MovieSlot& m : movies_) {
    if (!m.supplier->ladder_armed()) continue;
    const int64_t quota = m.pending_reclaim;
    m.pending_reclaim = 0;
    const int64_t applied =
        quota > 0 ? m.world->ReclaimDedicated(t_start, quota) : 0;
    m.supplier->NoteReclaim(quota, applied);
    if (quota > 0 && lane_.ShouldEmit(EventCategory::kShard)) {
      lane_.Emit(t_start, EventCategory::kShard,
                 static_cast<uint8_t>(ShardEvent::kQuotaApply),
                 m.global_index, /*id=*/quota, static_cast<double>(applied));
    }
    m.supplier->OpenWindow(t_start);
  }

  queue_.RunUntil(t_end);

  for (MovieSlot& m : movies_) {
    ShardMessage ledger;
    ledger.kind = kShardMsgLedger;
    ledger.movie = m.global_index;
    ledger.a = m.supplier->held();
    ledger.b = m.supplier->credit();
    ledger.c = m.supplier->debt();
    ledger.x = static_cast<double>(m.supplier->window_refused());
    ledger.y = static_cast<double>(m.supplier->window_acquired());
    outbox_->Post(ledger);

    ShardMessage viewers;
    viewers.kind = kShardMsgViewers;
    viewers.movie = m.global_index;
    viewers.a = m.world->viewers_entered();
    viewers.b = m.world->viewers_exited();
    viewers.c = m.world->viewers_live();
    outbox_->Post(viewers);

    if (m.supplier->ladder_armed()) {
      ShardMessage pressure;
      pressure.kind = kShardMsgLadderPressure;
      pressure.movie = m.global_index;
      pressure.a = m.supplier->queue_length();
      pressure.b = m.supplier->vcr_queued();
      pressure.c = m.supplier->vcr_queue_grants();
      pressure.x = static_cast<double>(m.supplier->vcr_queue_expirations());
      pressure.y = static_cast<double>(m.supplier->measured_queue_pending());
      outbox_->Post(pressure);

      ShardMessage echo;
      echo.kind = kShardMsgReclaimEcho;
      echo.movie = m.global_index;
      echo.a = m.supplier->window_quota();
      echo.b = m.supplier->window_reclaimed();
      outbox_->Post(echo);
    }

    m.supplier->ResetWindow();
  }

  if (lane_.ShouldEmit(EventCategory::kShard)) {
    lane_.Emit(t_end, EventCategory::kShard,
               static_cast<uint8_t>(ShardEvent::kWindowClose),
               /*movie=*/-1, /*id=*/shard_index_,
               static_cast<double>(queue_.executed() - executed_at_open));
  }
}

}  // namespace vod
