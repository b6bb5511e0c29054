#include "sim/movie_world.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/check.h"
#include "dist/exponential.h"

namespace vod {

namespace {
// Stream-class tags for deriving independent child RNGs.
constexpr uint64_t kArrivalStream = 1;
constexpr uint64_t kViewerStream = 2;

// Viewer-slab free-list terminator.
constexpr uint32_t kNilSlot = 0xFFFFFFFFu;

// "No home stream" sentinel for the SoA home-stream column. Stationary
// schedules issue negative stream ids (k < 0 before the anchor), so -1 is a
// legal id; INT64_MIN is unreachable by any schedule.
constexpr int64_t kNoHomeStream = std::numeric_limits<int64_t>::min();
}  // namespace

Status ValidateMovieWorldInputs(const PlaybackRates& rates,
                                const MovieWorldConfig& config) {
  VOD_RETURN_IF_ERROR(rates.Validate());
  if (std::fabs(rates.playback - 1.0) > 1e-12) {
    return Status::InvalidArgument(
        "the simulator's clock is in playback minutes; set R_PB = 1 and "
        "express FF/RW as multiples (the analytic model is scale-invariant)");
  }
  VOD_RETURN_IF_ERROR(config.behavior.Validate());
  VOD_RETURN_IF_ERROR(config.piggyback.Validate());
  if (!(config.mean_interarrival_minutes > 0.0)) {
    return Status::InvalidArgument("mean interarrival time must be positive");
  }
  return Status::OK();
}

class MovieWorld::Impl {
 public:
  Impl(const PartitionLayout& layout, const PlaybackRates& rates,
       const MovieWorldConfig& config, Rng base_rng, EventQueue* queue,
       StreamSupplier* supplier, SimulationMetrics* metrics)
      : layout_(layout),
        rates_(rates),
        config_(config),
        schedule_(layout),
        base_rng_(base_rng),
        arrival_rng_(base_rng_.MakeChild(kArrivalStream, 0)),
        queue_(queue),
        supplier_(supplier),
        metrics_(metrics) {
    // Devirtualized sampling fast path: the paper's workloads draw VCR
    // initiation gaps from an exponential clock, and
    // ExponentialDistribution::Sample is exactly rng->Exponential(mean), so
    // calling that directly is bit-identical and skips the vtable.
    if (const auto* exp = dynamic_cast<const ExponentialDistribution*>(
            config_.behavior.interactivity.get())) {
      interactivity_exp_mean_ = exp->Mean();
    }
    // Steady-state event kinds, registered once per world: scheduling these
    // goes through the queue's allocation-free handler path, and dispatch is
    // a raw function-pointer call into a static trampoline — no
    // std::function on the hot path. The payload is the viewer's slab slot
    // (unused for arrivals).
    kind_arrival_ = queue_->AddHandler(&Impl::ArrivalThunk, this);
    kind_admit_ = queue_->AddHandler(&Impl::AdmitThunk, this);
    kind_abandon_ = queue_->AddHandler(&Impl::AbandonThunk, this);
    kind_vcr_initiate_ = queue_->AddHandler(&Impl::VcrInitiateThunk, this);
    kind_merge_ = queue_->AddHandler(&Impl::MergeThunk, this);
    kind_finish_ = queue_->AddHandler(&Impl::FinishThunk, this);
    kind_vcr_complete_ = queue_->AddHandler(&Impl::VcrCompleteThunk, this);
    kind_stall_resume_ = queue_->AddHandler(&Impl::StallResumeThunk, this);
  }

  void Start() { ScheduleNextArrival(queue_->Now()); }

  const PartitionLayout& layout() const { return layout_; }

  /// See MovieWorld::ApplyLayout. Viewers frozen on events scheduled under
  /// the old geometry (queued type-1 admissions, stalls) fire at their old
  /// times and re-query coverage under the new schedule then.
  void ApplyLayout(double t, const PartitionLayout& new_layout) {
    layout_ = new_layout;
    schedule_ =
        PartitionSchedule(new_layout, /*anchor=*/t);
  }

 private:
  // ---- viewer slab (structure-of-arrays) -----------------------------------
  //
  // Per-viewer session state lives in parallel columns indexed by the slot
  // carried in event payloads, grouped by access affinity so each handler
  // touches only the cache lines it needs: kinematics (every position query
  // and playback transition), session identity/resources (admission,
  // release, reclaim), the parked VCR outcome (only between BeginVcrOp and
  // completion), and the per-viewer RNG (only when sampling).
  // Invariant: at most one pending event per viewer; every transition
  // schedules the next one.

  /// Hot kinematics: 32 bytes, one cache line covers two viewers.
  struct ViewerKin {
    double position = 0.0;    ///< at the last state change
    double state_time = 0.0;  ///< time of the last state change
    double play_rate = 1.0;   ///< 1, or 1 ± Δ while piggybacking; 0 frozen
    /// Session deadline (abandonment); +inf when patience is unlimited.
    double abandon_at = std::numeric_limits<double>::infinity();
  };

  /// Session identity and resource state.
  struct ViewerSess {
    uint64_t id = 0;
    /// The single event this viewer is waiting on (invariant: at most one),
    /// tracked so forced reclaim can cancel it. kNoEvent while the viewer
    /// sits in the supplier's VCR queue (the supplier owns those timers).
    EventToken pending_event = kNoEvent;
    double miss_time = 0.0;  ///< when the current dedicated stint began
    int64_t home_stream = kNoHomeStream;
    uint32_t next_free = kNilSlot;  ///< free-list link while inactive
    bool active = false;            ///< slot holds a live session
    bool dedicated = false;         ///< holds a stream from the supplier
  };

  /// In-flight VCR operation, parked between BeginVcrOp and its completion
  /// event (the payload only carries the slot). Cold outside that span.
  struct ViewerVcr {
    double resume_position = 0.0;
    VcrOp op = VcrOp::kPause;
    bool reaches_end = false;
    bool in_partition_before = false;
    bool consuming = false;
  };

  /// Creates a session in a recycled (LIFO) or fresh slot. The recycling
  /// order is a pure function of the event sequence, so slot assignment is
  /// deterministic. Returns the slot index.
  uint32_t AllocViewer(uint64_t id) {
    uint32_t slot;
    if (free_head_ != kNilSlot) {
      slot = free_head_;
      free_head_ = sess_[slot].next_free;
    } else {
      VOD_CHECK(sess_.size() < kNilSlot);
      slot = static_cast<uint32_t>(sess_.size());
      kin_.emplace_back();
      sess_.emplace_back();
      vcr_.emplace_back();
      rng_.push_back(Rng{0});
    }
    kin_[slot] = ViewerKin{};
    sess_[slot] = ViewerSess{};
    vcr_[slot] = ViewerVcr{};
    ViewerSess& sess = sess_[slot];
    sess.id = id;
    sess.active = true;
    rng_[slot] = base_rng_.MakeChild(kViewerStream, id);
    return slot;
  }

  void FreeViewer(uint32_t slot) {
    ViewerSess& sess = sess_[slot];
    sess.active = false;
    sess.next_free = free_head_;
    free_head_ = slot;
    ++viewers_freed_;
  }

  void CheckLive(uint32_t slot) const {
    VOD_CHECK(slot < sess_.size() && sess_[slot].active);
  }

  double PositionAt(uint32_t slot, double t) const {
    const ViewerKin& kin = kin_[slot];
    return kin.position + (t - kin.state_time) * kin.play_rate;
  }

  // ---- handler trampolines -------------------------------------------------

  static void ArrivalThunk(void* ctx, uint64_t) {
    static_cast<Impl*>(ctx)->OnArrival();
  }
  static void AdmitThunk(void* ctx, uint64_t slot) {
    static_cast<Impl*>(ctx)->OnAdmitType1(static_cast<uint32_t>(slot));
  }
  static void AbandonThunk(void* ctx, uint64_t slot) {
    static_cast<Impl*>(ctx)->OnAbandon(static_cast<uint32_t>(slot));
  }
  static void VcrInitiateThunk(void* ctx, uint64_t slot) {
    static_cast<Impl*>(ctx)->OnVcrInitiate(static_cast<uint32_t>(slot));
  }
  static void MergeThunk(void* ctx, uint64_t slot) {
    static_cast<Impl*>(ctx)->OnPiggybackMerge(static_cast<uint32_t>(slot));
  }
  static void FinishThunk(void* ctx, uint64_t slot) {
    static_cast<Impl*>(ctx)->OnFinish(static_cast<uint32_t>(slot));
  }
  static void VcrCompleteThunk(void* ctx, uint64_t slot) {
    static_cast<Impl*>(ctx)->OnVcrComplete(static_cast<uint32_t>(slot));
  }
  static void StallResumeThunk(void* ctx, uint64_t slot) {
    static_cast<Impl*>(ctx)->OnStallResume(static_cast<uint32_t>(slot));
  }

  // ---- helpers -------------------------------------------------------------

  static int64_t EncodeHome(const std::optional<int64_t>& stream) {
    return stream.has_value() ? *stream : kNoHomeStream;
  }

  /// Phase of movie position `pos` against the window pattern at time t:
  /// the result is in [0, T); values <= W mean "inside a window". Delegates
  /// to the schedule so a re-anchored layout keeps the phase consistent.
  double PatternPhase(double t, double pos) const {
    return schedule_.PatternPhase(t, pos);
  }

  void AcquireDedicated(uint32_t slot, double t) {
    VOD_DCHECK(!sess_[slot].dedicated);
    // Callers check TryAcquire themselves when refusal is handled specially.
    sess_[slot].dedicated = true;
    sess_[slot].miss_time = t;
    ++dedicated_count_;
    metrics_->SetDedicatedStreams(t, dedicated_count_);
  }

  void ReleaseDedicated(uint32_t slot, double t) {
    VOD_DCHECK(sess_[slot].dedicated);
    supplier_->Release(t);
    sess_[slot].dedicated = false;
    --dedicated_count_;
    metrics_->SetDedicatedStreams(t, dedicated_count_);
  }

  void SetConcurrent(double t, int delta) {
    concurrent_count_ += delta;
    VOD_DCHECK(concurrent_count_ >= 0);
    metrics_->SetConcurrentViewers(t, concurrent_count_);
  }

  /// Draws the time of the viewer's next VCR initiation after `t`.
  double SampleVcrClock(uint32_t slot, double t) {
    if (interactivity_exp_mean_ > 0.0) {
      return t + rng_[slot].Exponential(interactivity_exp_mean_);
    }
    return t + config_.behavior.interactivity->Sample(&rng_[slot]);
  }

  // ---- observability -------------------------------------------------------

  /// Emits one structured event when a bus is attached and the category
  /// passes its filter; with no bus this is a single branch.
  void EmitObs(double t, EventCategory cat, uint8_t sub, int64_t id,
               double value, uint8_t aux = 0) {
    EventLog* log = config_.event_log;
    if (log == nullptr || !log->ShouldEmit(cat)) return;
    log->Emit(t, cat, sub, config_.movie_id, id, value, aux);
  }

  // ---- arrivals --------------------------------------------------------------

  void ScheduleNextArrival(double t) {
    double next;
    if (config_.arrivals != nullptr) {
      next = config_.arrivals->NextArrivalAfter(t, &arrival_rng_);
    } else {
      next = t + arrival_rng_.Exponential(config_.mean_interarrival_minutes);
    }
    queue_->ScheduleHandler(next, kind_arrival_, 0);
  }

  void OnArrival() {
    const double t = queue_->Now();
    ScheduleNextArrival(t);
    if (config_.log_arrivals) arrival_log_.push_back(t);
    const uint64_t id = next_viewer_id_++;
    const uint32_t slot = AllocViewer(id);

    const std::optional<int64_t> covering =
        schedule_.FindCoveringStream(t, 0.0);
    if (covering.has_value()) {
      // Type-2 viewer: enrollment window open; read from the buffer now.
      metrics_->RecordAdmission(t, 0.0, /*type2=*/true);
      EmitObs(t, EventCategory::kAdmission, 1, static_cast<int64_t>(id), 0.0);
      sess_[slot].home_stream = *covering;
      ArmPatience(slot, t);
      SetConcurrent(t, +1);
      SchedulePlayback(slot, t, 0.0);
    } else {
      // Type-1 viewer: queue frozen at the entry point until the next
      // restart; state_time records the enqueue instant so the admission
      // handler can recover the wait.
      const double start = schedule_.NextRestart(t);
      ViewerKin& kin = kin_[slot];
      kin.position = 0.0;
      kin.state_time = t;
      kin.play_rate = 0.0;
      sess_[slot].pending_event =
          queue_->ScheduleHandler(start, kind_admit_, slot);
    }
  }

  /// A batch restart reached a queued type-1 viewer.
  void OnAdmitType1(uint32_t slot) {
    CheckLive(slot);
    const double now = queue_->Now();
    const std::optional<int64_t> covering =
        schedule_.FindCoveringStream(now, 0.0);
    const double wait = now - kin_[slot].state_time;
    metrics_->RecordAdmission(now, wait, /*type2=*/false);
    if (now >= metrics_->measurement_start()) {
      max_wait_seen_ = std::max(max_wait_seen_, wait);
    }
    sess_[slot].home_stream = EncodeHome(covering);
    // One restart event per distinct batch-restart instant, carrying the
    // partition stream that started (the whole batch shares it).
    if (ObsEnabled(config_.event_log, EventCategory::kRestart) &&
        last_restart_emitted_ != now) {
      last_restart_emitted_ = now;
      EmitObs(now, EventCategory::kRestart, 0, covering.value_or(-1), 0.0);
    }
    EmitObs(now, EventCategory::kAdmission, 0,
            static_cast<int64_t>(sess_[slot].id), wait);
    ArmPatience(slot, now);
    SetConcurrent(now, +1);
    SchedulePlayback(slot, now, 0.0);
  }

  /// Samples the viewer's session deadline at playback start.
  void ArmPatience(uint32_t slot, double t) {
    if (config_.patience != nullptr) {
      kin_[slot].abandon_at = t + config_.patience->Sample(&rng_[slot]);
    }
  }

  /// The viewer walks away mid-session; all resources are released.
  void OnAbandon(uint32_t slot) {
    CheckLive(slot);
    const double t = queue_->Now();
    if (sess_[slot].dedicated) ReleaseDedicated(slot, t);
    EmitObs(t, EventCategory::kSession, 1,
            static_cast<int64_t>(sess_[slot].id), PositionAt(slot, t));
    SetConcurrent(t, -1);
    ++abandonments_;
    FreeViewer(slot);
  }

  // ---- playback ---------------------------------------------------------------

  /// Enters normal playback (or a piggyback drift segment, if the viewer is
  /// dedicated and the merge policy is on) at `position`, and schedules the
  /// next event: VCR initiation, piggyback merge, or finish — whichever
  /// comes first.
  void SchedulePlayback(uint32_t slot, double t, double position,
                        bool allow_piggyback = true) {
    const double l = layout_.movie_length();
    ViewerKin& kin = kin_[slot];
    kin.position = position;
    kin.state_time = t;
    kin.play_rate = 1.0;

    double merge_at = std::numeric_limits<double>::infinity();
    if (sess_[slot].dedicated && allow_piggyback &&
        config_.piggyback.enabled && layout_.window() > 0.0 &&
        layout_.window() < layout_.restart_period() && position < l - 1e-9) {
      const double phase = PatternPhase(t, position);
      if (phase > layout_.window()) {
        const auto plan =
            PlanPiggybackMerge(layout_, phase, config_.piggyback);
        if (plan.ok()) {
          kin.play_rate = plan->rate_factor;
          merge_at = t + plan->merge_minutes;
        }
      }
    }

    const double finish_at = t + (l - position) / kin.play_rate;
    double vcr_at = std::numeric_limits<double>::infinity();
    if (!config_.behavior.passive()) {
      vcr_at = SampleVcrClock(slot, t);
    }

    // The deadline may already have passed (e.g. during a VCR operation,
    // which is allowed to finish): abandon immediately in that case.
    const double abandon_at = std::max(kin.abandon_at, t);
    if (abandon_at <= vcr_at && abandon_at <= merge_at &&
        abandon_at <= finish_at) {
      sess_[slot].pending_event =
          queue_->ScheduleHandler(abandon_at, kind_abandon_, slot);
    } else if (vcr_at <= merge_at && vcr_at <= finish_at) {
      sess_[slot].pending_event =
          queue_->ScheduleHandler(vcr_at, kind_vcr_initiate_, slot);
    } else if (merge_at <= finish_at) {
      sess_[slot].pending_event =
          queue_->ScheduleHandler(merge_at, kind_merge_, slot);
    } else {
      sess_[slot].pending_event =
          queue_->ScheduleHandler(finish_at, kind_finish_, slot);
    }
  }

  void OnFinish(uint32_t slot) {
    CheckLive(slot);
    const double t = queue_->Now();
    if (sess_[slot].dedicated) ReleaseDedicated(slot, t);
    EmitObs(t, EventCategory::kSession, 0,
            static_cast<int64_t>(sess_[slot].id), layout_.movie_length());
    SetConcurrent(t, -1);
    metrics_->RecordCompletion(t);
    FreeViewer(slot);
  }

  void OnPiggybackMerge(uint32_t slot) {
    CheckLive(slot);
    const double t = queue_->Now();
    const double position = PositionAt(slot, t);
    const std::optional<int64_t> covering =
        schedule_.FindCoveringStream(t, position);
    if (covering.has_value()) {
      metrics_->RecordPiggybackMerge(t, t - sess_[slot].miss_time);
      ReleaseDedicated(slot, t);
      sess_[slot].home_stream = *covering;
      SchedulePlayback(slot, t, position);
    } else {
      // Boundary corner (e.g. merged exactly at the movie end): keep the
      // stream and finish normally without re-planning a drift.
      SchedulePlayback(slot, t, position, /*allow_piggyback=*/false);
    }
  }

  // ---- VCR operations ------------------------------------------------------------

  /// Kinematics of one VCR operation from `position`: wall-clock duration,
  /// where the viewer resumes, and whether a fast-forward runs off the end.
  struct VcrPlan {
    double wall = 0.0;
    double resume_position = 0.0;
    bool reaches_end = false;
  };

  VcrPlan PlanVcrOp(VcrOp op, double x, double position) const {
    const double l = layout_.movie_length();
    VcrPlan plan;
    plan.resume_position = position;
    switch (op) {
      case VcrOp::kFastForward: {
        const double traverse = std::min(x, l - position);
        plan.wall = traverse / rates_.fast_forward;
        plan.resume_position = position + traverse;
        plan.reaches_end = x >= l - position;
        break;
      }
      case VcrOp::kRewind: {
        const double traverse = std::min(x, position);
        plan.wall = traverse / rates_.rewind;
        plan.resume_position = position - traverse;
        break;
      }
      case VcrOp::kPause: {
        plan.wall = x;
        break;
      }
    }
    return plan;
  }

  /// Freezes the viewer, parks the operation's outcome on its slot, and
  /// schedules the completion event.
  void BeginVcrOp(uint32_t slot, double t, VcrOp op, const VcrPlan& plan,
                  bool in_partition_before, bool consumes_in_vcr) {
    ViewerKin& kin = kin_[slot];
    kin.position = std::min(kin.position, layout_.movie_length());
    kin.state_time = t;
    kin.play_rate = 0.0;  // position is explicit at completion
    ViewerVcr& vcr = vcr_[slot];
    vcr.op = op;
    vcr.resume_position = plan.resume_position;
    vcr.reaches_end = plan.reaches_end;
    vcr.in_partition_before = in_partition_before;
    vcr.consuming = consumes_in_vcr;
    sess_[slot].pending_event =
        queue_->ScheduleHandler(t + plan.wall, kind_vcr_complete_, slot);
  }

  /// Outcome of a queued phase-1 stream request (sim/degradation.h). The
  /// viewer sat frozen at `position` since enqueue; on a grant the
  /// operation proceeds as if initiated now, on a refusal the viewer resumes
  /// normal playback — exactly the seed's blocked-VCR semantics, just later.
  void OnQueuedVcrDecision(uint32_t slot, uint64_t id, VcrOp op, double x,
                           double t, bool granted) {
    CheckLive(slot);
    VOD_CHECK(sess_[slot].id == id);  // the slot cannot turn over while queued
    VOD_DCHECK(kin_[slot].play_rate == 0.0);
    if (!granted) {
      // Attribute the blocked request to its enqueue time (the viewer froze
      // at state_time) so blocked == denied + expirations holds across the
      // warmup boundary.
      metrics_->RecordBlockedVcr(kin_[slot].state_time);
      EmitObs(t, EventCategory::kQueue, 2, static_cast<int64_t>(id),
              t - kin_[slot].state_time, static_cast<uint8_t>(op));
      SchedulePlayback(slot, t, kin_[slot].position);
      return;
    }
    // The supplier already acquired the stream on our behalf.
    EmitObs(t, EventCategory::kQueue, 1, static_cast<int64_t>(id),
            t - kin_[slot].state_time, static_cast<uint8_t>(op));
    AcquireDedicated(slot, t);
    const VcrPlan plan = PlanVcrOp(op, x, kin_[slot].position);
    BeginVcrOp(slot, t, op, plan, /*in_partition_before=*/true,
               /*consumes_in_vcr=*/true);
  }

  void OnVcrInitiate(uint32_t slot) {
    CheckLive(slot);
    const double t = queue_->Now();
    const double position =
        std::min(PositionAt(slot, t), layout_.movie_length());

    const VcrOp op = config_.behavior.SampleOp(&rng_[slot]);
    const double x = config_.behavior.SampleDuration(op, &rng_[slot]);
    EmitObs(t, EventCategory::kVcrBegin, static_cast<uint8_t>(op),
            static_cast<int64_t>(sess_[slot].id), x);
    const bool in_partition_before = !sess_[slot].dedicated;
    const VcrPlan plan = PlanVcrOp(op, x, position);

    // Phase-1 stream accounting. FF/RW display and need a dedicated stream;
    // a refused request blocks the operation (the viewer keeps watching
    // normally) unless the supplier queues it for a deadline-bounded wait.
    // A pause consumes nothing; a stream held from an earlier miss is
    // returned during the pause.
    const bool consumes_in_vcr = op != VcrOp::kPause;
    if (consumes_in_vcr && !sess_[slot].dedicated) {
      if (!supplier_->TryAcquire(t)) {
        const uint64_t id = sess_[slot].id;
        if (supplier_->TryQueueAcquire(
                t, [this, slot, id, op, x](double decision_t, bool granted) {
                  OnQueuedVcrDecision(slot, id, op, x, decision_t, granted);
                })) {
          // Queued: freeze in place until the supplier decides. The viewer
          // holds no pending event — the supplier owns the timers.
          metrics_->RecordQueuedVcr(t);
          EmitObs(t, EventCategory::kQueue, 0, static_cast<int64_t>(id), 0.0,
                  static_cast<uint8_t>(op));
          ViewerKin& kin = kin_[slot];
          kin.position = position;
          kin.state_time = t;
          kin.play_rate = 0.0;
          sess_[slot].pending_event = kNoEvent;
          return;
        }
        metrics_->RecordBlockedVcr(t);
        EmitObs(t, EventCategory::kShed, 0,
                static_cast<int64_t>(sess_[slot].id), 0.0,
                static_cast<uint8_t>(op));
        SchedulePlayback(slot, t, position);
        return;
      }
      AcquireDedicated(slot, t);
    } else if (!consumes_in_vcr && sess_[slot].dedicated) {
      ReleaseDedicated(slot, t);
    }

    kin_[slot].position = position;  // frozen during the operation
    BeginVcrOp(slot, t, op, plan, in_partition_before, consumes_in_vcr);
  }

  void OnVcrComplete(uint32_t slot) {
    CheckLive(slot);
    const double t = queue_->Now();
    const ViewerVcr& vcr = vcr_[slot];
    const VcrOp op = vcr.op;
    const double resume_position = vcr.resume_position;
    const bool in_partition_before = vcr.in_partition_before;

    if (vcr.reaches_end) {
      // Fast-forwarded to (or past) the end: the session terminates and all
      // resources are released — a release per the paper's Eq. (21).
      metrics_->RecordResume(t, op, ResumeOutcome::kEndOfMovie,
                             in_partition_before);
      EmitObs(t, EventCategory::kResume,
              static_cast<uint8_t>(ResumeOutcome::kEndOfMovie),
              static_cast<int64_t>(sess_[slot].id), resume_position,
              static_cast<uint8_t>(op));
      if (sess_[slot].dedicated) ReleaseDedicated(slot, t);
      EmitObs(t, EventCategory::kSession, 0,
              static_cast<int64_t>(sess_[slot].id), resume_position);
      SetConcurrent(t, -1);
      metrics_->RecordCompletion(t);
      FreeViewer(slot);
      return;
    }

    const std::optional<int64_t> covering =
        schedule_.FindCoveringStream(t, resume_position);
    if (covering.has_value()) {
      const bool within = sess_[slot].home_stream != kNoHomeStream &&
                          sess_[slot].home_stream == *covering;
      metrics_->RecordResume(
          t, op, within ? ResumeOutcome::kHitWithin : ResumeOutcome::kHitJump,
          in_partition_before);
      EmitObs(t, EventCategory::kResume,
              static_cast<uint8_t>(within ? ResumeOutcome::kHitWithin
                                          : ResumeOutcome::kHitJump),
              static_cast<int64_t>(sess_[slot].id), resume_position,
              static_cast<uint8_t>(op));
      if (sess_[slot].dedicated) ReleaseDedicated(slot, t);
      sess_[slot].home_stream = *covering;
      SchedulePlayback(slot, t, resume_position);
      return;
    }

    metrics_->RecordResume(t, op, ResumeOutcome::kMiss, in_partition_before);
    EmitObs(t, EventCategory::kResume,
            static_cast<uint8_t>(ResumeOutcome::kMiss),
            static_cast<int64_t>(sess_[slot].id), resume_position,
            static_cast<uint8_t>(op));
    sess_[slot].home_stream = kNoHomeStream;
    if (!sess_[slot].dedicated) {
      VOD_DCHECK(!vcr.consuming);
      if (!supplier_->TryAcquire(t)) {
        // No stream for the miss: the viewer stalls (a forced pause) until
        // the next partition window sweeps over his position, then joins it
        // at the leading edge.
        StallUntilCovered(slot, t, resume_position);
        return;
      }
      AcquireDedicated(slot, t);
    } else {
      sess_[slot].miss_time = t;  // the dedicated stint continues from this miss
    }
    SchedulePlayback(slot, t, resume_position);
  }

  void StallUntilCovered(uint32_t slot, double t, double position) {
    const double period = layout_.restart_period();
    const double phase = PatternPhase(t, position);
    // The next leading edge reaches `position` when the phase wraps to 0.
    const double wait = period - phase;
    metrics_->RecordStall(t, wait);
    EmitObs(t, EventCategory::kStall, 0,
            static_cast<int64_t>(sess_[slot].id), wait);
    ViewerKin& kin = kin_[slot];
    kin.position = position;
    kin.state_time = t;
    kin.play_rate = 0.0;
    sess_[slot].pending_event =
        queue_->ScheduleHandler(t + wait, kind_stall_resume_, slot);
  }

  /// The partition window's leading edge swept over a stalled viewer.
  void OnStallResume(uint32_t slot) {
    CheckLive(slot);
    const double now = queue_->Now();
    const double position = kin_[slot].position;  // frozen at the stall
    sess_[slot].home_stream =
        EncodeHome(schedule_.FindCoveringStream(now, position));
    SchedulePlayback(slot, now, position);
  }

 public:
  // ---- forced reclaim (graceful degradation) -------------------------------

  /// See MovieWorld::ReclaimDedicated. Victims are viewers holding a
  /// dedicated stream during a playback/drift segment (play_rate > 0);
  /// viewers frozen mid-VCR-op or stalled are left alone. Lowest viewer id
  /// first keeps the choice deterministic across runs. The scan walks the
  /// session column (active/dedicated flags) and touches kinematics only
  /// for candidates, so the SoA layout keeps it cache-dense.
  int64_t ReclaimDedicated(double t, int64_t max_count) {
    int64_t reclaimed = 0;
    while (reclaimed < max_count) {
      uint32_t victim = kNilSlot;
      uint64_t victim_id = 0;
      const uint32_t n = static_cast<uint32_t>(sess_.size());
      for (uint32_t i = 0; i < n; ++i) {
        const ViewerSess& sess = sess_[i];
        if (!sess.active || !sess.dedicated || kin_[i].play_rate <= 0.0) {
          continue;
        }
        if (PositionAt(i, t) >= layout_.movie_length() - 1e-9) continue;
        if (victim == kNilSlot || sess.id < victim_id) {
          victim = i;
          victim_id = sess.id;
        }
      }
      if (victim == kNilSlot) break;
      const double position =
          std::min(PositionAt(victim, t), layout_.movie_length());
      queue_->Cancel(sess_[victim].pending_event);
      sess_[victim].pending_event = kNoEvent;
      ReleaseDedicated(victim, t);
      metrics_->RecordForcedReclaim(t);
      EmitObs(t, EventCategory::kReclaim, 0,
              static_cast<int64_t>(victim_id), position);
      // The victim falls back to pure-batching service: stall until the
      // next partition window sweeps over its position.
      StallUntilCovered(victim, t, position);
      ++reclaimed;
    }
    return reclaimed;
  }

 private:
  PartitionLayout layout_;
  PlaybackRates rates_;
  MovieWorldConfig config_;
  PartitionSchedule schedule_;
  Rng base_rng_;
  Rng arrival_rng_;
  EventQueue* queue_;
  StreamSupplier* supplier_;
  SimulationMetrics* metrics_;
  /// Viewer slab, structure-of-arrays: parallel columns indexed by slot,
  /// plus a LIFO free list of retired slots threaded through sess_.
  std::vector<ViewerKin> kin_;
  std::vector<ViewerSess> sess_;
  std::vector<ViewerVcr> vcr_;
  std::vector<Rng> rng_;
  uint32_t free_head_ = kNilSlot;
  uint64_t next_viewer_id_ = 0;
  int64_t dedicated_count_ = 0;
  int concurrent_count_ = 0;
  int64_t abandonments_ = 0;
  int64_t viewers_freed_ = 0;
  double max_wait_seen_ = 0.0;
  /// Arrival times since the last clear (config_.log_arrivals only).
  std::vector<double> arrival_log_;
  /// Mean of the interactivity clock when it is exponential; <= 0 selects
  /// the generic virtual Sample path.
  double interactivity_exp_mean_ = 0.0;
  /// Restart instant last emitted on the event bus (dedupe: one kRestart
  /// event per batch restart, not one per admitted viewer).
  double last_restart_emitted_ = -1.0;
  // Handler kinds registered with the shared queue (per-world values).
  uint64_t kind_arrival_ = 0;
  uint64_t kind_admit_ = 0;
  uint64_t kind_abandon_ = 0;
  uint64_t kind_vcr_initiate_ = 0;
  uint64_t kind_merge_ = 0;
  uint64_t kind_finish_ = 0;
  uint64_t kind_vcr_complete_ = 0;
  uint64_t kind_stall_resume_ = 0;

 public:
  double max_wait_seen() const { return max_wait_seen_; }
  int64_t abandonments() const { return abandonments_; }
  int64_t dedicated_streams_held() const { return dedicated_count_; }
  int64_t viewers_entered() const {
    return static_cast<int64_t>(next_viewer_id_);
  }
  int64_t viewers_exited() const { return viewers_freed_; }
  const std::vector<double>& arrival_log() const { return arrival_log_; }
  void ClearArrivalLog() { arrival_log_.clear(); }
};

MovieWorld::MovieWorld(const PartitionLayout& layout,
                       const PlaybackRates& rates,
                       const MovieWorldConfig& config, Rng base_rng,
                       EventQueue* queue, StreamSupplier* supplier,
                       SimulationMetrics* metrics)
    : impl_(std::make_unique<Impl>(layout, rates, config, base_rng, queue,
                                   supplier, metrics)) {}

MovieWorld::~MovieWorld() = default;

void MovieWorld::Start() { impl_->Start(); }

int64_t MovieWorld::ReclaimDedicated(double t, int64_t max_count) {
  return impl_->ReclaimDedicated(t, max_count);
}

void MovieWorld::ApplyLayout(double t, const PartitionLayout& new_layout) {
  impl_->ApplyLayout(t, new_layout);
}

const PartitionLayout& MovieWorld::layout() const { return impl_->layout(); }

double MovieWorld::max_wait_seen() const { return impl_->max_wait_seen(); }

int64_t MovieWorld::abandonments() const { return impl_->abandonments(); }

int64_t MovieWorld::dedicated_streams_held() const {
  return impl_->dedicated_streams_held();
}

int64_t MovieWorld::viewers_entered() const {
  return impl_->viewers_entered();
}

int64_t MovieWorld::viewers_exited() const { return impl_->viewers_exited(); }

const std::vector<double>& MovieWorld::arrival_log() const {
  return impl_->arrival_log();
}

void MovieWorld::ClearArrivalLog() { impl_->ClearArrivalLog(); }

int64_t MovieWorld::viewers_live() const {
  return impl_->viewers_entered() - impl_->viewers_exited();
}

}  // namespace vod
