#include "ctrl/migration.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace vod {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Buffer-minute dust tolerance; mirrors the audit epsilon.
constexpr double kBufferEps = 1e-9;

bool SameLayout(const PartitionLayout& a, const PartitionLayout& b) {
  return a.streams() == b.streams() &&
         a.buffer_minutes() == b.buffer_minutes();
}
}  // namespace

Status MigrationOptions::Validate() const {
  if (!(drain_slack_minutes >= 0.0) || !std::isfinite(drain_slack_minutes)) {
    return Status::InvalidArgument(
        "migration drain_slack_minutes must be finite and non-negative");
  }
  if (!(backoff_initial_minutes > 0.0) || !(backoff_factor >= 1.0) ||
      !(backoff_max_minutes >= backoff_initial_minutes)) {
    return Status::InvalidArgument(
        "migration backoff must have positive initial delay, factor >= 1, "
        "and cap >= initial");
  }
  if (max_retries < 0) {
    return Status::InvalidArgument("migration max_retries must be >= 0");
  }
  if (!(rollback_cooldown_minutes >= 0.0)) {
    return Status::InvalidArgument(
        "migration rollback_cooldown_minutes must be non-negative");
  }
  return Status::OK();
}

std::vector<MigrationStep> BuildMigrationSteps(
    const std::vector<PartitionLayout>& current,
    const std::vector<PartitionLayout>& target) {
  VOD_CHECK(current.size() == target.size());
  std::vector<MigrationStep> reclaims;
  std::vector<MigrationStep> grants;
  for (size_t i = 0; i < current.size(); ++i) {
    const PartitionLayout& from = current[i];
    const PartitionLayout& to = target[i];
    if (SameLayout(from, to)) continue;
    const auto movie = static_cast<int32_t>(i);
    const bool shrink_n = to.streams() <= from.streams();
    const bool shrink_b = to.buffer_minutes() <= from.buffer_minutes();
    if (shrink_n && shrink_b) {
      reclaims.push_back(MigrationStep{movie, true, from, to});
    } else if (!shrink_n && !shrink_b) {
      grants.push_back(MigrationStep{movie, false, from, to});
    } else {
      // Mixed: release the shrinking dimension first, grow the other once
      // the pool has been fed by every reclaim.
      const int mid_n = std::min(from.streams(), to.streams());
      const double mid_b =
          std::min(from.buffer_minutes(), to.buffer_minutes());
      auto mid = PartitionLayout::FromBuffer(from.movie_length(), mid_n,
                                             mid_b);
      VOD_CHECK(mid.ok());
      reclaims.push_back(MigrationStep{movie, true, from, *mid});
      grants.push_back(MigrationStep{movie, false, *mid, to});
    }
  }
  std::vector<MigrationStep> steps = std::move(reclaims);
  steps.insert(steps.end(), grants.begin(), grants.end());
  return steps;
}

MigrationEngine::MigrationEngine(const MigrationOptions& options,
                                 int64_t stream_budget, double buffer_budget,
                                 int64_t free_streams, double free_buffer,
                                 EventLog* log)
    : options_(options),
      stream_budget_(stream_budget),
      buffer_budget_(buffer_budget),
      free_streams_(free_streams),
      free_buffer_(free_buffer),
      log_(log) {
  VOD_CHECK(free_streams >= 0 && free_buffer >= -kBufferEps);
}

void MigrationEngine::EmitEvent(double t, ControllerEvent sub, int32_t movie,
                                int64_t id, double value, uint8_t aux) {
  if (!ObsEnabled(log_, EventCategory::kController)) return;
  log_->Emit(t, EventCategory::kController, static_cast<uint8_t>(sub), movie,
             id, value, aux);
}

bool MigrationEngine::Begin(double t, std::vector<MigrationStep> steps,
                            int64_t epoch) {
  if (in_flight_ || steps.empty() || t < cooldown_until_) return false;
  steps_ = std::move(steps);
  applied_.clear();
  next_step_ = 0;
  retries_ = 0;
  epoch_ = epoch;
  in_flight_ = true;
  outcome_ = Outcome::kNone;
  ++migrations_started_;
  steps_planned_ += static_cast<int64_t>(steps_.size());
  return true;
}

int64_t MigrationEngine::inflight_streams() const {
  int64_t sum = 0;
  for (const Landing& l : inflight_) sum += l.streams;
  return sum;
}

double MigrationEngine::inflight_buffer() const {
  double sum = 0.0;
  for (const Landing& l : inflight_) sum += l.buffer;
  return sum;
}

void MigrationEngine::Land(double t) {
  size_t kept = 0;
  for (size_t i = 0; i < inflight_.size(); ++i) {
    if (inflight_[i].ready_time <= t) {
      free_streams_ += inflight_[i].streams;
      free_buffer_ += inflight_[i].buffer;
    } else {
      inflight_[kept++] = inflight_[i];
    }
  }
  inflight_.resize(kept);
}

double MigrationEngine::BackoffDelay() const {
  double delay = options_.backoff_initial_minutes;
  for (int i = 1; i < retries_; ++i) {
    delay *= options_.backoff_factor;
    if (delay >= options_.backoff_max_minutes) break;
  }
  return std::min(delay, options_.backoff_max_minutes);
}

double MigrationEngine::Advance(double t, ControllerHost* host) {
  Land(t);
  if (!in_flight_) {
    // Idle, but drains may still be maturing into the free pool.
    double next = kInf;
    for (const Landing& l : inflight_) {
      next = std::min(next, l.ready_time);
    }
    return next;
  }

  while (next_step_ < steps_.size()) {
    const MigrationStep& step = steps_[next_step_];
    if (step.reclaim) {
      if (host->ReclaimBlocked()) {
        ++retries_;
        ++blocked_attempts_;
        EmitEvent(t, ControllerEvent::kBlocked, step.movie, epoch_,
                  static_cast<double>(retries_), /*aux=*/1);
        if (retries_ > options_.max_retries) {
          Rollback(t, host);
          return kInf;
        }
        return t + BackoffDelay();
      }
      host->CommitLayout(step.movie, t, step.to);
      const int64_t freed_streams = step.from.streams() - step.to.streams();
      const double freed_buffer =
          step.from.buffer_minutes() - step.to.buffer_minutes();
      if (freed_streams > 0 || freed_buffer > kBufferEps) {
        // The old window keeps serving already-enrolled viewers until the
        // schedule's last pre-commit restart drains past it.
        const double ready =
            t + step.from.window() + options_.drain_slack_minutes;
        inflight_.push_back(Landing{migrations_started_, next_step_, ready,
                                    freed_streams, freed_buffer});
      }
      applied_.push_back(next_step_);
      ++steps_applied_;
      ++next_step_;
      retries_ = 0;
      EmitEvent(t, ControllerEvent::kReclaim, step.movie, epoch_,
                static_cast<double>(freed_streams));
    } else {
      const int64_t need_streams = step.to.streams() - step.from.streams();
      const double need_buffer =
          step.to.buffer_minutes() - step.from.buffer_minutes();
      if (need_streams > free_streams_ ||
          need_buffer > free_buffer_ + kBufferEps) {
        const bool covered_by_drains =
            need_streams <= free_streams_ + inflight_streams() &&
            need_buffer <= free_buffer_ + inflight_buffer() + kBufferEps;
        if (covered_by_drains) {
          // Not a fault — resources are en route; wake at the next landing.
          double next = kInf;
          for (const Landing& l : inflight_) {
            next = std::min(next, l.ready_time);
          }
          VOD_CHECK(next < kInf);
          return next;
        }
        // Genuinely short: the budget shrank mid-flight. Back off in case
        // capacity returns, then give up.
        ++retries_;
        ++blocked_attempts_;
        EmitEvent(t, ControllerEvent::kBlocked, step.movie, epoch_,
                  static_cast<double>(retries_), /*aux=*/0);
        if (retries_ > options_.max_retries) {
          Rollback(t, host);
          return kInf;
        }
        return t + BackoffDelay();
      }
      free_streams_ -= need_streams;
      free_buffer_ -= need_buffer;
      if (free_buffer_ < 0.0) free_buffer_ = 0.0;  // quantization dust
      host->CommitLayout(step.movie, t, step.to);
      applied_.push_back(next_step_);
      ++steps_applied_;
      ++next_step_;
      retries_ = 0;
      EmitEvent(t, ControllerEvent::kGrant, step.movie, epoch_,
                static_cast<double>(need_streams));
    }
  }

  // Every step applied: the migration is committed. Remaining drains keep
  // maturing into the free pool.
  in_flight_ = false;
  outcome_ = Outcome::kCommitted;
  ++migrations_committed_;
  EmitEvent(t, ControllerEvent::kCommit, -1, epoch_,
            static_cast<double>(steps_.size()));
  double next = kInf;
  for (const Landing& l : inflight_) next = std::min(next, l.ready_time);
  return next;
}

void MigrationEngine::Abort(double t, ControllerHost* host) {
  if (!in_flight_) return;
  Rollback(t, host);
}

void MigrationEngine::Rollback(double t, ControllerHost* host) {
  // Unwind in reverse application order. Restoring a reclaimed movie takes
  // its resources back out of the pool (or cancels the in-flight landing);
  // restoring a granted movie returns what it was given.
  for (size_t i = applied_.size(); i-- > 0;) {
    const size_t idx = applied_[i];
    const MigrationStep& step = steps_[idx];
    host->CommitLayout(step.movie, t, step.from);
    if (step.reclaim) {
      bool cancelled = false;
      for (size_t j = 0; j < inflight_.size(); ++j) {
        if (inflight_[j].migration == migrations_started_ &&
            inflight_[j].step_index == idx) {
          inflight_.erase(inflight_.begin() + static_cast<ptrdiff_t>(j));
          cancelled = true;
          break;
        }
      }
      if (!cancelled) {
        // Already landed: pull it back out of the free pool.
        free_streams_ -= step.from.streams() - step.to.streams();
        free_buffer_ -=
            step.from.buffer_minutes() - step.to.buffer_minutes();
        if (free_buffer_ < 0.0 && free_buffer_ > -kBufferEps) {
          free_buffer_ = 0.0;
        }
      }
    } else {
      free_streams_ += step.to.streams() - step.from.streams();
      free_buffer_ +=
          step.to.buffer_minutes() - step.from.buffer_minutes();
    }
  }
  const double unwound = static_cast<double>(applied_.size());
  applied_.clear();
  next_step_ = steps_.size();
  in_flight_ = false;
  outcome_ = Outcome::kRolledBack;
  ++rollbacks_;
  cooldown_until_ = t + options_.rollback_cooldown_minutes;
  EmitEvent(t, ControllerEvent::kRollback, -1, epoch_, unwound);
}

}  // namespace vod
