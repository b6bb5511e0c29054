#include "ctrl/controller.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/check.h"

namespace vod {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Rate floor for the planner: a silent movie still needs a positive rate.
constexpr double kMinPlanRate = 1e-6;
}  // namespace

Status ControllerOptions::Validate() const {
  if (!(poll_interval_minutes > 0.0) || !std::isfinite(poll_interval_minutes)) {
    return Status::InvalidArgument(
        "controller poll_interval_minutes must be finite and positive");
  }
  if (!(min_replan_gap_minutes >= 0.0)) {
    return Status::InvalidArgument(
        "controller min_replan_gap_minutes must be non-negative");
  }
  return Status::OK();
}

std::string ControllerReport::ToString() const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "ControllerReport{epoch=" << final_epoch
     << " plans_solved=" << plans_solved << " drift_alarms=" << drift_alarms
     << " migrations=" << migrations_committed << "/" << migrations_started
     << " rollbacks=" << rollbacks << " steps=" << steps_applied << "/"
     << steps_planned << " blocked=" << blocked_attempts
     << " sheds=" << admission_sheds << " (" << sheds_by_class[0] << "/"
     << sheds_by_class[1] << "/" << sheds_by_class[2] << ")"
     << " last_commit=" << last_commit_time << "}";
  return os.str();
}

Controller::Controller(const ControllerOptions& options,
                       std::vector<ControllerMovie> movies,
                       ControllerHost* host, EventLog* log)
    : options_(options), host_(host), log_(log) {
  VOD_CHECK(host != nullptr);
  VOD_CHECK(!movies.empty());
  movies_.reserve(movies.size());
  for (ControllerMovie& m : movies) {
    MovieState state;
    state.config = m;
    movies_.push_back(std::move(state));
  }
  policy_ = std::make_unique<TrafficPolicy>(host_, log_);
}

void Controller::EmitEvent(double t, ControllerEvent sub, int32_t movie,
                           int64_t id, double value, uint8_t aux) {
  if (!ObsEnabled(log_, EventCategory::kController)) return;
  log_->Emit(t, EventCategory::kController, static_cast<uint8_t>(sub), movie,
             id, value, aux);
}

std::vector<PartitionLayout> Controller::LiveLayouts() const {
  std::vector<PartitionLayout> live;
  live.reserve(movies_.size());
  for (size_t i = 0; i < movies_.size(); ++i) {
    live.push_back(host_->LiveLayout(static_cast<int32_t>(i)));
  }
  return live;
}

void Controller::Start(double t0) {
  VOD_CHECK(!started_);
  started_ = true;

  // Budgets = everything the initial configuration holds, plus slack.
  const std::vector<PartitionLayout> live = LiveLayouts();
  int64_t live_streams = 0;
  double live_buffer = 0.0;
  committed_.epoch = 0;
  committed_.movies.clear();
  committed_.solved_rates.clear();
  std::vector<double> baselines;
  for (size_t i = 0; i < movies_.size(); ++i) {
    live_streams += live[i].streams();
    live_buffer += live[i].buffer_minutes();
    MoviePlanEntry entry;
    entry.streams = live[i].streams();
    entry.buffer_minutes = live[i].buffer_minutes();
    committed_.movies.push_back(entry);
    const double rate = movies_[i].config.baseline_rate;
    committed_.solved_rates.push_back(rate);
    baselines.push_back(rate);
    movies_[i].estimator = std::make_unique<RateEstimator>(rate, t0);
  }
  // Resource slack granted beyond the sum of the initial layouts.
  constexpr int64_t kExtraStreamSlack = 0;
  constexpr double kExtraBufferSlack = 0.0;
  stream_budget_ = live_streams + kExtraStreamSlack;
  buffer_budget_ = live_buffer + kExtraBufferSlack;
  engine_ = std::make_unique<MigrationEngine>(
      stream_budget_, buffer_budget_, kExtraStreamSlack, kExtraBufferSlack,
      log_);
  policy_->Configure(baselines, t0);
}

void Controller::ObserveArrival(int32_t movie, double t) {
  VOD_CHECK(started_);
  VOD_CHECK(movie >= 0 && static_cast<size_t>(movie) < movies_.size());
  movies_[static_cast<size_t>(movie)].estimator->Observe(t);
}

bool Controller::OnArrival(int32_t movie, double t) {
  ObserveArrival(movie, t);
  return policy_->OnArrival(movie, t);
}

bool Controller::ReplanTriggered(double t) {
  // Re-plan hysteresis: a movie's relative rate deviation must exceed
  // max(kHysteresisFloor, kHysteresisSigma * sigma_r) — sigma_r is that
  // estimator's noise floor — and hold for kConfirmMinutes before a
  // deviation (as opposed to a Page–Hinkley alarm) triggers a re-plan.
  constexpr double kHysteresisFloor = 0.3;
  constexpr double kHysteresisSigma = 5.0;
  constexpr double kConfirmMinutes = 15.0;
  bool any_alarm = false;
  bool any_deviation = false;
  for (size_t i = 0; i < movies_.size(); ++i) {
    MovieState& m = movies_[i];
    const RateEstimator& est = *m.estimator;
    if (est.DriftAlarm()) {
      if (!m.alarm_counted) {
        m.alarm_counted = true;
        ++drift_alarms_;
        EmitEvent(t, ControllerEvent::kAlarm, static_cast<int32_t>(i), epoch_,
                  est.RateAt(t));
      }
      any_alarm = true;
    }
    const double deviation =
        std::fabs(est.RateAt(t) - est.baseline()) / est.baseline();
    const double threshold =
        std::max(kHysteresisFloor, kHysteresisSigma * est.sigma());
    if (deviation > threshold) any_deviation = true;
  }

  // Migration rate limit / rollback cool-down: alarms stay latched, the
  // re-plan just waits for the gate to open.
  const bool gated = t < engine_->cooldown_until() ||
                     t - last_migration_start_ <
                         options_.min_replan_gap_minutes;

  if (any_alarm) {
    deviation_armed_ = false;
    return !gated;
  }
  if (any_deviation) {
    if (!deviation_armed_) {
      deviation_armed_ = true;
      deviation_since_ = t;
      return false;
    }
    return !gated && t - deviation_since_ >= kConfirmMinutes;
  }
  deviation_armed_ = false;
  return false;
}

void Controller::Replan(double t) {
  // Per-movie planner bounds.
  constexpr int kMaxStreamsPerMovie = 64;
  constexpr double kMaxBufferFraction = 0.9;
  std::vector<PlannerMovie> inputs;
  inputs.reserve(movies_.size());
  for (MovieState& m : movies_) {
    PlannerMovie pm;
    pm.movie_length = m.config.movie_length;
    pm.rate = std::max(m.estimator->RateAt(t), kMinPlanRate);
    pm.min_streams = 1;
    pm.max_streams = kMaxStreamsPerMovie;
    pm.max_buffer_fraction = kMaxBufferFraction;
    inputs.push_back(pm);
  }
  auto solved = SolvePlan(inputs, stream_budget_, buffer_budget_);
  if (!solved.ok()) return;  // infeasible budgets: keep the committed plan
  ++plans_solved_;
  EmitEvent(t, ControllerEvent::kReplan, -1, epoch_ + 1, solved->objective);

  auto quiesce = [&](const BufferPlan& plan) {
    // The live allocation already matches: adopt the rates as the new
    // baselines so the detectors unlatch, and migrate nothing.
    for (size_t i = 0; i < movies_.size(); ++i) {
      movies_[i].estimator->Rebase(plan.solved_rates[i]);
      movies_[i].alarm_counted = false;
    }
    deviation_armed_ = false;
  };

  if (solved->SameAllocation(committed_)) {
    quiesce(*solved);
    return;
  }

  std::vector<PartitionLayout> target;
  target.reserve(movies_.size());
  for (size_t i = 0; i < movies_.size(); ++i) {
    auto layout =
        LayoutForEntry(movies_[i].config.movie_length, solved->movies[i]);
    VOD_CHECK(layout.ok());
    target.push_back(*layout);
  }
  std::vector<MigrationStep> steps =
      BuildMigrationSteps(LiveLayouts(), target);
  if (steps.empty()) {
    committed_ = std::move(*solved);
    committed_.epoch = epoch_;
    quiesce(committed_);
    return;
  }

  ++epoch_;
  solved->epoch = epoch_;
  pending_ = std::move(*solved);
  pending_valid_ = true;
  const bool began = engine_->Begin(t, std::move(steps), epoch_);
  VOD_CHECK(began);
  last_migration_start_ = t;

  // Priority classes follow the new plan's marginal values immediately:
  // the traffic policy protects the allocation we are moving toward.
  std::vector<size_t> order(movies_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return pending_.movies[a].marginal_value >
           pending_.movies[b].marginal_value;
  });
  for (size_t rank = 0; rank < order.size(); ++rank) {
    const size_t i = order[rank];
    const int cls = static_cast<int>(rank * kNumPriorityClasses /
                                     order.size());
    policy_->Update(static_cast<int32_t>(i), pending_.solved_rates[i], cls);
    EmitEvent(t, ControllerEvent::kClass, static_cast<int32_t>(i), epoch_,
              static_cast<double>(cls), static_cast<uint8_t>(cls));
  }
}

void Controller::CommitPlan(double t) {
  VOD_CHECK(pending_valid_);
  committed_ = pending_;
  pending_valid_ = false;
  last_commit_time_ = t;
  for (size_t i = 0; i < movies_.size(); ++i) {
    movies_[i].estimator->Rebase(committed_.solved_rates[i]);
    movies_[i].alarm_counted = false;
  }
  deviation_armed_ = false;
}

double Controller::OnWakeup(double t) {
  VOD_CHECK(started_);
  auto pump = [&]() {
    const bool was_in_flight = engine_->InFlight();
    const double next = engine_->Advance(t, host_);
    if (was_in_flight && !engine_->InFlight()) {
      if (engine_->last_outcome() == MigrationEngine::Outcome::kCommitted) {
        CommitPlan(t);
      } else {
        pending_valid_ = false;  // rolled back; cool-down is running
      }
    }
    return next;
  };

  double migration_next = pump();
  if (!engine_->InFlight() && ReplanTriggered(t)) {
    Replan(t);
    if (engine_->InFlight()) migration_next = pump();
  }
  return std::min(t + options_.poll_interval_minutes, migration_next);
}

void Controller::OnCapacityChange(double t) {
  if (!started_) return;
  if (engine_->InFlight() && host_->PressureLevel() >= 2) {
    // The system just lost enough capacity that it is shedding hard;
    // holding partition resources in limbo makes it worse. Abort.
    engine_->Abort(t, host_);
    pending_valid_ = false;
  }
}

ControllerReport Controller::Report() const {
  ControllerReport report;
  report.enabled = true;
  report.plans_solved = plans_solved_;
  report.drift_alarms = drift_alarms_;
  if (engine_ != nullptr) {
    report.migrations_started = engine_->migrations_started();
    report.migrations_committed = engine_->migrations_committed();
    report.rollbacks = engine_->rollbacks();
    report.steps_planned = engine_->steps_planned();
    report.steps_applied = engine_->steps_applied();
    report.blocked_attempts = engine_->blocked_attempts();
  }
  report.admission_sheds = policy_->shed_total();
  for (int c = 0; c < kNumPriorityClasses; ++c) {
    report.sheds_by_class[static_cast<size_t>(c)] = policy_->sheds_in_class(c);
  }
  report.final_epoch = epoch_;
  report.last_commit_time = last_commit_time_;
  return report;
}

}  // namespace vod
