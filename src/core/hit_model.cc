#include "core/hit_model.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

namespace vod {

namespace {

/// The PAU tables double past l at most this often (see Create).
constexpr int kMaxTailDoublings = 24;
/// Cells per duration table on [0, l]; an eighth of that per PAU tail
/// segment.
constexpr int kTableCells = 4096;
/// Hit windows beyond the (1 − kTailEpsilon) duration quantile are ignored.
constexpr double kTailEpsilon = 1e-10;

}  // namespace

Result<CompiledDuration> CompiledDuration::Create(
    DistributionPtr duration, double movie_length,
    DistributionPtr position_density) {
  if (duration == nullptr) {
    return Status::InvalidArgument("duration distribution is null");
  }
  if (!(movie_length > 0.0)) {
    return Status::InvalidArgument("movie length must be positive");
  }
  if (duration->SupportLower() < 0.0) {
    return Status::InvalidArgument(
        "VCR durations must be non-negative (support lower bound < 0)");
  }
  if (position_density != nullptr &&
      (position_density->SupportLower() < -1e-9 ||
       position_density->SupportUpper() > movie_length + 1e-9)) {
    return Status::InvalidArgument(
        "position density must be supported on [0, movie length]");
  }
  CompiledDuration compiled;
  compiled.duration_ = duration;
  compiled.position_density_ = position_density;
  compiled.movie_length_ = movie_length;

  // Tail quantile; for distributions with bounded support Quantile may equal
  // the support end.
  if (duration->Cdf(duration->SupportUpper()) >= 1.0 &&
      std::isfinite(duration->SupportUpper())) {
    compiled.tail_quantile_ = duration->SupportUpper();
  } else {
    compiled.tail_quantile_ = duration->Quantile(1.0 - kTailEpsilon);
  }

  // PAU has no clip: ∫(1 − F) on [0, l] first. That table's samples are the
  // one pass of F over [0, l] that every other table is built from.
  const double l = movie_length;
  auto pause = std::make_shared<std::vector<TabulatedAntiderivative>>();
  pause->emplace_back(
      [&duration](double x) { return 1.0 - duration->Cdf(x); }, 0.0, l,
      kTableCells);
  compiled.survival_pause_ = pause;
  const TabulatedAntiderivative& head = pause->front();
  const std::vector<double>& survival = head.samples();
  const size_t count = survival.size();

  // An op's ∫(1 − G) from its weighted CDF integral A and the probability
  // p(b) that its clip lies above b: G(b) = A(b) + F(b)·p(b) on [0, l].
  const auto clip_table = [&](const auto& weighted, const auto& clip_above) {
    std::vector<double> samples(count);
    for (size_t i = 0; i < count; ++i) {
      const double x = head.SamplePoint(i);
      samples[i] =
          1.0 - (weighted(x) + (1.0 - survival[i]) * clip_above(i, x));
    }
    return std::make_shared<const TabulatedAntiderivative>(std::move(samples),
                                                           0.0, l);
  };
  if (position_density == nullptr) {
    // With q uniform FF and RW coincide, and A = Fint/l (the paper's Eqs.
    // (7)/(8)) is read from the PAU table (see WeightedCdfIntegral).
    compiled.survival_ff_ = clip_table(
        [&compiled](double x) {
          return compiled.WeightedCdfIntegral(VcrOp::kFastForward, x);
        },
        [l](size_t, double x) { return (l - x) / l; });
    compiled.survival_rw_ = compiled.survival_ff_;
  } else {
    std::vector<double> pdf(count);
    std::vector<double> position_cdf(count);
    for (size_t i = 0; i < count; ++i) {
      pdf[i] = position_density->Pdf(head.SamplePoint(i));
      position_cdf[i] = position_density->Cdf(head.SamplePoint(i));
    }
    // The grid is symmetric: point `last − i` is l − x_i.
    const size_t last = count - 1;
    const auto weighted_table = [&](const auto& weight) {
      std::vector<double> samples(count);
      for (size_t i = 0; i < count; ++i) {
        samples[i] = weight(i) * (1.0 - survival[i]);
      }
      return std::make_shared<const TabulatedAntiderivative>(
          std::move(samples), 0.0, l);
    };
    compiled.weighted_ff_ =
        weighted_table([&](size_t i) { return pdf[last - i]; });
    compiled.weighted_rw_ = weighted_table([&](size_t i) { return pdf[i]; });
    compiled.survival_ff_ = clip_table(
        [&compiled](double x) { return (*compiled.weighted_ff_)(x); },
        [&](size_t i, double) { return position_cdf[last - i]; });
    compiled.survival_rw_ = clip_table(
        [&compiled](double x) { return (*compiled.weighted_rw_)(x); },
        [&](size_t i, double) { return 1.0 - position_cdf[i]; });
  }

  // PAU's doubling segments out to the tail quantile, with an eighth of the
  // cells: S <= 1 − F(l) there and flattens as it decays. Past
  // kMaxTailDoublings every PAU query exceeds the window cap (T <= l), so no
  // accepted query reads beyond the tables.
  for (int k = 1; k <= kMaxTailDoublings &&
                  pause->back().upper() < compiled.tail_quantile_;
       ++k) {
    const double lo = pause->back().upper();
    pause->emplace_back(
        [&duration](double x) { return 1.0 - duration->Cdf(x); }, lo,
        2.0 * lo, kTableCells / 8);
  }
  return compiled;
}

double CompiledDuration::PositionCdf(double v) const {
  if (position_density_ == nullptr) {
    if (v <= 0.0) return 0.0;
    if (v >= movie_length_) return 1.0;
    return v / movie_length_;
  }
  return position_density_->Cdf(v);
}

double CompiledDuration::WeightedCdfIntegral(VcrOp op, double b) const {
  const auto& table = op == VcrOp::kFastForward ? weighted_ff_ : weighted_rw_;
  if (table != nullptr) return (*table)(b);
  // Uniform q: A(b) = Fint(b)/l = (b − ∫_0^b (1 − F))/l.
  return (b - survival_pause_->front()(b)) / movie_length_;
}

double CompiledDuration::FastForwardClipAverage(double b) const {
  // E_q[F(min(b, l − V_c))] = ∫_0^min(b,l) q(l−c)F(c)dc
  //                           + F(b)·P(V_c < l − min(b,l)).
  if (b <= 0.0) return 0.0;
  const double capped = std::min(b, movie_length_);
  return WeightedCdfIntegral(VcrOp::kFastForward, capped) +
         duration_->Cdf(b) * PositionCdf(movie_length_ - capped);
}

double CompiledDuration::RewindClipAverage(double b) const {
  // E_q[F(min(b, V_c))] = ∫_0^min(b,l) q(c)F(c)dc + F(b)·P(V_c > min(b,l)).
  if (b <= 0.0) return 0.0;
  const double capped = std::min(b, movie_length_);
  return WeightedCdfIntegral(VcrOp::kRewind, capped) +
         duration_->Cdf(b) * (1.0 - PositionCdf(capped));
}

double CompiledDuration::EndReleaseProbability() const {
  // E_q[1 − F(l − V_c)] = 1 − A_ff(l).
  return 1.0 - WeightedCdfIntegral(VcrOp::kFastForward, movie_length_);
}

double CompiledDuration::SurvivalIntegral(VcrOp op, double x,
                                          double width) const {
  double sum = 0.0;
  if (x < 0.0) {
    // G = 0 below 0, so S = 1 there.
    const double below = std::min(-x, width);
    sum += below;
    width -= below;
    x = 0.0;
  }
  if (op == VcrOp::kPause) {
    // Segment k >= 1 covers [l·2^(k−1), l·2^k]; a window is at most T <= l
    // wide, so it straddles at most one segment end.
    const std::vector<TabulatedAntiderivative>& segments = *survival_pause_;
    int first = 0;
    if (x > movie_length_) std::frexp(x / movie_length_, &first);
    for (size_t k = static_cast<size_t>(first); k < segments.size(); ++k) {
      sum += segments[k].Integral(x, width);
      const double inside = segments[k].upper() - x;
      if (width <= inside) break;
      if (inside > 0.0) {
        width -= inside;
        x = segments[k].upper();
      }
    }
    return sum;
  }
  const bool ff = op == VcrOp::kFastForward;
  sum += (ff ? survival_ff_ : survival_rw_)->Integral(x, width);
  // Past l the clip average stays at A(l), so S stays at 1 − A(l).
  const double inside = std::max(movie_length_ - x, 0.0);
  if (width > inside) {
    sum += (1.0 - WeightedCdfIntegral(op, movie_length_)) * (width - inside);
  }
  return sum;
}

Result<AnalyticHitModel> AnalyticHitModel::Create(
    const PartitionLayout& layout, const PlaybackRates& rates,
    const Options& options) {
  VOD_RETURN_IF_ERROR(rates.Validate());
  return AnalyticHitModel(layout, rates, options);
}

Result<HitProbabilityBreakdown> AnalyticHitModel::Breakdown(
    VcrOp op, const CompiledDuration& duration) const {
  const double l = layout_.movie_length();
  if (std::fabs(duration.movie_length() - l) > 1e-9) {
    return Status::InvalidArgument(
        "CompiledDuration was built for a different movie length");
  }
  HitProbabilityBreakdown out;
  if (op == VcrOp::kFastForward && options_.include_end_release) {
    // P(end) = E_q[1 − F(l − V_c)] (Eq. 20 under the position density).
    // Duration mass beyond l also counts as reaching the end (a
    // fast-forward longer than the remaining movie terminates there).
    out.end = duration.EndReleaseProbability();
  }
  const double window = layout_.window();
  if (window <= 0.0) return out;  // pure batching: no buffered windows
  const double period = layout_.restart_period();

  // Scale factor from relative displacement to operation duration x.
  double scale = 1.0;
  switch (op) {
    case VcrOp::kFastForward:
      scale = rates_.Alpha();
      break;
    case VcrOp::kRewind:
      scale = rates_.Gamma();
      break;
    case VcrOp::kPause:
      scale = 1.0;
      break;
  }
  // Enumeration cap: FF/RW traverse at most l movie-minutes before hitting a
  // movie boundary; PAU durations are unbounded (periodic restarts).
  double x_max = duration.tail_quantile();
  if (op != VcrOp::kPause) x_max = std::min(x_max, l);
  const double windows = std::ceil((x_max / scale + window) / period);
  if (!(windows <= kMaxHitWindows)) {
    std::ostringstream reason;
    reason << VcrOpName(op) << " durations up to the tail quantile "
           << x_max << " span " << windows
           << " hit windows of period " << period
           << ", over the model's cap of 2^24";
    return Status::InvalidArgument(reason.str());
  }

  // As d sweeps [0, W] each window endpoint sweeps a range of width sW, and
  // its d-average of G is 1 − (the mean of S over that range): window k's
  // lower end sweeps [s(kT − W), skT], its upper end [skT, s(kT + W)].
  const double sweep = scale * window;
  const auto mean_survival = [&](double x) {
    return duration.SurvivalIntegral(op, x, sweep) / sweep;
  };
  out.within = 1.0 - mean_survival(0.0);
  double jump = 0.0;
  for (int k = 1; scale * (k * period - window) <= x_max; ++k) {
    const double edge = scale * (k * period);
    jump += mean_survival(edge - sweep) - mean_survival(edge);
  }
  out.jump = std::max(jump, 0.0);
  return out;
}

Result<double> AnalyticHitModel::HitProbability(
    VcrOp op, const CompiledDuration& duration) const {
  VOD_ASSIGN_OR_RETURN(const HitProbabilityBreakdown breakdown,
                       Breakdown(op, duration));
  return breakdown.total();
}

Result<HitProbabilityBreakdown> AnalyticHitModel::Breakdown(
    VcrOp op, DistributionPtr duration) const {
  VOD_ASSIGN_OR_RETURN(
      const CompiledDuration compiled,
      CompiledDuration::Create(std::move(duration), layout_.movie_length(),
                               options_.position_density));
  return Breakdown(op, compiled);
}

Result<double> AnalyticHitModel::HitProbability(VcrOp op,
                                                DistributionPtr duration) const {
  VOD_ASSIGN_OR_RETURN(const HitProbabilityBreakdown breakdown,
                       Breakdown(op, std::move(duration)));
  return breakdown.total();
}

Result<double> AnalyticHitModel::HitProbability(
    const VcrMix& mix, const VcrDurations& durations) const {
  VOD_RETURN_IF_ERROR(mix.Validate());
  double total = 0.0;
  for (VcrOp op : kAllVcrOps) {
    const double p_op = mix.Probability(op);
    if (p_op <= 0.0) continue;
    DistributionPtr dist;
    switch (op) {
      case VcrOp::kFastForward:
        dist = durations.fast_forward;
        break;
      case VcrOp::kRewind:
        dist = durations.rewind;
        break;
      case VcrOp::kPause:
        dist = durations.pause;
        break;
    }
    if (dist == nullptr) {
      return Status::InvalidArgument(
          std::string("mix assigns probability to ") + VcrOpName(op) +
          " but no duration distribution was provided");
    }
    VOD_ASSIGN_OR_RETURN(const double p_hit, HitProbability(op, dist));
    total += p_op * p_hit;
  }
  return total;
}

}  // namespace vod
