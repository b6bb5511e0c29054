// Analytic hit-probability model (paper §3).
//
// Computes P(hit) — the probability that a viewer resuming from a VCR
// operation lands inside some buffer partition, releasing the I/O stream
// dedicated to the operation — as a function of the layout (l, B, n, w), the
// playback rates, and a *general* duration distribution per operation.
//
// Formulation (equivalent to the paper's Eqs. 3–21 for FF; see
// paper_equations.h for the literal transcription used in cross-tests):
//
//   P(hit | op) = E_{V_c, d} [ P(X ∈ HitIntervals(op, d) ∩ Clip(op, V_c)) ]
//                 (+ P(fast-forward past movie end), for FF)
//
// with V_c ~ U[0, l] (paper's P(V_c) = 1/l) and d ~ U[0, B/n] (paper's
// P(V_f) = 1/(B/n)). Both expectations are closed forms:
//
//  * V_c: a clip boundary c (c = l − V_c for FF, c = V_c for RW) turns F
//    into G(b) = E[F(min(b, c))] = J(b)/l with
//      J(b) = Fint(min(b, l)) + (l − min(b, l))·F(b),   Fint(b) = ∫_0^b F.
//    PAU needs no clip (the window pattern is periodic in time; "pause of
//    x > l is equivalent to x mod l", §2.1), so G = F.
//  * d: every window endpoint is affine in d with slope ±s (s = α for FF,
//    γ for RW, 1 for PAU), so as d sweeps [0, W] an endpoint sweeps a range
//    of width sW and its d-average of G is G's mean over that range. With
//    S = 1 − G, S̄(x) its mean over [x, x + sW], W = B/n and T = l/n:
//      P(hit | op) = [1 − S̄(0)] + Σ_{k≥1} [S̄(s(kT − W)) − S̄(s·kT)]
//    (the bracket is hit_w, the sum the jumps to other partitions).
//
// CompiledDuration tabulates ∫S once per (distribution, movie), so one
// P(hit) costs O(n) table lookups and no CDF evaluation.

#ifndef VOD_CORE_HIT_MODEL_H_
#define VOD_CORE_HIT_MODEL_H_

#include <memory>
#include <vector>

#include "core/partition_layout.h"
#include "core/types.h"
#include "dist/distribution.h"
#include "numerics/antiderivative.h"

namespace vod {

/// Per-operation duration distributions. The paper allows a different f(x)
/// per operation (Figure 7 uses the same gamma for all three).
struct VcrDurations {
  DistributionPtr fast_forward;
  DistributionPtr rewind;
  DistributionPtr pause;

  /// All three operations draw from the same distribution.
  static VcrDurations AllSame(DistributionPtr d) {
    return VcrDurations{d, d, d};
  }

  const Distribution* ForOp(VcrOp op) const {
    switch (op) {
      case VcrOp::kFastForward:
        return fast_forward.get();
      case VcrOp::kRewind:
        return rewind.get();
      case VcrOp::kPause:
        return pause.get();
    }
    return nullptr;
  }
};

/// Decomposition of the release probability (paper Eq. 21 terms).
struct HitProbabilityBreakdown {
  /// Hit within the partition where the operation was issued (hit_w).
  double within = 0.0;
  /// Hit in another partition (Σ_i hit_j^i).
  double jump = 0.0;
  /// FF past the movie end (P(end)); the stream is also released. Zero for
  /// RW and PAU (the model counts a rewind past the beginning as a miss,
  /// matching the paper's stated convention in §4).
  double end = 0.0;

  double total() const { return within + jump + end; }
};

/// \brief Duration distribution pre-processed for repeated model queries.
///
/// Compilation samples F once on [0, l] (and on doubling segments past l
/// for PAU) and tabulates the position-weighted CDF integrals and the
/// integrals of each operation's survival S = 1 − G; reuse one
/// CompiledDuration across a sweep of layouts for the same movie length
/// (Figure 8 sweeps hundreds of (B, n) pairs per movie). Copies share the
/// tables.
///
/// The optional `position_density` generalizes the paper's uniformity
/// assumption P(V_c) = 1/l: pass any distribution q on [0, l] (e.g. a
/// truncated exponential modeling viewer abandonment — active viewers skew
/// toward early positions) and the model unconditions over V_c ~ q instead.
/// Null means uniform, exactly the paper's Eqs. (7)/(8).
class CompiledDuration {
 public:
  /// \param movie_length  l; the tables cover [0, l].
  /// \param position_density  V_c density q on [0, l]; null = uniform.
  static Result<CompiledDuration> Create(
      DistributionPtr duration, double movie_length,
      DistributionPtr position_density = nullptr);

  double Cdf(double x) const { return duration_->Cdf(x); }

  /// E_{V_c~q}[ F(min(b, l − V_c)) ]: the V_c-averaged probability of a
  /// fast-forward landing below its end-of-movie clip. Non-decreasing in b;
  /// at b >= l it equals 1 − P(end).
  double FastForwardClipAverage(double b) const;

  /// E_{V_c~q}[ F(min(b, V_c)) ]: the rewind analogue (clip at the movie
  /// start).
  double RewindClipAverage(double b) const;

  /// P(end) = E_{V_c~q}[ 1 − F(l − V_c) ] (paper Eq. 20 under q).
  double EndReleaseProbability() const;

  /// ∫_x^{x+width} S(u) du with S = 1 − G, where G is the CDF that op's hit
  /// windows are measured through: FastForwardClipAverage (FF),
  /// RewindClipAverage (RW) or Cdf (PAU); G = 0 below 0. For PAU this is
  /// E[min(X, x + width)] − E[min(X, x)]. Beyond the PAU tables (past
  /// the tail quantile) S counts as 0. Precise for widths far below the
  /// table's cell size.
  double SurvivalIntegral(VcrOp op, double x, double width) const;

  double movie_length() const { return movie_length_; }
  double tail_quantile() const { return tail_quantile_; }
  const Distribution& distribution() const { return *duration_; }
  /// Null when the paper's uniform assumption is in force.
  const Distribution* position_density() const {
    return position_density_.get();
  }

 private:
  CompiledDuration() = default;

  /// q's CDF (uniform when position_density_ is null).
  double PositionCdf(double v) const;

  /// A_ff(b) = ∫_0^b q(l − c)·F(c) dc (FF) or A_rw(b) = ∫_0^b q(c)·F(c) dc
  /// (RW), for b in [0, l].
  double WeightedCdfIntegral(VcrOp op, double b) const;

  DistributionPtr duration_;
  DistributionPtr position_density_;  // null = uniform on [0, l]
  /// A_ff and A_rw tables; null under uniform q, where both are Fint/l and
  /// come from the PAU table.
  std::shared_ptr<const TabulatedAntiderivative> weighted_ff_;
  std::shared_ptr<const TabulatedAntiderivative> weighted_rw_;
  /// ∫S for FF and RW on [0, l] (S is constant past l); one table serves
  /// both under uniform q.
  std::shared_ptr<const TabulatedAntiderivative> survival_ff_;
  std::shared_ptr<const TabulatedAntiderivative> survival_rw_;
  /// ∫(1 − F) on [0, l], then on [l·2^(k−1), l·2^k] for k = 1, 2, ... until
  /// the tail quantile is covered.
  std::shared_ptr<const std::vector<TabulatedAntiderivative>> survival_pause_;
  double movie_length_ = 0.0;
  double tail_quantile_ = 0.0;
};

/// Tuning knobs of AnalyticHitModel.
struct HitModelOptions {
  /// Include P(end) in FF results (paper Eq. 21 does). Setting this false
  /// isolates the pure in-buffer hit probability.
  bool include_end_release = true;
  /// Viewer-position density q on [0, l] used when compiling durations on
  /// the fly; null = the paper's uniform P(V_c) = 1/l.
  DistributionPtr position_density;
};

/// \brief The analytic model, bound to one layout and rate configuration.
class AnalyticHitModel {
 public:
  using Options = HitModelOptions;

  /// Most hit windows one P(hit | op) enumerates: ⌈(x_max/s + W)/T⌉ for the
  /// duration cap x_max (the tail quantile, and at most l for FF/RW).
  static constexpr double kMaxHitWindows = 1 << 24;

  /// Returns InvalidArgument if the rates are inconsistent.
  static Result<AnalyticHitModel> Create(const PartitionLayout& layout,
                                         const PlaybackRates& rates,
                                         const Options& options = {});

  /// Release-probability decomposition for one operation. Returns
  /// InvalidArgument when the duration tail spans more hit windows than
  /// the model enumerates (kMaxHitWindows).
  Result<HitProbabilityBreakdown> Breakdown(
      VcrOp op, const CompiledDuration& duration) const;

  /// P(hit | op) per the paper's Eq. 21 convention.
  Result<double> HitProbability(VcrOp op,
                                const CompiledDuration& duration) const;

  /// Convenience overloads that compile the distribution on the fly.
  Result<HitProbabilityBreakdown> Breakdown(VcrOp op,
                                            DistributionPtr duration) const;
  Result<double> HitProbability(VcrOp op, DistributionPtr duration) const;

  /// P(hit) = Σ_op P_op · P(hit | op)  (paper Eq. 22). Operations with zero
  /// mix probability are skipped and may have null distributions.
  Result<double> HitProbability(const VcrMix& mix,
                                const VcrDurations& durations) const;

  const PartitionLayout& layout() const { return layout_; }
  const PlaybackRates& rates() const { return rates_; }
  const Options& options() const { return options_; }

 private:
  AnalyticHitModel(const PartitionLayout& layout, const PlaybackRates& rates,
                   const Options& options)
      : layout_(layout), rates_(rates), options_(options) {}

  PartitionLayout layout_;
  PlaybackRates rates_;
  Options options_;
};

}  // namespace vod

#endif  // VOD_CORE_HIT_MODEL_H_
