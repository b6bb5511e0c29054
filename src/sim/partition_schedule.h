// Partition window geometry over simulated time.
//
// The movie is restarted every T = l/n minutes; stream k starts at time k·T
// and its buffer partition holds the most recently read W = B/n minutes of
// frames: positions [max(0, lead − W), min(lead, l)] where lead = t − k·T.
// The stream reads from disk while lead ∈ [0, l]; the partition persists
// (draining) until its trailing viewer finishes at lead = l + W.

#ifndef VOD_SIM_PARTITION_SCHEDULE_H_
#define VOD_SIM_PARTITION_SCHEDULE_H_

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/partition_layout.h"

namespace vod {

/// \brief Pure (stateless) geometry of the restart schedule.
///
/// Streams are assumed to have started at every anchor + k·T for all
/// integers k (the system has been running forever), so the simulation
/// begins in steady state.
///
/// The `anchor` shifts the whole schedule: stream k starts at
/// anchor + k·T. A layout committed mid-run by the reallocation controller
/// re-anchors its schedule at the commit instant, so the new geometry
/// begins a restart there and admission continuity holds.
class PartitionSchedule {
 public:
  PartitionSchedule(const PartitionLayout& layout, double anchor = 0.0)
      : layout_(layout), anchor_(anchor) {}

  const PartitionLayout& layout() const { return layout_; }
  double anchor() const { return anchor_; }

  /// Start time of stream k.
  double StreamStart(int64_t k) const {
    return anchor_ + static_cast<double>(k) * layout_.restart_period();
  }

  /// The read position ("lead") of stream k at time t: t − k·T. Callers
  /// must interpret values outside [0, l + W] as "stream not active".
  double StreamLead(int64_t k, double t) const {
    return t - StreamStart(k);
  }

  /// First restart at or after time t. (Inline: on the simulator's
  /// per-event path, alongside FindCoveringStream.)
  double NextRestart(double t) const {
    const double period = layout_.restart_period();
    const double k = std::ceil((t - anchor_) / period - 1e-12);
    return anchor_ + k * period;
  }

  /// \brief Stream whose buffer covers movie position p at time t, if any.
  ///
  /// Covered means p ∈ [max(0, lead − W), min(lead, l)]. When several
  /// streams qualify (possible only if W > T... i.e. never, since W <= T),
  /// the youngest covering stream is returned. Returns nullopt for a miss.
  /// Inline: the simulator consults it two or three times per event.
  std::optional<int64_t> FindCoveringStream(double t, double position) const {
    const double window = layout_.window();
    if (window <= 0.0) return std::nullopt;
    const double l = layout_.movie_length();
    if (position < 0.0 || position > l) return std::nullopt;
    const double period = layout_.restart_period();

    // Need lead = t − kT with position <= min(lead, l) and
    // lead − W <= position, i.e. lead ∈ [position, position + W] (leads past
    // l still cover p <= l). k ∈ [(t − position − W)/T, (t − position)/T];
    // take the largest such k (youngest stream, smallest lead).
    const int64_t k = static_cast<int64_t>(
        std::floor((t - anchor_ - position) / period + 1e-12));
    const double lead = StreamLead(k, t);
    if (lead >= position - 1e-12 && lead <= position + window + 1e-12) {
      return k;
    }
    return std::nullopt;
  }

  /// True if a viewer arriving at t can start playback at position 0 from an
  /// existing partition (the enrollment window of the latest stream is
  /// open) — the paper's type-2 viewer.
  bool EnrollmentOpen(double t) const {
    return FindCoveringStream(t, 0.0).has_value();
  }

  /// All streams with any buffered content at time t (lead ∈ (0, l + W)),
  /// oldest first. Size is at most n + 1.
  std::vector<int64_t> ActiveStreams(double t) const;

  /// Phase of movie position `pos` against the window pattern at time t:
  /// the result is in [0, T); values <= W mean "inside a window".
  double PatternPhase(double t, double pos) const {
    const double period = layout_.restart_period();
    double g = std::fmod(t - anchor_ - pos, period);
    if (g < 0.0) g += period;
    return g;
  }

 private:
  PartitionLayout layout_;
  double anchor_;
};

}  // namespace vod

#endif  // VOD_SIM_PARTITION_SCHEDULE_H_
