// Core vocabulary types for the resource pre-allocation model.

#ifndef VOD_CORE_TYPES_H_
#define VOD_CORE_TYPES_H_

#include <array>
#include <string>

#include "common/status.h"

namespace vod {

/// The interactive VCR operations of the paper (§2): fast-forward with
/// viewing, rewind with viewing, and pause.
enum class VcrOp : int {
  kFastForward = 0,
  kRewind = 1,
  kPause = 2,
};

inline constexpr std::array<VcrOp, 3> kAllVcrOps = {
    VcrOp::kFastForward, VcrOp::kRewind, VcrOp::kPause};

/// Short name ("FF", "RW", "PAU").
const char* VcrOpName(VcrOp op);

/// \brief Display-speed configuration (paper §3, Eq. 1).
///
/// All rates are in movie-minutes per wall-minute; normal playback is 1.0 by
/// convention and FF/RW are expressed as multiples of it (the paper uses 3x).
struct PlaybackRates {
  double playback = 1.0;      ///< R_PB
  double fast_forward = 3.0;  ///< R_FF, must exceed playback
  double rewind = 3.0;        ///< R_RW, must be positive

  /// α = R_FF / (R_FF − R_PB): movie-time fast-forwarded per unit of initial
  /// lag closed (Eq. 1). Always > 1.
  double Alpha() const { return fast_forward / (fast_forward - playback); }

  /// γ = R_RW / (R_PB + R_RW): movie-time rewound per unit of relative
  /// displacement against the forward-moving partitions (Eq. 1). In (0, 1).
  double Gamma() const { return rewind / (playback + rewind); }

  /// Validates playback > 0, fast_forward > playback, rewind > 0.
  Status Validate() const;
};

/// \brief Probability mix over VCR operation types (paper Eq. 22).
///
/// P_FF + P_RW + P_PAU must sum to 1 (within tolerance). Operations with
/// zero probability are skipped by the model.
struct VcrMix {
  double p_fast_forward = 0.0;
  double p_rewind = 0.0;
  double p_pause = 0.0;

  double Probability(VcrOp op) const {
    switch (op) {
      case VcrOp::kFastForward:
        return p_fast_forward;
      case VcrOp::kRewind:
        return p_rewind;
      case VcrOp::kPause:
        return p_pause;
    }
    return 0.0;
  }

  /// A mix concentrated on a single operation.
  static VcrMix Only(VcrOp op);

  /// The paper's Figure 7(d) mix: P_FF = 0.2, P_RW = 0.2, P_PAU = 0.6.
  static VcrMix PaperMixed() { return VcrMix{0.2, 0.2, 0.6}; }

  /// Validates that each probability is finite and non-negative, and the
  /// unit sum (tolerance 1e-9).
  Status Validate() const;
};

}  // namespace vod

#endif  // VOD_CORE_TYPES_H_
