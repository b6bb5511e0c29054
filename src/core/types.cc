#include "core/types.h"

#include <cmath>
#include <string>
#include <utility>

namespace vod {

const char* VcrOpName(VcrOp op) {
  switch (op) {
    case VcrOp::kFastForward:
      return "FF";
    case VcrOp::kRewind:
      return "RW";
    case VcrOp::kPause:
      return "PAU";
  }
  return "?";
}

Status PlaybackRates::Validate() const {
  if (playback <= 0.0) {
    return Status::InvalidArgument("playback rate must be positive");
  }
  if (fast_forward <= playback) {
    return Status::InvalidArgument(
        "fast-forward rate must exceed the playback rate");
  }
  if (rewind <= 0.0) {
    return Status::InvalidArgument("rewind rate must be positive");
  }
  return Status::OK();
}

VcrMix VcrMix::Only(VcrOp op) {
  VcrMix mix;
  switch (op) {
    case VcrOp::kFastForward:
      mix.p_fast_forward = 1.0;
      break;
    case VcrOp::kRewind:
      mix.p_rewind = 1.0;
      break;
    case VcrOp::kPause:
      mix.p_pause = 1.0;
      break;
  }
  return mix;
}

Status VcrMix::Validate() const {
  for (const auto& [name, p] : {std::pair{"p_fast_forward", p_fast_forward},
                                std::pair{"p_rewind", p_rewind},
                                std::pair{"p_pause", p_pause}}) {
    if (!(p >= 0.0) || !std::isfinite(p)) {
      return Status::InvalidArgument(std::string("mix probability ") + name +
                                     " must be non-negative and finite");
    }
  }
  const double sum = p_fast_forward + p_rewind + p_pause;
  if (std::fabs(sum - 1.0) > 1e-9) {
    return Status::InvalidArgument("mix probabilities must sum to 1");
  }
  return Status::OK();
}

}  // namespace vod
