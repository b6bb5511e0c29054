#include "sim/vcr_behavior.h"

#include "common/check.h"

namespace vod {

Status VcrBehavior::Validate() const {
  if (passive()) return Status::OK();
  VOD_RETURN_IF_ERROR(mix.Validate());
  for (VcrOp op : kAllVcrOps) {
    if (!(mix.Probability(op) > 0.0)) continue;
    const Distribution* duration = durations.ForOp(op);
    if (duration == nullptr) {
      return Status::InvalidArgument(
          std::string("mix assigns probability to ") + VcrOpName(op) +
          " but no duration distribution was provided");
    }
    // A negative draw would end the operation before it starts.
    if (duration->SupportLower() < 0.0) {
      return Status::InvalidArgument(
          std::string("VCR durations must be non-negative: the ") +
          VcrOpName(op) + " duration " + duration->ToString() +
          " has support below 0");
    }
  }
  if (interactivity->SupportLower() < 0.0) {
    return Status::InvalidArgument(
        "interactivity gaps must be non-negative");
  }
  return Status::OK();
}

VcrOp VcrBehavior::SampleOp(Rng* rng) const {
  double u = rng->Uniform01();
  for (VcrOp op : kAllVcrOps) {
    const double p = mix.Probability(op);
    if (u < p) return op;
    u -= p;
  }
  return VcrOp::kPause;  // numerical leftover lands on the last op
}

double VcrBehavior::SampleDuration(VcrOp op, Rng* rng) const {
  const Distribution* dist = durations.ForOp(op);
  VOD_CHECK_MSG(dist != nullptr, "no duration distribution for operation");
  return dist->Sample(rng);
}

}  // namespace vod
