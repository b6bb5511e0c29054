// Deterministic pseudo-random number generation for simulation.
//
// The simulator needs (a) reproducible runs from a single seed, and
// (b) statistically independent sub-streams per entity (arrivals, per-viewer
// VCR behavior, ...) so that adding one consumer of randomness does not
// perturb every other sequence. We use xoshiro256** for generation and
// SplitMix64 both for seeding and for deriving child stream seeds.

#ifndef VOD_COMMON_RNG_H_
#define VOD_COMMON_RNG_H_

#include <cmath>
#include <cstdint>

#include "common/check.h"

namespace vod {

/// SplitMix64: tiny, high-quality 64-bit mixer. Used to expand a user seed
/// into generator state and to derive decorrelated child seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  /// Next 64-bit value.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// \brief xoshiro256** generator with named sub-stream derivation.
///
/// Satisfies the C++ UniformRandomBitGenerator concept so it can drive
/// <random> distributions, though the library's own samplers (see
/// dist/distribution.h) only use Uniform01()/NextUint64().
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the generator; any seed (including 0) is valid.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // The small samplers below are defined inline: they sit on the simulator's
  // hottest path (every event draws at least one variate) and inlining them
  // removes a call per draw without changing any emitted bit.

  /// Uniform 64-bit value.
  uint64_t NextUint64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// UniformRandomBitGenerator interface.
  uint64_t operator()() { return NextUint64(); }
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~0ULL; }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double Uniform01() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Precondition: lo <= hi.
  double Uniform(double lo, double hi) {
    VOD_DCHECK(lo <= hi);
    return lo + (hi - lo) * Uniform01();
  }

  /// Uniform integer in [0, bound) without modulo bias. Precondition:
  /// bound > 0.
  uint64_t UniformInt(uint64_t bound) {
    VOD_DCHECK(bound > 0);
    // Rejection sampling over the largest multiple of `bound`.
    const uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
    for (;;) {
      const uint64_t r = NextUint64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Exponential variate with the given mean (mean > 0).
  double Exponential(double mean) {
    VOD_DCHECK(mean > 0);
    // -mean * log(U), guarding against U == 0 via 1 - Uniform01() in (0, 1].
    return -mean * std::log(1.0 - Uniform01());
  }

  /// Standard normal variate (polar Marsaglia method, no caching so calls
  /// remain stateless with respect to stream splitting).
  double Normal();

  /// Gamma(shape k > 0, scale theta > 0) variate, Marsaglia–Tsang squeeze
  /// with the Johnk-style boost for k < 1.
  double Gamma(double shape, double scale);

  /// Bernoulli trial with success probability p in [0, 1].
  bool Bernoulli(double p) {
    VOD_DCHECK(p >= 0.0 && p <= 1.0);
    return Uniform01() < p;
  }

  /// \brief Derives an independent child generator.
  ///
  /// Children are identified by a caller-chosen (stream_class, index) pair so
  /// the mapping from entity to randomness is stable across code changes:
  /// e.g. MakeChild(kArrivals, movie_id) or MakeChild(kViewer, viewer_id).
  Rng MakeChild(uint64_t stream_class, uint64_t index) const;

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  uint64_t seed_;  // retained so MakeChild derivations are stable
};

}  // namespace vod

#endif  // VOD_COMMON_RNG_H_
