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

namespace rng_internal {

/// The exponential ziggurat (Marsaglia & Tsang, "The Ziggurat Method for
/// Generating Random Variables", J. Stat. Softw. 5(8), 2000): 256 layers
/// of area kExpZigV under e^{-x}, the lowest of which carries the tail
/// beyond kExpZigR. Layer i spans abscissae [0, kExpZigX[i]] and
/// ordinates [kExpZigF[i], kExpZigF[i + 1]], with kExpZigF[i] =
/// e^{-kExpZigX[i]}; kExpZigX[0] = kExpZigV / e^{-kExpZigR} is the base
/// strip's width with its tail folded in, and kExpZigX[256] = 0. The
/// tables are literals (rng.cc), so neither static-initialization order
/// nor a libm version can change them; variates_test regenerates them
/// from the recurrence kExpZigX[i + 1] = -log(kExpZigV / kExpZigX[i] +
/// e^{-kExpZigX[i]}).
inline constexpr double kExpZigR = 7.69711747013104972;
inline constexpr double kExpZigV = 3.949659822581572e-3;
extern const double kExpZigX[257];
extern const double kExpZigF[257];

}  // namespace rng_internal

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

  /// Exponential variate with the given mean (mean > 0): mean times one
  /// Exp(1) draw from the ziggurat below.
  double Exponential(double mean) {
    VOD_DCHECK(mean > 0);
    return mean * StandardExponential();
  }

  /// Standard normal variate (polar Marsaglia method, no caching so calls
  /// remain stateless with respect to stream splitting).
  double Normal();

  /// Gamma(shape k > 0, scale theta > 0) variate. An integer k up to
  /// kErlangMaxShape is Erlang: theta times the sum of k ziggurat Exp(1)
  /// draws. Every other k uses Marsaglia–Tsang's squeeze, with their boost
  /// Gamma(k) = Gamma(k + 1) * U^{1/k} for k < 1.
  double Gamma(double shape, double scale);

  /// Largest integer shape Gamma draws as a sum of exponentials. Each
  /// ziggurat draw adds about 3 ns to the sum, and Marsaglia–Tsang costs
  /// about 30 ns whatever the shape, so the sum stops paying at k = 10
  /// (DESIGN §15.8).
  static constexpr double kErlangMaxShape = 9.0;

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

  /// Exp(1) variate: Marsaglia & Tsang's 256-layer ziggurat, one
  /// NextUint64 per draw. Its low 8 bits pick the layer and its high 53
  /// bits the abscissa (xoshiro256**'s scrambler makes the low bits as
  /// sound as the high ones). 97.8% of draws fall inside the layer's
  /// rectangle and return here; the wedge and the tail are out of line.
  double StandardExponential() {
    const uint64_t bits = NextUint64();
    const uint32_t layer = static_cast<uint32_t>(bits & 0xff);
    const double x = static_cast<double>(bits >> 11) * 0x1.0p-53 *
                     rng_internal::kExpZigX[layer];
    if (x < rng_internal::kExpZigX[layer + 1]) return x;
    return StandardExponentialSlow(layer, x);
  }

  /// The ziggurat's rejection path: the wedge test against e^{-x}, the
  /// tail beyond r, and fresh draws after a rejection.
  double StandardExponentialSlow(uint32_t layer, double x);

  uint64_t s_[4];
  uint64_t seed_;  // retained so MakeChild derivations are stable
};

}  // namespace vod

#endif  // VOD_COMMON_RNG_H_
