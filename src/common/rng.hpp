// Deterministic, splittable random number generation.
//
// All randomized algorithms in the library draw from `Rng`, a xoshiro256**
// engine seeded via SplitMix64. Unlike std::mt19937 + std::distributions, the
// streams here are bit-reproducible across standard libraries, which keeps
// tests and benchmarks deterministic for a fixed seed. `Split()` derives an
// independent per-node stream, mirroring the paper's assumption that nodes
// randomize independently.
#pragma once

#include <cstdint>

#include "common/check.hpp"

namespace overlay {

/// SplitMix64 step; used for seeding and stream splitting.
std::uint64_t SplitMix64(std::uint64_t& state);

/// 2^64 mod bound: NextBelow rejects raw draws below it so that r % bound is
/// unbiased. Requires bound > 0. Hot loops that draw many times from one
/// bound compute it once and pass it to the two-argument NextBelow.
inline std::uint64_t RejectionThreshold(std::uint64_t bound) {
  return (~bound + 1) % bound;
}

/// xoshiro256** engine with helpers for the distributions the algorithms need.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Raw 64 random bits.
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with std::shuffle).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return Next(); }

  /// Uniform integer in [0, bound). Requires bound > 0. Unbiased (rejection).
  std::uint64_t NextBelow(std::uint64_t bound) {
    OVERLAY_CHECK(bound > 0, "NextBelow requires a positive bound");
    return NextBelow(bound, RejectionThreshold(bound));
  }

  /// NextBelow(bound) with its threshold precomputed as
  /// RejectionThreshold(bound): the same draws from the same stream.
  std::uint64_t NextBelow(std::uint64_t bound, std::uint64_t threshold) {
    for (;;) {
      const std::uint64_t r = Next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli(p) draw; p clamped to [0,1].
  bool NextBool(double p);

  /// Exponential(beta) draw (rate parameter beta > 0), as used by the
  /// Elkin–Neiman spanner construction (Section 4.2, beta = 1/2).
  double NextExponential(double beta);

  /// Derives an independent stream (for per-node randomness).
  Rng Split();

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace overlay
