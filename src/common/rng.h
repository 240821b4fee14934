// Deterministic pseudo-random number generation for simulation.
//
// All stochastic components of the library draw from flex::Rng so that a
// single seed reproduces an entire experiment. The generator is
// xoshiro256++ (Blackman & Vigna): fast, 256-bit state, passes BigCrush,
// and — unlike std::mt19937 — has an identical, documented output sequence
// on every platform, which keeps the regression tests byte-stable.
#pragma once

#include <cstdint>
#include <limits>

namespace flex {

/// Deterministic random source. Copyable; copies continue the sequence
/// independently.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from `seed` via splitmix64, which maps any
  /// 64-bit seed (including 0) to a well-distributed nonzero state.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next();

  // UniformRandomBitGenerator interface so <random> distributions work too.
  std::uint64_t operator()() { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's unbiased
  /// multiply-shift rejection method.
  std::uint64_t below(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second variate).
  double normal();

  /// Normal with given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p);

 private:
  std::uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace flex
