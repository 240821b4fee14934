#include "common/rng.h"

#include <cmath>
#include <numbers>

#include "common/assert.h"

namespace flex {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 top bits -> double in [0,1) with full mantissa resolution.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  FLEX_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::below(std::uint64_t n) {
  FLEX_EXPECTS(n > 0);
  // Lemire's method: multiply-shift with rejection of the biased zone.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  FLEX_EXPECTS(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double sigma) {
  FLEX_EXPECTS(sigma >= 0.0);
  return mean + sigma * normal();
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

}  // namespace flex
