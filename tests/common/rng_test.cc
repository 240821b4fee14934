#include "common/rng.h"

#include <algorithm>
#include <array>
#include <vector>

#include <gtest/gtest.h>

namespace flex {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next()) << "diverged at step " << i;
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(RngTest, ZeroSeedIsUsable) {
  Rng rng(0);
  std::uint64_t acc = 0;
  for (int i = 0; i < 16; ++i) acc |= rng.next();
  EXPECT_NE(acc, 0u);
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanAndVariance) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum_sq += u * u;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(3);
  for (const std::uint64_t n : {1ULL, 2ULL, 7ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 1'000; ++i) {
      EXPECT_LT(rng.below(n), n);
    }
  }
}

TEST(RngTest, BelowIsApproximatelyUniform) {
  Rng rng(5);
  std::array<int, 10> counts{};
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(10)];
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 10, 600);  // ~6 sigma of binomial
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(RngTest, NormalScaled) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.03);
}

TEST(RngTest, ChanceEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
  }
}

TEST(RngTest, ChanceRate) {
  Rng rng(23);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, WorksWithStdDistributions) {
  Rng rng(31);
  // UniformRandomBitGenerator contract.
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~0ULL);
  std::uint64_t v = rng();
  (void)v;
}

}  // namespace
}  // namespace flex
