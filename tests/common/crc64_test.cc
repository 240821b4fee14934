// CRC-64/XZ: the payload-seal checksum. The standard check vector pins
// the polynomial/reflection/xor conventions; the chaining property and
// the agreement of the slice-by-8 table path with a bitwise oracle pin
// the implementation's internal consistency (the payload CRC in
// ftl/payload.cpp chains one call per 512-byte chunk).
#include "common/crc64.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace flex {
namespace {

/// The definition: one reflected polynomial division step per bit.
std::uint64_t bitwise_crc64(const std::uint8_t* p, std::size_t len,
                            std::uint64_t crc) {
  crc = ~crc;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ 0xC96C5795D7870F42ULL : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc64Test, StandardCheckVector) {
  // CRC-64/XZ ("123456789") — the catalogue check value.
  EXPECT_EQ(crc64("123456789", 9), 0x995DC9BBDF1939FAULL);
}

TEST(Crc64Test, EmptyInputIsZero) {
  EXPECT_EQ(crc64(nullptr, 0), 0ULL);
  EXPECT_EQ(crc64("x", 0), 0ULL);
}

TEST(Crc64Test, ChainingMatchesOneShot) {
  std::vector<std::uint8_t> data(257);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const std::uint64_t whole = crc64(data.data(), data.size());
  for (const std::size_t cut : {std::size_t{1}, std::size_t{8},
                                std::size_t{13}, std::size_t{64},
                                std::size_t{256}}) {
    const std::uint64_t head = crc64(data.data(), cut);
    EXPECT_EQ(crc64(data.data() + cut, data.size() - cut, head), whole)
        << "cut at " << cut;
  }
}

TEST(Crc64Test, SensitiveToEveryBit) {
  std::uint8_t data[32] = {};
  const std::uint64_t clean = crc64(data, sizeof data);
  for (std::size_t byte = 0; byte < sizeof data; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc64(data, sizeof data), clean)
          << "flip at byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

TEST(Crc64Test, DistinctInputsDistinctCrcs) {
  // Not a collision-resistance proof, just a smoke check that the table
  // construction didn't degenerate (e.g. all-zero rows).
  std::vector<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    seen.push_back(crc64(&i, sizeof i));
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(Crc64Test, SelfTestPasses) { EXPECT_TRUE(crc64_selftest()); }

// Every length 0..300 (every slice-by-8 round count and tail), random
// bytes and random initial values, at a misaligned start: the table
// path and the bitwise oracle must agree.
TEST(Crc64Test, TableAndBitwisePathsAgree) {
  std::mt19937_64 rng(0xC0FFEE);
  std::vector<std::uint8_t> data(301 + 3);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const std::uint8_t* p = data.data() + 3;
  for (std::size_t len = 0; len <= 300; ++len) {
    for (const std::uint64_t init : {std::uint64_t{0}, ~std::uint64_t{0},
                                     std::uint64_t{rng()}}) {
      ASSERT_EQ(crc64(p, len, init), bitwise_crc64(p, len, init))
          << "len " << len << " init " << init;
    }
  }
}

TEST(Crc64Test, ChainedCallsEqualOneCall) {
  // Split a 300-byte message at every pair of cut points, so pieces
  // start and end at every offset within a slice-by-8 round.
  std::mt19937_64 rng(42);
  std::vector<std::uint8_t> data(300);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const std::uint64_t whole = crc64(data.data(), data.size());
  for (std::size_t a = 0; a <= data.size(); a += 7) {
    for (std::size_t b = a; b <= data.size(); b += 29) {
      std::uint64_t crc = crc64(data.data(), a);
      crc = crc64(data.data() + a, b - a, crc);
      crc = crc64(data.data() + b, data.size() - b, crc);
      ASSERT_EQ(crc, whole) << "cuts at " << a << ", " << b;
    }
  }
}

}  // namespace
}  // namespace flex
