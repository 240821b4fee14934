// PayloadModel::crc is the one-pass form of crc64(generate(...)) that
// sealing and read-back verification use. It must equal the CRC of the
// materialized bytes for every body length, including bodies longer
// than its stack buffer, and at the edges of the seed, LPN and version
// ranges the FTL stores.
#include "ftl/payload.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "common/crc64.h"

namespace flex::ftl {
namespace {

constexpr std::uint64_t kTopLpn = (std::uint64_t{1} << 32) - 2;
constexpr std::uint64_t kTopVersion = (std::uint64_t{1} << 32) - 1;

TEST(PayloadModelTest, CrcEqualsCrcOfGeneratedBytes) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, ~std::uint64_t{0}, std::uint64_t{0x5EED}}) {
    for (std::uint32_t words = 1; words <= 16; ++words) {
      const PayloadModel model(seed, words);
      for (const std::uint64_t lpn :
           {std::uint64_t{0}, std::uint64_t{12345}, kTopLpn}) {
        for (const std::uint64_t version :
             {std::uint64_t{0}, std::uint64_t{7}, kTopVersion}) {
          const auto bytes = model.generate(lpn, version);
          ASSERT_EQ(bytes.size(), words * 8u);
          EXPECT_EQ(model.crc(lpn, version),
                    crc64(bytes.data(), bytes.size()))
              << "seed " << seed << " words " << words << " lpn " << lpn
              << " version " << version;
        }
      }
    }
  }
}

TEST(PayloadModelTest, CrcIsPinned) {
  // Seal values at lpn 2^32-2, version 2^32-1, seed 0x5EED, taken from
  // the per-word chained implementation this one replaced. 65 and 130
  // words span more than one stack-buffer chunk.
  const struct {
    std::uint32_t words;
    std::uint64_t crc;
  } kPins[] = {{1, 0xDE2113B48785531EULL},   {8, 0xCA906CC8A46B8107ULL},
               {16, 0x03AB151AE87D6A96ULL},  {65, 0x991A8E8F7F3A423BULL},
               {130, 0xEA1D44828A4FCBAFULL}};
  for (const auto& pin : kPins) {
    const PayloadModel model(0x5EED, pin.words);
    const auto bytes = model.generate(kTopLpn, kTopVersion);
    EXPECT_EQ(model.crc(kTopLpn, kTopVersion), pin.crc)
        << pin.words << " words";
    EXPECT_EQ(crc64(bytes.data(), bytes.size()), pin.crc)
        << pin.words << " words";
  }
}

}  // namespace
}  // namespace flex::ftl
