#include "ftl/payload.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace flex::ftl {
namespace {

/// splitmix64 finalizer (same primitive as faults::FaultInjector).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Hash of (seed, lpn, version) that every word of the page extends.
std::uint64_t page_hash(std::uint64_t seed, std::uint64_t lpn,
                        std::uint64_t version) {
  return mix(mix(seed ^ mix(lpn)) ^ version);
}

/// Word `index` of the page whose page_hash() is `page`.
std::uint64_t word_at(std::uint64_t page, std::uint32_t index) {
  return mix(page ^ index);
}

void store_le(std::uint8_t* out, std::uint64_t word) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &word, sizeof(word));
  } else {
    for (int b = 0; b < 8; ++b) {
      out[b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
}

}  // namespace

std::vector<std::uint8_t> PayloadModel::generate(std::uint64_t lpn,
                                                 std::uint64_t version) const {
  const std::uint64_t page = page_hash(seed_, lpn, version);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(words_) * 8);
  for (std::uint32_t w = 0; w < words_; ++w) {
    store_le(bytes.data() + static_cast<std::size_t>(w) * 8,
             word_at(page, w));
  }
  return bytes;
}

std::uint64_t PayloadModel::crc(std::uint64_t lpn,
                                std::uint64_t version) const {
  // Serialize the body into a stack buffer and checksum it in one call
  // (one call per kChunkWords for bodies longer than the buffer);
  // chaining is exact, so the CRC equals crc64(generate(lpn, version)).
  constexpr std::uint32_t kChunkWords = 64;
  const std::uint64_t page = page_hash(seed_, lpn, version);
  std::uint8_t chunk[kChunkWords * 8];
  std::uint64_t running = 0;
  for (std::uint32_t w = 0; w < words_;) {
    const std::uint32_t n = std::min(kChunkWords, words_ - w);
    for (std::uint32_t i = 0; i < n; ++i) {
      store_le(chunk + static_cast<std::size_t>(i) * 8, word_at(page, w + i));
    }
    running = crc64(chunk, static_cast<std::size_t>(n) * 8, running);
    w += n;
  }
  return running;
}

}  // namespace flex::ftl
