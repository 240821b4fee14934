// CRC-64/XZ (ECMA-182 polynomial, reflected), slice-by-8.
//
// The end-to-end integrity layer seals every programmed page with a
// CRC of its (synthetic) payload bytes; this is the checksum. The
// variant is CRC-64/XZ: reflected ECMA-182 polynomial
// 0xC96C5795D7870F42, init and xorout all-ones, check value
// crc64("123456789") == 0x995DC9BBDF1939FA.
//
// Slice-by-8 processes eight input bytes per table round; its tables
// are built at compile time from the bitwise definition.
// `crc64_selftest()` re-derives vectors bitwise at run time, so a
// miscompiled table cannot silently seal pages.
//
// The API chains: `crc64(b, n)` one-shot, or feed pieces through the
// `crc` parameter (`crc64(p2, n2, crc64(p1, n1))`) — internally the
// running state is kept pre-inverted so chaining needs no finalize
// step by the caller.
#pragma once

#include <cstddef>
#include <cstdint>

namespace flex {

/// CRC-64/XZ of `len` bytes at `data`, continuing from `crc`
/// (0 = fresh). Chaining is exact: crc64(ab) == crc64(b, crc64(a)).
std::uint64_t crc64(const void* data, std::size_t len,
                    std::uint64_t crc = 0);

/// True iff the slice-by-8 tables reproduce the bitwise reference on
/// the standard check vector and a few structured ones, one-shot and
/// chained.
bool crc64_selftest();

}  // namespace flex
