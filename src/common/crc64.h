// CRC-64/XZ (ECMA-182 polynomial, reflected): carry-less folding on
// x86-64 CPUs with PCLMULQDQ, slice-by-8 everywhere else.
//
// The end-to-end integrity layer seals every programmed page with a
// CRC of its (synthetic) payload bytes; this is the checksum. The
// variant is CRC-64/XZ: reflected ECMA-182 polynomial
// 0xC96C5795D7870F42, init and xorout all-ones, check value
// crc64("123456789") == 0x995DC9BBDF1939FA.
//
// Two implementations compute the same function. Slice-by-8 processes
// eight input bytes per table round; its tables are built at compile
// time from the bitwise definition. On CPUs that report `pclmul`,
// inputs of 64 bytes or more go through the folding kernel of Gopal et
// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ"
// (Intel, 2009): four 16-byte lanes fold 64 bytes per round, collapse
// to one 16-byte remainder, and the table path finishes that remainder
// and any tail. The choice is made once per process.
// `crc64_selftest()` re-derives vectors bitwise at run time and
// cross-checks the selected path against the table path, so neither a
// miscompiled table nor a wrong fold constant can silently seal pages.
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
/// Runs on the carry-less kernel when `crc64_uses_clmul()`.
std::uint64_t crc64(const void* data, std::size_t len,
                    std::uint64_t crc = 0);

/// The same function on the portable slice-by-8 path only: the
/// reference the carry-less kernel is checked against.
std::uint64_t crc64_table(const void* data, std::size_t len,
                          std::uint64_t crc = 0);

/// True iff `crc64` dispatches to the PCLMULQDQ folding kernel on this
/// CPU (x86-64 with the `pclmul` feature).
bool crc64_uses_clmul();

/// True iff the slice-by-8 tables reproduce the bitwise reference on
/// the standard check vector and a few structured ones, and the
/// selected path agrees with the table path across the kernel's block
/// and tail boundaries.
bool crc64_selftest();

}  // namespace flex
