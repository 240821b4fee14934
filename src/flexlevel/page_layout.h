// The ReduceCode bitline structure of Fig. 3: how a reduced-state wordline
// organises its cells into pages.
//
// On a wordline of B bitlines, two neighbouring *even* cells (bitlines
// 4p, 4p+2) or two neighbouring *odd* cells (4p+1, 4p+3) form a ReduceCode
// pair carrying 3 bits. The two LSBs of all even pairs form the *lower
// page*, the two LSBs of all odd pairs the *middle page*, and the MSBs of
// every pair on the wordline the *upper page* — each page holds B/2 bits,
// giving the 1.5 bits/cell density of the reduced state.
//
// Programming follows §4.1's two-step algorithm: the lower or middle page
// programs its pairs' LSBs (V_th 0 -> 0/1); the upper page then programs
// every pair's MSB via the Table 2 transitions (all bitlines selected).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "flexlevel/reduce_code.h"

namespace flex::flexlevel {

/// Which of the three reduced-state pages of a wordline.
enum class ReducedPageKind { kLower, kMiddle, kUpper };

class ReducedWordline {
 public:
  /// `bitlines` must be a positive multiple of 4 (even and odd pairs).
  explicit ReducedWordline(int bitlines);

  int bitlines() const { return bitlines_; }
  /// ReduceCode pairs on the wordline (even + odd).
  int pairs() const { return bitlines_ / 2; }
  /// Bits per page (lower, middle and upper all carry pairs() bits...
  /// lower/middle carry 2 bits per pair over half the pairs, upper 1 bit
  /// per pair over all pairs — all equal B/2).
  int page_bits() const { return bitlines_ / 2; }

  /// The two bitlines of pair `p`: pairs 0..B/4-1 are even, the rest odd.
  std::pair<int, int> pair_bitlines(int pair) const;

  /// Step 1 for the even pairs: `bits` holds (LSB1, LSB0) per even pair.
  void program_lower(std::span<const std::uint8_t> bits);
  /// Step 1 for the odd pairs.
  void program_middle(std::span<const std::uint8_t> bits);
  /// Step 2: one MSB per pair (even pairs first, then odd). Requires both
  /// LSB pages to be programmed; selects all bitlines, as in the paper.
  void program_upper(std::span<const std::uint8_t> bits);

  bool lower_programmed() const { return lower_programmed_; }
  bool middle_programmed() const { return middle_programmed_; }
  bool upper_programmed() const { return upper_programmed_; }

  /// Current V_th level of a cell (0..2).
  int cell_level(int bitline) const;
  /// Distortion injection for tests/noise studies.
  void set_cell_level(int bitline, int level);

  /// Reads a page back by decoding every pair through ReduceCode. Valid
  /// once the wordline is fully programmed.
  std::vector<std::uint8_t> read(ReducedPageKind page) const;

 private:
  void program_lsbs_for(bool even, std::span<const std::uint8_t> bits);
  int decoded_value(int pair) const;

  int bitlines_;
  std::vector<int> levels_;
  bool lower_programmed_ = false;
  bool middle_programmed_ = false;
  bool upper_programmed_ = false;
};

}  // namespace flex::flexlevel
