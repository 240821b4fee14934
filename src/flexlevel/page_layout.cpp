#include "flexlevel/page_layout.h"

#include <algorithm>

#include "common/assert.h"
#include "flexlevel/reduced_program.h"

namespace flex::flexlevel {

ReducedWordline::ReducedWordline(int bitlines) : bitlines_(bitlines) {
  FLEX_EXPECTS(bitlines > 0 && bitlines % 4 == 0);
  levels_.assign(static_cast<std::size_t>(bitlines), 0);
}

std::pair<int, int> ReducedWordline::pair_bitlines(int pair) const {
  FLEX_EXPECTS(pair >= 0 && pair < pairs());
  const int even_pairs = bitlines_ / 4;
  if (pair < even_pairs) {
    return {4 * pair, 4 * pair + 2};
  }
  const int p = pair - even_pairs;
  return {4 * p + 1, 4 * p + 3};
}

void ReducedWordline::program_lsbs_for(bool even,
                                       std::span<const std::uint8_t> bits) {
  FLEX_EXPECTS(static_cast<int>(bits.size()) == page_bits());
  FLEX_EXPECTS(!upper_programmed_);
  const int even_pairs = bitlines_ / 4;
  for (int p = 0; p < even_pairs; ++p) {
    const int pair = even ? p : even_pairs + p;
    const auto [first, second] = pair_bitlines(pair);
    const int lsbs = ((bits[static_cast<std::size_t>(2 * p)] & 1) << 1) |
                     (bits[static_cast<std::size_t>(2 * p + 1)] & 1);
    const PairProgramState state = program_lsbs(lsbs);
    levels_[static_cast<std::size_t>(first)] = state.levels.first;
    levels_[static_cast<std::size_t>(second)] = state.levels.second;
  }
}

void ReducedWordline::program_lower(std::span<const std::uint8_t> bits) {
  FLEX_EXPECTS(!lower_programmed_);
  program_lsbs_for(/*even=*/true, bits);
  lower_programmed_ = true;
}

void ReducedWordline::program_middle(std::span<const std::uint8_t> bits) {
  FLEX_EXPECTS(!middle_programmed_);
  program_lsbs_for(/*even=*/false, bits);
  middle_programmed_ = true;
}

void ReducedWordline::program_upper(std::span<const std::uint8_t> bits) {
  FLEX_EXPECTS(static_cast<int>(bits.size()) == page_bits());
  // The upper page spans every pair, so both LSB pages must be in place
  // ("all bitlines will be selected", §4.1).
  FLEX_EXPECTS(lower_programmed_ && middle_programmed_);
  FLEX_EXPECTS(!upper_programmed_);
  for (int pair = 0; pair < pairs(); ++pair) {
    const auto [first, second] = pair_bitlines(pair);
    PairProgramState state;
    state.levels = {levels_[static_cast<std::size_t>(first)],
                    levels_[static_cast<std::size_t>(second)]};
    state.lsbs_programmed = true;
    state = program_msb(state, bits[static_cast<std::size_t>(pair)] & 1);
    levels_[static_cast<std::size_t>(first)] = state.levels.first;
    levels_[static_cast<std::size_t>(second)] = state.levels.second;
  }
  upper_programmed_ = true;
}

int ReducedWordline::cell_level(int bitline) const {
  FLEX_EXPECTS(bitline >= 0 && bitline < bitlines_);
  return levels_[static_cast<std::size_t>(bitline)];
}

void ReducedWordline::set_cell_level(int bitline, int level) {
  FLEX_EXPECTS(bitline >= 0 && bitline < bitlines_);
  FLEX_EXPECTS(level >= 0 && level <= 2);
  levels_[static_cast<std::size_t>(bitline)] = level;
}

int ReducedWordline::decoded_value(int pair) const {
  const auto [first, second] = pair_bitlines(pair);
  return reduce_decode({.first = levels_[static_cast<std::size_t>(first)],
                        .second = levels_[static_cast<std::size_t>(second)]});
}

std::vector<std::uint8_t> ReducedWordline::read(ReducedPageKind page) const {
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(page_bits()));
  const int even_pairs = bitlines_ / 4;
  switch (page) {
    case ReducedPageKind::kLower:
    case ReducedPageKind::kMiddle: {
      const int base = page == ReducedPageKind::kLower ? 0 : even_pairs;
      for (int p = 0; p < even_pairs; ++p) {
        const int value = decoded_value(base + p);
        bits[static_cast<std::size_t>(2 * p)] =
            static_cast<std::uint8_t>((value >> 1) & 1);
        bits[static_cast<std::size_t>(2 * p + 1)] =
            static_cast<std::uint8_t>(value & 1);
      }
      break;
    }
    case ReducedPageKind::kUpper:
      for (int pair = 0; pair < pairs(); ++pair) {
        bits[static_cast<std::size_t>(pair)] =
            static_cast<std::uint8_t>((decoded_value(pair) >> 2) & 1);
      }
      break;
  }
  return bits;
}

}  // namespace flex::flexlevel
