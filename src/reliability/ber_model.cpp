#include "reliability/ber_model.h"

#include <cmath>
#include <numbers>

#include "common/assert.h"

namespace flex::reliability {
namespace {

// 8-point Gauss-Hermite quadrature (integral of e^{-t^2} f(t) dt).
constexpr double kGhNodes[8] = {-2.9306374202572440, -1.9816567566958429,
                                -1.1571937124467802, -0.3811869902073221,
                                0.3811869902073221,  1.1571937124467802,
                                1.9816567566958429,  2.9306374202572440};
constexpr double kGhWeights[8] = {1.9960407221136762e-4, 1.7077983007413475e-2,
                                  2.0780232581489188e-1, 6.6114701255824129e-1,
                                  6.6114701255824129e-1, 2.0780232581489188e-1,
                                  1.7077983007413475e-2, 1.9960407221136762e-4};

}  // namespace

BerModel::BerModel(nand::LevelConfig level_config, const BitMapper& mapper,
                   RetentionModel retention, BerEngine::Config c2c_engine,
                   Rng& rng)
    : level_config_(std::move(level_config)), retention_(retention) {
  const int group_cells = mapper.cells_per_group();
  const int group_bits = mapper.bits_per_group();
  FLEX_EXPECTS(group_bits <= 20);
  const int levels = level_config_.levels();

  // One-off Monte-Carlo for the C2C (P/E- and age-independent) component.
  {
    BerEngine engine(c2c_engine);
    const BerReport report = engine.measure(level_config_, mapper,
                                            /*retention=*/nullptr,
                                            /*pe_cycles=*/0, /*age=*/0.0, rng);
    c2c_ber_ = report.c2c.rate();
  }

  // Enumerate every data pattern of one mapper group to derive the level
  // occupancy and the expected bit damage of a one-level retention drop.
  occupancy_.assign(static_cast<std::size_t>(levels), 0.0);
  drop_damage_.assign(static_cast<std::size_t>(levels), 0.0);
  bump_damage_.assign(static_cast<std::size_t>(levels), 0.0);
  std::vector<double> drop_events(static_cast<std::size_t>(levels), 0.0);
  std::vector<double> bump_events(static_cast<std::size_t>(levels), 0.0);
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(group_bits));
  std::vector<std::uint8_t> read_bits(static_cast<std::size_t>(group_bits));
  std::vector<int> group_levels(static_cast<std::size_t>(group_cells));
  std::vector<int> dropped(static_cast<std::size_t>(group_cells));
  const int patterns = 1 << group_bits;
  std::uint64_t cells_total = 0;
  for (int pattern = 0; pattern < patterns; ++pattern) {
    for (int i = 0; i < group_bits; ++i) {
      bits[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((pattern >> i) & 1);
    }
    mapper.to_levels(bits, group_levels);
    for (int c = 0; c < group_cells; ++c) {
      const int level = group_levels[static_cast<std::size_t>(c)];
      FLEX_ASSERT(level >= 0 && level < levels);
      occupancy_[static_cast<std::size_t>(level)] += 1.0;
      ++cells_total;
      auto bit_diff_after = [&](const std::vector<int>& shifted) {
        mapper.to_bits(shifted, read_bits);
        int diff = 0;
        for (int i = 0; i < group_bits; ++i) {
          if (read_bits[static_cast<std::size_t>(i)] !=
              bits[static_cast<std::size_t>(i)]) {
            ++diff;
          }
        }
        return diff;
      };
      if (level > 0) {
        dropped.assign(group_levels.begin(), group_levels.end());
        --dropped[static_cast<std::size_t>(c)];
        drop_damage_[static_cast<std::size_t>(level)] +=
            bit_diff_after(dropped);
        drop_events[static_cast<std::size_t>(level)] += 1.0;
      }
      if (level < levels - 1) {
        dropped.assign(group_levels.begin(), group_levels.end());
        ++dropped[static_cast<std::size_t>(c)];
        bump_damage_[static_cast<std::size_t>(level)] +=
            bit_diff_after(dropped);
        bump_events[static_cast<std::size_t>(level)] += 1.0;
      }
    }
  }
  // Average bit flips per event, expressed per stored bit of the group,
  // times cells-per-group so per-cell terms sum into a per-bit BER.
  for (int l = 0; l < levels; ++l) {
    occupancy_[static_cast<std::size_t>(l)] /=
        static_cast<double>(cells_total);
    if (drop_events[static_cast<std::size_t>(l)] > 0.0) {
      drop_damage_[static_cast<std::size_t>(l)] =
          drop_damage_[static_cast<std::size_t>(l)] /
          drop_events[static_cast<std::size_t>(l)] *
          static_cast<double>(group_cells) / static_cast<double>(group_bits);
    }
    if (bump_events[static_cast<std::size_t>(l)] > 0.0) {
      bump_damage_[static_cast<std::size_t>(l)] =
          bump_damage_[static_cast<std::size_t>(l)] /
          bump_events[static_cast<std::size_t>(l)] *
          static_cast<double>(group_cells) / static_cast<double>(group_bits);
    }
  }
}

double BerModel::retention_ber(int pe_cycles, Hours age,
                               Volt ref_shift) const {
  if (pe_cycles <= 0 || age <= 0.0) return 0.0;
  const int levels = level_config_.levels();
  const Volt vpp = level_config_.vpp();
  const double x0_mean = level_config_.erased_mean();
  const double x0_sigma = level_config_.erased_sigma();
  constexpr int kIsppPoints = 16;
  const RetentionModel::Wear wear = retention_.wear(pe_cycles, age);

  double ber = 0.0;
  for (int l = 1; l < levels; ++l) {
    const Volt verify = level_config_.verify(l);
    const Volt lower_ref = level_config_.read_ref(l - 1);
    double p_drop = 0.0;
    for (int i = 0; i < kIsppPoints; ++i) {
      // Midpoint rule over the uniform ISPP placement.
      const Volt x = verify + vpp * (i + 0.5) / kIsppPoints;
      const Volt margin = x - lower_ref + ref_shift;
      double p_x0 = 0.0;
      for (int g = 0; g < 8; ++g) {
        const Volt x0 =
            x0_mean + std::numbers::sqrt2 * x0_sigma * kGhNodes[g];
        p_x0 += kGhWeights[g] *
                retention_.loss_exceeds(margin, x, x0, wear);
      }
      p_drop += p_x0 / std::sqrt(std::numbers::pi);
    }
    p_drop /= kIsppPoints;
    ber += occupancy_[static_cast<std::size_t>(l)] * p_drop *
           drop_damage_[static_cast<std::size_t>(l)];
  }
  return ber;
}

double BerModel::mean_retention_loss(int pe_cycles, Hours age) const {
  if (pe_cycles <= 0 || age <= 0.0) return 0.0;
  const int levels = level_config_.levels();
  const Volt vpp = level_config_.vpp();
  const double x0_mean = level_config_.erased_mean();
  const double x0_sigma = level_config_.erased_sigma();
  constexpr int kIsppPoints = 16;
  const RetentionModel::Wear wear = retention_.wear(pe_cycles, age);

  // Same ISPP x Gauss-Hermite quadrature as retention_ber, but over the
  // Eq. 3 loss *mean* instead of the margin-exceedance tail, weighted by
  // the programmed-level occupancy (the erased state holds no charge to
  // lose and sits below every reference the estimator re-centers).
  double loss = 0.0;
  double weight = 0.0;
  for (int l = 1; l < levels; ++l) {
    const Volt verify = level_config_.verify(l);
    double level_loss = 0.0;
    for (int i = 0; i < kIsppPoints; ++i) {
      const Volt x = verify + vpp * (i + 0.5) / kIsppPoints;
      double mu_x0 = 0.0;
      for (int g = 0; g < 8; ++g) {
        const Volt x0 =
            x0_mean + std::numbers::sqrt2 * x0_sigma * kGhNodes[g];
        mu_x0 += kGhWeights[g] * retention_.mu(x, x0, wear);
      }
      level_loss += mu_x0 / std::sqrt(std::numbers::pi);
    }
    level_loss /= kIsppPoints;
    loss += occupancy_[static_cast<std::size_t>(l)] * level_loss;
    weight += occupancy_[static_cast<std::size_t>(l)];
  }
  return weight > 0.0 ? loss / weight : 0.0;
}

}  // namespace flex::reliability
