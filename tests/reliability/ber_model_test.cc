#include "reliability/ber_model.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "nand/level_config.h"

namespace flex::reliability {
namespace {

BerEngine::Config small_mc() {
  return {.wordlines = 32, .bitlines = 128, .rounds = 2,
          .coupling = nand::CouplingRatios{}};
}

TEST(BerModelTest, GrayOccupancyAndDamage) {
  Rng rng(1);
  const GrayMapper mapper;
  const BerModel model(nand::LevelConfig::baseline_mlc(), mapper,
                       RetentionModel{}, small_mc(), rng);
  ASSERT_EQ(model.level_occupancy().size(), 4u);
  for (const double occ : model.level_occupancy()) {
    EXPECT_NEAR(occ, 0.25, 1e-12);  // uniform data
  }
  // Gray code: a one-level drop flips exactly one of two bits, and the
  // mapper has 1 cell / 2 bits -> damage 0.5 at every programmed level.
  for (int l = 1; l < 4; ++l) {
    EXPECT_NEAR(model.drop_damage()[static_cast<std::size_t>(l)], 0.5, 1e-12);
  }
}

TEST(BerModelTest, ReduceCodeOccupancy) {
  Rng rng(2);
  const flexlevel::ReduceCodeMapper mapper;
  const BerModel model(flexlevel::nunma_config(flexlevel::NunmaScheme::kNunma3),
                       mapper, RetentionModel{}, small_mc(), rng);
  ASSERT_EQ(model.level_occupancy().size(), 3u);
  // Table 1: over the 8 patterns x 2 cells, levels appear 6/16, 5/16, 5/16.
  EXPECT_NEAR(model.level_occupancy()[0], 6.0 / 16.0, 1e-12);
  EXPECT_NEAR(model.level_occupancy()[1], 5.0 / 16.0, 1e-12);
  EXPECT_NEAR(model.level_occupancy()[2], 5.0 / 16.0, 1e-12);
}

TEST(BerModelTest, RetentionBerZeroWhenFresh) {
  Rng rng(3);
  const GrayMapper mapper;
  const BerModel model(nand::LevelConfig::baseline_mlc(), mapper,
                       RetentionModel{}, small_mc(), rng);
  EXPECT_DOUBLE_EQ(model.retention_ber(6000, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(model.retention_ber(0, 100.0), 0.0);
}

TEST(BerModelTest, RetentionBerMonotone) {
  Rng rng(4);
  const GrayMapper mapper;
  const BerModel model(nand::LevelConfig::baseline_mlc(), mapper,
                       RetentionModel{}, small_mc(), rng);
  double prev = 0.0;
  for (const double age : {kDay, 2 * kDay, kWeek, kMonth}) {
    const double ber = model.retention_ber(5000, age);
    EXPECT_GT(ber, prev);
    prev = ber;
  }
  EXPECT_GT(model.retention_ber(6000, kWeek), model.retention_ber(3000, kWeek));
}

TEST(BerModelTest, AnalyticMatchesMonteCarlo) {
  // The analytic integral must track the full Monte-Carlo engine within
  // sampling error; this is what licenses its use inside the SSD simulator.
  Rng rng(5);
  const GrayMapper mapper;
  const nand::LevelConfig cfg = nand::LevelConfig::baseline_mlc();
  const RetentionModel retention;
  const BerModel model(cfg, mapper, retention, small_mc(), rng);

  BerEngine engine({.wordlines = 64, .bitlines = 256, .rounds = 16,
                    .coupling = {.gamma_x = 0.0, .gamma_y = 0.0,
                                 .gamma_xy = 0.0}});
  for (const auto& [pe, age] : {std::pair{6000, kMonth},
                                std::pair{5000, kWeek}}) {
    const double analytic = model.retention_ber(pe, age);
    const BerReport mc =
        engine.measure(cfg, mapper, &retention, pe, age, rng);
    EXPECT_NEAR(analytic, mc.total.rate(),
                3.0 * mc.total.margin95() + 0.1 * analytic)
        << "pe=" << pe << " age=" << age;
  }
}

TEST(BerModelTest, C2cComponentPositiveWithCoupling) {
  Rng rng(6);
  const GrayMapper mapper;
  const BerModel model(nand::LevelConfig::baseline_mlc(), mapper,
                       RetentionModel{}, small_mc(), rng);
  EXPECT_GT(model.c2c_ber(), 0.0);
  EXPECT_NEAR(model.total_ber(5000, kWeek),
              model.c2c_ber() + model.retention_ber(5000, kWeek), 1e-15);
}

TEST(BerModelTest, ReducedStateBeatsBaseline) {
  // The core device-level claim: the NUNMA 3 reduced cell has lower total
  // BER than the baseline MLC cell at every operating point in Table 4.
  Rng rng(7);
  const GrayMapper gray;
  const flexlevel::ReduceCodeMapper reduce;
  const RetentionModel retention;
  const BerModel baseline(nand::LevelConfig::baseline_mlc(), gray, retention,
                          small_mc(), rng);
  const BerModel nunma3(
      flexlevel::nunma_config(flexlevel::NunmaScheme::kNunma3), reduce,
      retention, small_mc(), rng);
  for (const int pe : {2000, 4000, 6000}) {
    for (const double age : {kDay, kWeek, kMonth}) {
      EXPECT_LT(nunma3.total_ber(pe, age), baseline.total_ber(pe, age))
          << "pe=" << pe << " age=" << age;
    }
  }
}

// Bit-for-bit pin of the retention integral: values generated with the
// per-node (pe, t) evaluation, so any change to the quadrature or to the
// Eq. 3 multiply order (which would move the simulator's pinned outputs)
// fails here first.
struct PinnedRetention {
  int pe;
  Hours age;
  double ber;          ///< retention_ber(pe, age)
  double shifted_ber;  ///< retention_ber(pe, age, kPinnedShift)
  double mean_loss;    ///< mean_retention_loss(pe, age)
};
constexpr Volt kPinnedShift = 0.05;

void expect_pinned(const BerModel& model,
                   const std::vector<PinnedRetention>& rows) {
  for (const PinnedRetention& row : rows) {
    SCOPED_TRACE(testing::Message() << "pe=" << row.pe << " age=" << row.age);
    EXPECT_EQ(model.retention_ber(row.pe, row.age), row.ber);
    EXPECT_EQ(model.retention_ber(row.pe, row.age, kPinnedShift),
              row.shifted_ber);
    EXPECT_EQ(model.mean_retention_loss(row.pe, row.age), row.mean_loss);
  }
}

TEST(BerModelTest, RetentionIntegralIsPinnedBaseline) {
  Rng rng(1);
  const GrayMapper mapper;
  const BerModel model(nand::LevelConfig::baseline_mlc(), mapper,
                       RetentionModel{}, small_mc(), rng);
  expect_pinned(model, {
      {1, 0.5, 0x0p+0, 0x0p+0,
       0x1.e4f87bf13ecbdp-15},
      {1, kDay, 0x1.acd9f4d11da42p-209, 0x1.5720844516632p-708,
       0x1.e1418c213d545p-12},
      {1, kWeek, 0x1.7d1264b572072p-138, 0x1.17455c339c04cp-449,
       0x1.7f7cb320f61f8p-11},
      {1, kMonth, 0x1.ec847ca700904p-112, 0x1.2d1fea257fe7ap-353,
       0x1.ebf0094109fd5p-11},
      {2000, 0.5, 0x1.d6d6cf81aba04p-53, 0x1.6eee1b85e1dcap-143,
       0x1.3cf0b7ad3e1bcp-10},
      {2000, kDay, 0x1.2d2f0b8845db5p-13, 0x1.13db407fa2d2bp-27,
       0x1.3a8341bdc75f9p-7},
      {2000, kWeek, 0x1.3ef79579a3ac4p-10, 0x1.31c62cd0b3df2p-19,
       0x1.f53c928018b03p-7},
      {2000, kMonth, 0x1.8d67dd6444f02p-9, 0x1.7127bc457114p-16,
       0x1.417e501437e11p-6},
      {6000, 0.5, 0x1.f07c892decadep-36, 0x1.6bc45ce1cd0d6p-91,
       0x1.ebd7a7ea045edp-10},
      {6000, kDay, 0x1.675eb59c4cf76p-10, 0x1.db9510612da1dp-19,
       0x1.e8133eb1d37e4p-7},
      {6000, kWeek, 0x1.a3827dbcff667p-8, 0x1.2c18b9ba3475cp-13,
       0x1.84ebc09b14a1bp-6},
      {6000, kMonth, 0x1.9ea9d53a4e341p-7, 0x1.54953443d36bep-11,
       0x1.f2e87ad7c4f05p-6},
      {6037, 0.5, 0x1.05896d05f77d5p-35, 0x1.a7cfd7dbb852ap-91,
       0x1.ed0daa5164efdp-10},
      {6037, kDay, 0x1.6b26744285bfep-10, 0x1.e895831eccd34p-19,
       0x1.e946e13a5d88dp-7},
      {6037, kWeek, 0x1.a6d37453aefdap-8, 0x1.31b45801d03f8p-13,
       0x1.85e0e3ddaccacp-6},
      {6037, kMonth, 0x1.a1847d625808ap-7, 0x1.59d09689679e8p-11,
       0x1.f422f15a3ebf5p-6},
  });
}

TEST(BerModelTest, RetentionIntegralIsPinnedReduced) {
  Rng rng(1);
  const flexlevel::ReduceCodeMapper mapper;
  const BerModel model(flexlevel::nunma_config(flexlevel::NunmaScheme::kNunma3),
                       mapper, RetentionModel{}, small_mc(), rng);
  expect_pinned(model, {
      {1, 0.5, 0x0p+0, 0x0p+0,
       0x1.0e1bfcfd9f02ap-14},
      {1, kDay, 0x1.b693f77238a16p-920, 0x0p+0,
       0x1.0c0a5ab6520d1p-11},
      {1, kWeek, 0x1.733df76309b64p-582, 0x0p+0,
       0x1.ab2c90fd7b12bp-11},
      {1, kMonth, 0x1.009a477dee9f5p-456, 0x1.102cdba011eaep-975,
       0x1.11fd5b0cbe22cp-10},
      {2000, 0.5, 0x1.5298210c384fcp-180, 0x1.4575c5254c365p-368,
       0x1.610bd6e08bb97p-10},
      {2000, kDay, 0x1.c4467ea6e587fp-35, 0x1.dfb467660f6b7p-60,
       0x1.5e5794e859fdp-7},
      {2000, kWeek, 0x1.f4ac66740e342p-25, 0x1.37cb8db6e5228p-41,
       0x1.172b382e46549p-6},
      {2000, kMonth, 0x1.14b5830fe066ep-20, 0x1.b73ece1b3764ap-34,
       0x1.661e383dc05e5p-6},
      {6000, 0.5, 0x1.1ac69f84bc76ap-112, 0x1.28e6104948df2p-220,
       0x1.11efc6df3ea8ep-9},
      {6000, kDay, 0x1.db1d3e7984cf4p-24, 0x1.194260a2dc34bp-39,
       0x1.0fd6a36947a62p-6},
      {6000, kWeek, 0x1.a338195d5dccep-17, 0x1.5523ff0f7bc28p-27,
       0x1.b13a1693d0bp-6},
      {6000, kMonth, 0x1.826af91110051p-14, 0x1.7100b0830dd3ep-22,
       0x1.15df3840062dbp-5},
      {6037, 0.5, 0x1.584683e44cc32p-112, 0x1.c8219f178582ep-220,
       0x1.129c7091d782bp-9},
      {6037, kDay, 0x1.ebc5ffdc910d4p-24, 0x1.2b8d96e0a904p-39,
       0x1.1081fa8c9c623p-6},
      {6037, kWeek, 0x1.ada5a74a78f5bp-17, 0x1.64a9a17b5ec19p-27,
       0x1.b24b26f00b31dp-6},
      {6037, kMonth, 0x1.8a8bd3db10084p-14, 0x1.7efea637f28f6p-22,
       0x1.168e5cf0f8136p-5},
  });
}

}  // namespace
}  // namespace flex::reliability
