#include "reliability/retention.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include <numbers>

#include "common/normal.h"
#include "common/rng.h"

namespace flex::reliability {
namespace {

RetentionModel::Params unit_scales() {
  RetentionModel::Params p;
  p.mu_scale = 1.0;
  p.sigma_scale = 1.0;
  return p;
}

TEST(RetentionTest, MuMatchesHandComputation) {
  const RetentionModel model(unit_scales());
  // Paper Eq. 3 with Ks=0.333, Kd=4e-4 at x=3.7, x0=1.1, N=6000, t=720h:
  const double expected =
      0.333 * (3.7 - 1.1) * 4e-4 * std::pow(6000.0, 0.4) * std::log1p(720.0);
  EXPECT_NEAR(model.mu(3.7, 1.1, 6000, 720.0), expected, 1e-12);
}

TEST(RetentionTest, SigmaMatchesHandComputation) {
  const RetentionModel model(unit_scales());
  const double variance =
      0.333 * (3.7 - 1.1) * 2e-6 * std::pow(6000.0, 0.5) * std::log1p(720.0);
  EXPECT_NEAR(model.sigma(3.7, 1.1, 6000, 720.0), std::sqrt(variance), 1e-12);
}

TEST(RetentionTest, MonotoneInPeCycles) {
  const RetentionModel model;
  double prev = 0.0;
  for (const int pe : {1000, 2000, 4000, 8000}) {
    const double mu = model.mu(3.5, 1.1, pe, 24.0);
    EXPECT_GT(mu, prev);
    prev = mu;
  }
}

TEST(RetentionTest, MonotoneInStorageTime) {
  const RetentionModel model;
  double prev = 0.0;
  for (const double t : {1.0, 24.0, 168.0, 720.0}) {
    const double mu = model.mu(3.5, 1.1, 5000, t);
    EXPECT_GT(mu, prev);
    prev = mu;
  }
}

TEST(RetentionTest, HigherLevelsLoseMore) {
  // The NUNMA motivation: (x - x0) grows with the stored level, so level 2
  // of a reduced cell outpaces level 1.
  const RetentionModel model;
  EXPECT_GT(model.mu(3.7, 1.1, 5000, 168.0), model.mu(2.8, 1.1, 5000, 168.0));
}

TEST(RetentionTest, NoChargeNoLoss) {
  const RetentionModel model;
  EXPECT_DOUBLE_EQ(model.mu(1.0, 1.1, 5000, 168.0), 0.0);
  EXPECT_DOUBLE_EQ(model.sigma(1.0, 1.1, 5000, 168.0), 0.0);
}

TEST(RetentionTest, ZeroTimeZeroLoss) {
  const RetentionModel model;
  EXPECT_DOUBLE_EQ(model.mu(3.7, 1.1, 5000, 0.0), 0.0);
}

TEST(RetentionTest, SampleLossIsNonNegativeAndCentered) {
  const RetentionModel model;
  Rng rng(1);
  double sum = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    const double loss = model.sample_loss(3.7, 1.1, 6000, 720.0, rng);
    EXPECT_GE(loss, 0.0);
    sum += loss;
  }
  // The loss is max(N(mu, sigma), 0); its mean is the rectified-Gaussian
  // mean mu * Phi(mu/sigma) + sigma * phi(mu/sigma).
  const double mu = model.mu(3.7, 1.1, 6000, 720.0);
  const double sigma = model.sigma(3.7, 1.1, 6000, 720.0);
  const double z = mu / sigma;
  const double expected = mu * normal_cdf(z) +
                          sigma * std::exp(-z * z / 2.0) /
                              std::sqrt(2.0 * std::numbers::pi);
  EXPECT_NEAR(sum / n, expected, 0.03 * expected);
}

TEST(RetentionTest, LossExceedsIsGaussianTail) {
  const RetentionModel model;
  const double mu = model.mu(3.7, 1.1, 6000, 720.0);
  const double sigma = model.sigma(3.7, 1.1, 6000, 720.0);
  EXPECT_NEAR(model.loss_exceeds(mu, 3.7, 1.1, 6000, 720.0), 0.5, 1e-9);
  EXPECT_NEAR(model.loss_exceeds(mu + 2.0 * sigma, 3.7, 1.1, 6000, 720.0),
              0.02275, 1e-4);
}

TEST(RetentionTest, CalibratedDefaults) {
  // DESIGN.md §5: one global calibration shared by every configuration.
  const RetentionModel model;
  EXPECT_NEAR(model.params().mu_scale, 0.542, 1e-12);
  EXPECT_NEAR(model.params().sigma_scale, 1.145, 1e-12);
}

TEST(RetentionTest, ScalesApply) {
  RetentionModel::Params sp = unit_scales();
  sp.mu_scale = 2.0;
  sp.sigma_scale = 3.0;
  const RetentionModel scaled(sp);
  const RetentionModel plain(unit_scales());
  EXPECT_NEAR(scaled.mu(3.7, 1.1, 5000, 100.0),
              2.0 * plain.mu(3.7, 1.1, 5000, 100.0), 1e-12);
  EXPECT_NEAR(scaled.sigma(3.7, 1.1, 5000, 100.0),
              3.0 * plain.sigma(3.7, 1.1, 5000, 100.0), 1e-12);
}

TEST(RetentionTest, WearOverloadsMatchPerCallFormExactly) {
  // The BER integral computes the (P/E, age) factors once per evaluation
  // and reuses them at every quadrature node; that is only sound if the
  // Wear overloads are bit-identical to the per-call forms, so compare
  // with EXPECT_EQ, and against Eq. 3 spelled out in its multiply order
  // (a reordered product rounds differently).
  const RetentionModel model;
  const RetentionModel::Params& p = model.params();
  for (const int pe : {1, 2000, 6000, 6037}) {
    for (const Hours t : {0.5, kDay, kWeek, kMonth}) {
      const RetentionModel::Wear wear = model.wear(pe, t);
      EXPECT_NEAR(wear.pe_mu, std::pow(static_cast<double>(pe), 0.4),
                  1e-12 * wear.pe_mu);
      EXPECT_NEAR(wear.pe_sigma, std::pow(static_cast<double>(pe), 0.5),
                  1e-12 * wear.pe_sigma);
      EXPECT_NEAR(wear.time, std::log1p(t / p.t0), 1e-12 * wear.time);
      for (const Volt x : {0.9, 2.35, 3.7}) {
        for (const Volt x0 : {-1.2, 1.1}) {
          SCOPED_TRACE(testing::Message() << "pe=" << pe << " t=" << t
                                          << " x=" << x << " x0=" << x0);
          const double stress = p.ks * std::max(x - x0, 0.0);
          const double mu = model.mu(x, x0, wear);
          const double sigma = model.sigma(x, x0, wear);
          EXPECT_EQ(mu, model.mu(x, x0, pe, t));
          EXPECT_EQ(mu, p.mu_scale * stress * p.kd * wear.pe_mu * wear.time);
          EXPECT_EQ(sigma, model.sigma(x, x0, pe, t));
          EXPECT_EQ(sigma, p.sigma_scale * std::sqrt(stress * p.km *
                                                     wear.pe_sigma *
                                                     wear.time));
          for (const Volt margin : {0.0, 0.3, 1.4}) {
            EXPECT_EQ(model.loss_exceeds(margin, x, x0, wear),
                      model.loss_exceeds(margin, x, x0, pe, t));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace flex::reliability
