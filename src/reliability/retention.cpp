#include "reliability/retention.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "common/normal.h"

namespace flex::reliability {

RetentionModel::RetentionModel(Params params) : params_(params) {
  FLEX_EXPECTS(params_.ks > 0.0);
  FLEX_EXPECTS(params_.kd > 0.0);
  FLEX_EXPECTS(params_.km > 0.0);
  FLEX_EXPECTS(params_.t0 > 0.0);
  FLEX_EXPECTS(params_.mu_scale > 0.0);
  FLEX_EXPECTS(params_.sigma_scale > 0.0);
}

double RetentionModel::stress(Volt x, Volt x0) const {
  // A cell holding no extra charge (x <= x0) has nothing to lose.
  return params_.ks * std::max(x - x0, 0.0);
}

RetentionModel::Wear RetentionModel::wear(int pe_cycles, Hours t) const {
  FLEX_EXPECTS(pe_cycles >= 0);
  FLEX_EXPECTS(t >= 0.0);
  const auto pe = static_cast<double>(pe_cycles);
  return {.pe_mu = std::pow(pe, 0.4),
          .pe_sigma = std::pow(pe, 0.5),
          .time = std::log1p(t / params_.t0)};
}

double RetentionModel::mu(Volt x, Volt x0, const Wear& wear) const {
  return params_.mu_scale * stress(x, x0) * params_.kd * wear.pe_mu *
         wear.time;
}

double RetentionModel::sigma(Volt x, Volt x0, const Wear& wear) const {
  const double variance =
      stress(x, x0) * params_.km * wear.pe_sigma * wear.time;
  return params_.sigma_scale * std::sqrt(std::max(variance, 0.0));
}

double RetentionModel::sample_loss(Volt x, Volt x0, int pe_cycles, Hours t,
                                   Rng& rng) const {
  const double loss =
      rng.normal(mu(x, x0, pe_cycles, t), sigma(x, x0, pe_cycles, t));
  // Charge loss is physically one-directional; the Gaussian is the paper's
  // approximation of its spread, so clip the (rare) negative tail.
  return std::max(loss, 0.0);
}

double RetentionModel::loss_exceeds(Volt margin, Volt x, Volt x0,
                                    const Wear& wear) const {
  const double s = sigma(x, x0, wear);
  if (s <= 0.0) return margin < mu(x, x0, wear) ? 1.0 : 0.0;
  return q_function((margin - mu(x, x0, wear)) / s);
}

}  // namespace flex::reliability
