#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.h"

namespace flex {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
}

double RunningStats::min() const {
  return count_ == 0 ? std::numeric_limits<double>::infinity() : min_;
}

double RunningStats::max() const {
  return count_ == 0 ? -std::numeric_limits<double>::infinity() : max_;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  FLEX_EXPECTS(hi > lo);
  FLEX_EXPECTS(bins > 0);
}

Histogram Histogram::log_spaced(double lo, double hi, std::size_t bins) {
  FLEX_EXPECTS(lo > 0.0);
  Histogram h(lo, hi, bins);
  h.log_ = true;
  h.log_lo_ = std::log(lo);
  h.log_width_ = (std::log(hi) - h.log_lo_) / static_cast<double>(bins);
  return h;
}

void Histogram::add(double x) {
  std::size_t idx;
  if (x < lo_) {
    idx = 0;
  } else if (x >= hi_) {
    idx = counts_.size() - 1;
  } else if (log_) {
    idx = static_cast<std::size_t>((std::log(x) - log_lo_) / log_width_);
    idx = std::min(idx, counts_.size() - 1);
  } else {
    idx = static_cast<std::size_t>((x - lo_) / width_);
    idx = std::min(idx, counts_.size() - 1);
  }
  ++counts_[idx];
  ++total_;
}

bool Histogram::same_shape(const Histogram& other) const {
  return lo_ == other.lo_ && hi_ == other.hi_ && log_ == other.log_ &&
         counts_.size() == other.counts_.size();
}

bool Histogram::operator==(const Histogram& other) const {
  return same_shape(other) && total_ == other.total_ &&
         counts_ == other.counts_;
}

void Histogram::merge(const Histogram& other) {
  FLEX_EXPECTS(same_shape(other));
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

double Histogram::bin_low(std::size_t i) const {
  if (!log_) return lo_ + width_ * static_cast<double>(i);
  // Pin the outer edges exactly; exp(log(lo)) can be off by an ulp.
  if (i == 0) return lo_;
  return std::exp(log_lo_ + log_width_ * static_cast<double>(i));
}

double Histogram::bin_high(std::size_t i) const {
  if (!log_) return lo_ + width_ * static_cast<double>(i + 1);
  if (i + 1 == counts_.size()) return hi_;
  return std::exp(log_lo_ + log_width_ * static_cast<double>(i + 1));
}

double Histogram::quantile(double q) const {
  FLEX_EXPECTS(q >= 0.0 && q <= 1.0);
  if (total_ == 0) return lo_;
  const double target = q * static_cast<double>(total_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double frac =
          counts_[i] == 0
              ? 0.0
              : (target - cumulative) / static_cast<double>(counts_[i]);
      return bin_low(i) + frac * (bin_high(i) - bin_low(i));
    }
    cumulative = next;
  }
  return hi_;
}

void RateEstimator::add_many(std::uint64_t events, std::uint64_t trials) {
  FLEX_EXPECTS(events <= trials);
  events_ += events;
  trials_ += trials;
}

double RateEstimator::rate() const {
  return trials_ == 0
             ? 0.0
             : static_cast<double>(events_) / static_cast<double>(trials_);
}

double RateEstimator::margin95() const {
  if (trials_ == 0) return 0.0;
  const double z = 1.96;
  const double n = static_cast<double>(trials_);
  const double p = rate();
  return z * std::sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) /
         (1.0 + z * z / n);
}

}  // namespace flex
