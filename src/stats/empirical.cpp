#include "stats/empirical.hpp"

#include <algorithm>
#include <cmath>

#include "common/types.hpp"
#include "stats/quantile.hpp"

namespace janus {

EmpiricalDistribution::EmpiricalDistribution(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  require(!sorted_.empty(), "EmpiricalDistribution needs >= 1 sample");
  std::sort(sorted_.begin(), sorted_.end());
  // Welford over the sorted data (order does not matter for the moments).
  double mean = 0.0, m2 = 0.0;
  std::size_t n = 0;
  for (double x : sorted_) {
    ++n;
    const double d = x - mean;
    mean += d / static_cast<double>(n);
    m2 += d * (x - mean);
  }
  mean_ = mean;
  m2_ = m2;
}

double EmpiricalDistribution::min() const {
  require(!empty(), "min of empty distribution");
  return sorted_.front();
}

double EmpiricalDistribution::max() const {
  require(!empty(), "max of empty distribution");
  return sorted_.back();
}

double EmpiricalDistribution::mean() const {
  require(!empty(), "mean of empty distribution");
  return mean_;
}

double EmpiricalDistribution::stddev() const {
  require(!empty(), "stddev of empty distribution");
  if (sorted_.size() < 2) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(sorted_.size() - 1));
}

double EmpiricalDistribution::percentile(double p) const {
  return percentile_sorted(sorted_, p);
}

double EmpiricalDistribution::cdf(double x) const {
  if (empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalDistribution::fraction_above(double x) const {
  return 1.0 - cdf(x);
}

void EmpiricalDistribution::fold_moments(const EmpiricalDistribution& other) {
  if (empty()) {
    mean_ = other.mean_;
    m2_ = other.m2_;
    return;
  }
  const double na = static_cast<double>(sorted_.size());
  const double nb = static_cast<double>(other.sorted_.size());
  const double delta = other.mean_ - mean_;
  mean_ += delta * nb / (na + nb);
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
}

void EmpiricalDistribution::merge(const EmpiricalDistribution& other) {
  if (other.empty()) return;
  fold_moments(other);
  if (empty()) {
    sorted_ = other.sorted_;
    return;
  }
  std::vector<double> merged(sorted_.size() + other.sorted_.size());
  std::merge(sorted_.begin(), sorted_.end(), other.sorted_.begin(),
             other.sorted_.end(), merged.begin());
  sorted_ = std::move(merged);
}

EmpiricalDistribution EmpiricalDistribution::merge_all(
    const std::vector<const EmpiricalDistribution*>& parts) {
  std::size_t total = 0;
  for (const EmpiricalDistribution* part : parts) total += part->size();
  EmpiricalDistribution out;
  out.sorted_.reserve(total);
  for (const EmpiricalDistribution* part : parts) {
    if (part->empty()) continue;
    out.fold_moments(*part);
    out.sorted_.insert(out.sorted_.end(), part->sorted_.begin(),
                       part->sorted_.end());
  }
  std::stable_sort(out.sorted_.begin(), out.sorted_.end());
  return out;
}

std::vector<std::pair<double, double>> EmpiricalDistribution::cdf_series(
    std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (empty() || points == 0) return out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q = points == 1
                         ? 1.0
                         : static_cast<double>(i) / static_cast<double>(points - 1);
    out.emplace_back(quantile_sorted(sorted_, q), q);
  }
  return out;
}

}  // namespace janus
