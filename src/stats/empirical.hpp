// Empirical distribution over a fixed sample set: percentile lookup, CDF
// evaluation, and CDF-series extraction for figure output.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace janus {

class EmpiricalDistribution {
 public:
  EmpiricalDistribution() = default;
  /// Takes ownership of samples; sorts them once.  Throws on empty input.
  explicit EmpiricalDistribution(std::vector<double> samples);

  std::size_t size() const noexcept { return sorted_.size(); }
  bool empty() const noexcept { return sorted_.empty(); }

  double min() const;
  double max() const;
  double mean() const;
  double stddev() const;

  /// Percentile with linear interpolation; p in [0, 100].
  double percentile(double p) const;

  /// Empirical CDF: fraction of samples <= x.
  double cdf(double x) const;

  /// Fraction of samples strictly greater than x (e.g. SLO violations).
  double fraction_above(double x) const;

  /// Evenly spaced (value, cumulative-probability) series with `points`
  /// entries, suitable for plotting Fig 1a / Fig 4 style CDFs.
  std::vector<std::pair<double, double>> cdf_series(std::size_t points) const;

  /// Merges `other`'s samples into this distribution (union of the two
  /// sample multisets) in O(n + m); moments combine by Chan's parallel
  /// update.  Commutative and associative on the samples exactly, and on
  /// the moments up to floating-point rounding.  Merging with an empty
  /// distribution is a no-op, so fleet-wide aggregation can fold per-shard
  /// partials in any grouping.
  void merge(const EmpiricalDistribution& other);

  /// The batch form of a left fold of merge() over `parts`: the moments
  /// fold in input order through the same Chan update, so mean/m2 are
  /// bit-identical to the pairwise fold, while the samples are appended
  /// into one reserved vector and stable-sorted once — O(N log N) for N
  /// total samples instead of the fold's O(N · parts).  The stable sort
  /// keeps equal samples in input order, exactly as std::merge does.
  /// Empty members are skipped.
  static EmpiricalDistribution merge_all(
      const std::vector<const EmpiricalDistribution*>& parts);

  /// Rebuilds a distribution from serialized state (codec decode path).
  /// `sorted` must already be sorted ascending; mean/m2 are taken verbatim
  /// so a decode(encode(d)) round-trip is bit-exact, not re-derived.
  static EmpiricalDistribution from_sorted(std::vector<double> sorted,
                                           double mean, double m2) {
    EmpiricalDistribution d;
    d.sorted_ = std::move(sorted);
    d.mean_ = mean;
    d.m2_ = m2;
    return d;
  }

  const std::vector<double>& sorted_samples() const noexcept { return sorted_; }
  double moment_mean() const noexcept { return mean_; }
  double moment_m2() const noexcept { return m2_; }

 private:
  std::vector<double> sorted_;
  double mean_ = 0.0;
  double m2_ = 0.0;  // sum of squared deviations, for stddev

  /// Folds `other`'s moments into this distribution's (Chan's parallel
  /// update; a verbatim copy while this one is empty).  Call before the
  /// samples change: the update reads both sizes.
  void fold_moments(const EmpiricalDistribution& other);
};

}  // namespace janus
