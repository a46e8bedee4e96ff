#include "model/interference.hpp"

#include <cmath>
#include <numeric>

namespace janus {

const char* to_string(ResourceDim dim) noexcept {
  switch (dim) {
    case ResourceDim::Cpu: return "CPU";
    case ResourceDim::Memory: return "Memory";
    case ResourceDim::Io: return "IO";
    case ResourceDim::Network: return "Network";
  }
  return "?";
}

double InterferenceModel::slope(ResourceDim dim) const noexcept {
  switch (dim) {
    case ResourceDim::Cpu: return params_.slope_cpu;
    case ResourceDim::Memory: return params_.slope_memory;
    case ResourceDim::Io: return params_.slope_io;
    case ResourceDim::Network: return params_.slope_network;
  }
  return 0.0;
}

double InterferenceModel::mean_multiplier(ResourceDim dim, int colocated) const {
  require(colocated >= 1, "co-location count must be >= 1");
  return 1.0 + slope(dim) * static_cast<double>(colocated - 1);
}

double InterferenceModel::sample_multiplier(ResourceDim dim, int colocated,
                                            Rng& rng) const {
  const double base = mean_multiplier(dim, colocated);
  const double contention = base - 1.0;
  if (contention <= 0.0) {
    // Alone on the node: still a little system noise.
    return 1.0 + 0.02 * rng.uniform();
  }
  const double jitter = rng.lognormal(0.0, params_.jitter_sigma);
  return 1.0 + contention * jitter;
}

int CoLocationDistribution::sample(Rng& rng) const {
  require(!weights.empty(), "co-location distribution is empty");
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  require(total > 0.0, "co-location weights sum to zero");
  double u = rng.uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return static_cast<int>(i) + 1;
  }
  return static_cast<int>(weights.size());
}

double CoLocationDistribution::mean() const {
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  double m = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    m += weights[i] * static_cast<double>(i + 1);
  }
  return total > 0.0 ? m / total : 1.0;
}

CoLocationDistribution CoLocationDistribution::for_concurrency(Concurrency c) {
  CoLocationDistribution dist;
  if (c <= 1) {
    dist.weights = {0.70, 0.20, 0.10};
  } else if (c == 2) {
    dist.weights = {0.45, 0.30, 0.15, 0.10};
  } else {
    dist.weights = {0.30, 0.30, 0.20, 0.12, 0.08};
  }
  return dist;
}

CoLocationDistribution CoLocationDistribution::concentrated(double mean) {
  CoLocationDistribution dist;
  dist.concentrate(mean);
  return dist;
}

void CoLocationDistribution::concentrate(double mean) {
  if (!(mean > 1.0)) {  // also catches NaN
    weights.assign(1, 1.0);
    return;
  }
  const double lo = std::floor(mean);
  const double frac = mean - lo;
  weights.assign(static_cast<std::size_t>(std::ceil(mean)), 0.0);
  weights[static_cast<std::size_t>(lo) - 1] = 1.0 - frac;
  if (frac > 0.0) weights.back() = frac;
}

const CoLocationDistribution& StaticCoLocation::stage_distribution(
    std::size_t stage) const {
  require(stage < per_stage_.size(),
          "co-location provider does not cover this chain stage");
  return per_stage_[stage];
}

}  // namespace janus
