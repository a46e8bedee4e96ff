// Performance-interference model.
//
// Commercial platforms co-locate instances of the *same* function on one VM
// (the paper cites 65% of Alibaba Function Compute VMs hosting a single
// function), which contends on the VM's shared bandwidths.  Figure 1c
// reports slowdowns up to 8.1x at six co-located instances, ordered by the
// function's dominant resource: network > memory > IO > CPU (CPU is cgroup-
// partitioned, so it contends least).
//
// We model the slowdown as  1 + slope(dim) * (n - 1) * J  where n is the
// number of co-located instances of the function on the node and J is a
// lognormal jitter capturing the "hard to model and predict" variability.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace janus {

/// Dominant resource dimension of a function (micro-benchmarks in §II-B:
/// AES encryption, Redis read, socket communication, local-disk write).
enum class ResourceDim { Cpu, Memory, Io, Network };

const char* to_string(ResourceDim dim) noexcept;

struct InterferenceParams {
  /// Per-extra-instance slowdown slope by dimension.  Defaults reproduce
  /// Fig 1c: at n=6, network ~8.1x, memory ~5.1x, IO ~3.6x, CPU ~1.8x.
  double slope_cpu = 0.16;
  double slope_memory = 0.82;
  double slope_io = 0.52;
  double slope_network = 1.42;
  /// Lognormal sigma of the jitter J (median 1).
  double jitter_sigma = 0.10;
};

class InterferenceModel {
 public:
  InterferenceModel() = default;
  explicit InterferenceModel(InterferenceParams params) : params_(params) {}

  double slope(ResourceDim dim) const noexcept;

  /// Deterministic mean slowdown at `colocated` same-function instances
  /// (>= 1; the instance itself counts).
  double mean_multiplier(ResourceDim dim, int colocated) const;

  /// Random slowdown draw (>= 1).
  double sample_multiplier(ResourceDim dim, int colocated, Rng& rng) const;

  const InterferenceParams& params() const noexcept { return params_; }

 private:
  InterferenceParams params_;
};

/// Distribution of co-location counts seen by an invocation.  Profiling and
/// runtime both draw from one of these; shifting the runtime distribution
/// away from the profiled one is how benches inject "unexpected runtime
/// dynamics" (hints-table misses).
struct CoLocationDistribution {
  /// Probability of observing 1, 2, ... co-located instances (normalized on
  /// use).  Default: mostly alone, occasionally 2-3 (conc=1 steady state).
  std::vector<double> weights{0.70, 0.20, 0.10};

  int sample(Rng& rng) const;
  double mean() const;

  /// Heavier co-location for higher batch concurrency (the paper drives
  /// higher loads through larger batch sizes, which packs more instances).
  static CoLocationDistribution for_concurrency(Concurrency c);

  /// Distribution concentrated at a (possibly fractional) mean count:
  /// mass split between floor(mean) and ceil(mean) so that mean() equals
  /// the input (clamped to >= 1).  This is how the fleet feeds endogenous
  /// co-location — computed from cluster bin-packing — back into the
  /// interference model.
  static CoLocationDistribution concentrated(double mean);
  /// Rewrites this distribution as concentrated(mean) in place, reusing
  /// the weights' capacity.
  void concentrate(double mean);
};

/// Source of per-stage co-location distributions for a request stream.
///
/// A *static* provider (live() == false) is a frozen snapshot: the runner
/// pre-draws every request's interference from it up front, which keeps the
/// paired-request contract and reproduces the plan-once pipeline exactly.
/// A *live* provider (live() == true) may change between epochs — the
/// fleet's control plane updates it at every reconciliation barrier — so
/// the runner samples the multiplier at stage-launch time instead, from a
/// per-(request, stage) derived rng stream that no event interleaving can
/// shift.
class CoLocationProvider {
 public:
  virtual ~CoLocationProvider() = default;
  /// Distribution currently in effect for chain stage `stage`; throws when
  /// the provider does not cover the stage.  The reference is valid until
  /// the provider next changes (a live feed: the next barrier), so callers
  /// read it in place instead of copying it per stage launch.
  virtual const CoLocationDistribution& stage_distribution(
      std::size_t stage) const = 0;
  /// Number of stages covered.
  virtual std::size_t stages() const noexcept = 0;
  /// Whether the distributions can shift mid-run (epoch feed).
  virtual bool live() const noexcept { return false; }
};

/// Frozen per-stage distributions (the plan-time special case).
class StaticCoLocation final : public CoLocationProvider {
 public:
  StaticCoLocation() = default;
  explicit StaticCoLocation(std::vector<CoLocationDistribution> per_stage)
      : per_stage_(std::move(per_stage)) {}

  const CoLocationDistribution& stage_distribution(
      std::size_t stage) const override;
  std::size_t stages() const noexcept override { return per_stage_.size(); }

 private:
  std::vector<CoLocationDistribution> per_stage_;
};

}  // namespace janus
