// Mean-based late binding — the Kraken / Xanadu / Fifer family the paper
// *excludes* as baselines (§V-A): those systems "assume that function
// execution time does not have large variance, and hence adopt mean
// execution time to perform runtime resource adaptation", which under the
// skewed distributions of production traces "are easily prone to under
// provisioning and severe SLO violations".
//
// We implement the family's common core so the claim can be demonstrated
// quantitatively (see bench_ablation): at each stage the policy picks the
// smallest size whose *mean* remaining latency fits the remaining budget.
#pragma once

#include <memory>

#include "policy/policy.hpp"
#include "profiler/profile.hpp"

namespace janus {

/// The Σ-of-means suffix table a MeanBasedPolicy sizes from:
/// tail_mean[stage * cores.size() + ki] = Σ_{j >= stage} mean latency of
/// stage j at cores[ki] (P50 stands in for the mean these systems estimate
/// from sliding-window telemetry).  Precomputed because the policy is
/// consulted per stage launch on the fleet hot path, where rescanning the
/// profile grid costs O(stages × cores) per call.  Each entry keeps the
/// left-to-right summation order, so decisions are bit-identical to the
/// on-the-fly scan.  A pure function of (profiles, concurrency, grid) —
/// not of the SLO — so tenants of one (workload, concurrency) can share
/// one immutable table.
struct MeanTailTable {
  std::size_t stages = 0;
  std::vector<Millicores> cores;
  std::vector<Seconds> tail_mean;

  /// `profiles` in chain order; throws when empty.
  static MeanTailTable build(const std::vector<LatencyProfile>& profiles,
                             Concurrency concurrency, Millicores kmin,
                             Millicores kmax, Millicores kstep);
};

class MeanBasedPolicy final : public SizingPolicy {
 public:
  /// `profiles` in chain order; builds the policy's own suffix table.
  MeanBasedPolicy(const std::vector<LatencyProfile>& profiles, Seconds slo,
                  Concurrency concurrency, Millicores kmin, Millicores kmax,
                  Millicores kstep);
  /// Sizes from a shared, immutable suffix table (must not be null).
  MeanBasedPolicy(std::shared_ptr<const MeanTailTable> table, Seconds slo);

  const std::string& name() const noexcept override { return name_; }
  Millicores size_for_stage(std::size_t stage, Seconds elapsed,
                            const RequestDraw& draw) override;
  bool late_binding() const noexcept override { return true; }

 private:
  std::string name_ = "MeanAdapt";
  std::shared_ptr<const MeanTailTable> table_;
  Seconds slo_;
};

std::unique_ptr<MeanBasedPolicy> make_mean_based(
    const std::vector<LatencyProfile>& profiles, Seconds slo,
    Concurrency concurrency = 1, Millicores kmin = kDefaultKmin,
    Millicores kmax = kDefaultKmax, Millicores kstep = kDefaultKstep);

}  // namespace janus
