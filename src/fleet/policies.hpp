// Per-tenant sizing policies for the fleet simulator.
//
// The fleet of PRs 2-4 ran every tenant at a fixed allocation; this layer
// wires the paper's §V policy suite (Janus variants, ORION, GrandSLAM,
// mean-based late binding, the clairvoyant Optimal) into the multi-tenant
// simulation so policy *mixes* can be studied under the endogenous
// co-residency contention the epoch control plane produces.
//
// Every sizing artifact is computed offline, once per tenant *class*, and
// shared read-only — as in the paper, where the provider applies offline
// knowledge per request at almost no cost.  Per-tenant catalog work is a
// map lookup plus an O(stages) policy construction:
//
//   * latency profiles — once per (workload, concurrency); every policy of
//     that workload reads the same profile set;
//   * condensed hints bundles — once per (workload, concurrency, Janus
//     exploration variant); every Janus tenant's adapter holds a
//     shared_ptr<const HintsBundle> to the same immutable tables, so the
//     synthesis cost is paid once no matter how many tenants or shards
//     consume it;
//   * early-binding sizes (ORION's Monte-Carlo convolution, the GrandSLAM
//     grid search, the GrandSLAM+ tail DP) — once per (family, workload,
//     concurrency, SLO); make_policy wraps the cached sizes in a fresh
//     FixedSizingPolicy and plan_sizes returns them directly;
//   * mean-based suffix tables — once per (workload, concurrency); every
//     mean-based tenant holds a shared_ptr<const MeanTailTable>;
//   * plan sizes of the late-binding families (and fixed) — once per
//     (policy, workload, SLO, concurrency), plus the allocation for fixed.
//
// Per-tenant *policy objects* are never shared: adapters carry hit/miss
// statistics and each tenant runs on exactly one shard thread, so giving
// every tenant its own instance keeps the hot path lock-free while the
// tables behind it stay shared.
//
// The catalog itself is not thread-safe.  run_fleet writes it only in
// plan_fleet, whose plan_sizes() call for every tenant builds every
// artifact make_policy() reads; the shard threads' make_policy() calls at
// block set-up are then lookups only, and forked workers inherit the
// catalog warm, copy-on-write.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/types.hpp"
#include "hints/generator.hpp"
#include "policy/early_binding.hpp"
#include "policy/mean_based.hpp"
#include "model/interference.hpp"
#include "model/workloads.hpp"
#include "policy/policy.hpp"
#include "profiler/profile.hpp"

namespace janus {

/// Canonical policy names accepted by TenantSpec::policy and the CLI's
/// `fleet --policy`: fixed, janus, janus-, janus+, orion, grandslam,
/// grandslam+, mean_based, optimal.
const std::vector<std::string>& fleet_policy_names();

bool is_fleet_policy(const std::string& name) noexcept;

/// "fixed, janus, janus-, ..." — for one-line error messages.
std::string fleet_policy_list();

/// Throws std::invalid_argument with the canonical one-line message —
/// "unknown sizing policy 'X' (valid: ...)" — unless `name` is a catalog
/// policy.  The single source of that wording: every validation site
/// (run_fleet, make_tenant_mix, PolicyCatalog) goes through here so the
/// CLI error contract cannot drift between them.
void require_fleet_policy(const std::string& name);

/// Knobs for the catalog's offline synthesis.  The defaults are
/// "fleet-grade": a lighter profile/budget grid than the paper benches
/// (bench_util.hpp uses 3000 samples and a 1 ms budget grid) because a
/// fleet run amortizes one synthesis over many tenants, not over a
/// publication figure.  Everything stays deterministic for a fixed config.
struct PolicyCatalogConfig {
  /// Profiler draws per grid point.
  int profile_samples = 1200;
  /// Janus budget-grid step (ms); the paper uses 1.
  BudgetMs budget_step = 2;
  Millicores kmin = kDefaultKmin;
  Millicores kmax = kDefaultKmax;
  Millicores kstep = kDefaultKstep;
  /// Per-remaining-stage safety margin for Janus (JanusPolicy default).
  Seconds janus_safety_margin = 0.012;
  /// Directory of committed hints tables (canonical filenames from
  /// hints_bundle_filename, as written by `janus_cli synthesize`).  When
  /// non-empty, bundle() loads matching tables from disk instead of
  /// synthesizing — the cross-process reuse path: one synthesis run (or a
  /// committed artifact) feeds any number of fleet processes.  The CSV
  /// round trip is exact (integer fields), so a loaded bundle yields
  /// bit-identical fleet results.  Workloads without a complete committed
  /// bundle fall back to in-process synthesis.
  std::string hints_dir;
};

/// What the catalog has built so far (tests assert the share-once
/// contract through these counters).
struct PolicyCatalogStats {
  int profiles_built = 0;
  int bundles_built = 0;
  /// Bundles loaded from PolicyCatalogConfig::hints_dir (no synthesis).
  int bundles_loaded = 0;
  int orion_solved = 0;
  /// Early-binding solves of every family (ORION, GrandSLAM, GrandSLAM+).
  int early_solved = 0;
};

/// Canonical hints-table filename for suffix table `suffix` of (workload,
/// concurrency, exploration) — shared by `janus_cli synthesize` (writer)
/// and PolicyCatalogConfig::hints_dir (reader), so the two can never
/// disagree: "<workload>_c<conc>_<exploration>_suffix<j>.csv".
std::string hints_bundle_filename(const std::string& workload,
                                  Concurrency conc, Exploration exploration,
                                  std::size_t suffix);

class PolicyCatalog {
 public:
  explicit PolicyCatalog(PolicyCatalogConfig config = {});

  /// Fresh per-tenant policy instance backed by the shared artifacts.
  /// Throws std::invalid_argument for unknown names (the list in the
  /// message) — there is no silent fallback.
  std::unique_ptr<SizingPolicy> make_policy(const std::string& name,
                                            const WorkloadSpec& workload,
                                            Seconds slo, Concurrency conc,
                                            Millicores fixed_mc);

  /// Deterministic per-stage allocation estimate used for cluster plan
  /// packing (pod sizes at plan time).  Early-binding policies report
  /// their actual sizes; late-binding policies are walked through the
  /// chain at mean (ws = 1, interference = 1) latencies.  Memoised; the
  /// reference stays valid for the catalog's lifetime.
  const std::vector<Millicores>& plan_sizes(const std::string& name,
                                            const WorkloadSpec& workload,
                                            Seconds slo, Concurrency conc,
                                            Millicores fixed_mc);

  /// Shared profiles for (workload, concurrency); built on first use.
  /// The reference stays valid for the catalog's lifetime.
  const std::vector<LatencyProfile>& profiles(const WorkloadSpec& workload,
                                              Concurrency conc);

  /// Shared condensed hints for (workload, concurrency, exploration).
  std::shared_ptr<const HintsBundle> bundle(const WorkloadSpec& workload,
                                            Concurrency conc,
                                            Exploration exploration);

  const PolicyCatalogConfig& config() const noexcept { return config_; }
  const PolicyCatalogStats& stats() const noexcept { return stats_; }

 private:
  /// Cached sizes of early-binding family `family` (orion, grandslam,
  /// grandslam+).
  const std::vector<Millicores>& early_sizes(const std::string& family,
                                             const WorkloadSpec& workload,
                                             Seconds slo, Concurrency conc);
  std::shared_ptr<const MeanTailTable> mean_tail(const WorkloadSpec& workload,
                                                 Concurrency conc);
  /// Shared early-binding inputs (profiles + grid + SLO): one builder so
  /// make_policy and plan_sizes can never disagree on the setup.
  EarlyBindingInputs early_inputs(const WorkloadSpec& workload, Seconds slo,
                                  Concurrency conc);

  PolicyCatalogConfig config_;
  PolicyCatalogStats stats_;
  // std::map: node-based, so the references/pointers handed out stay
  // valid as the caches grow.
  std::map<std::pair<std::string, Concurrency>, std::vector<LatencyProfile>>
      profiles_;
  std::map<std::tuple<std::string, Concurrency, int>,
           std::shared_ptr<const HintsBundle>>
      bundles_;
  // (family, workload, concurrency, SLO)
  std::map<std::tuple<std::string, std::string, Concurrency, Seconds>,
           std::vector<Millicores>>
      early_;
  std::map<std::pair<std::string, Concurrency>,
           std::shared_ptr<const MeanTailTable>>
      mean_tails_;
  // (policy, workload, SLO, concurrency, fixed_mc — 0 unless "fixed")
  std::map<std::tuple<std::string, std::string, Seconds, Concurrency,
                      Millicores>,
           std::vector<Millicores>>
      plans_;
};

/// Decorator making any sizing policy react *directly* to the epoch
/// control plane's co-residency signal (late-binding policies already
/// react indirectly, through the inflated stage latencies the live
/// interference draws produce): the wrapped policy's allocation is scaled
/// by 1 + alpha * (stage co-residency - 1) and clamped to [base, kmax].
/// The provider is read at stage-launch time; between reconciliation
/// barriers it is constant, and its state is a pure function of (epoch,
/// fleet seed, tenant set), so the fleet's bit-identical-at-any-shard-
/// count contract is preserved.
class ContentionAwarePolicy final : public SizingPolicy {
 public:
  /// `base` must not be null; `feed` must outlive the policy.
  ContentionAwarePolicy(std::unique_ptr<SizingPolicy> base,
                        const CoLocationProvider& feed, double alpha,
                        Millicores kmax = kDefaultKmax);

  const std::string& name() const noexcept override { return base_->name(); }
  void on_request_start(const RequestDraw& draw) override {
    base_->on_request_start(draw);
  }
  Millicores size_for_stage(std::size_t stage, Seconds elapsed,
                            const RequestDraw& draw) override;
  bool late_binding() const noexcept override { return true; }

  double alpha() const noexcept { return alpha_; }

 private:
  std::unique_ptr<SizingPolicy> base_;
  const CoLocationProvider* feed_;
  double alpha_;
  Millicores kmax_;
};

}  // namespace janus
