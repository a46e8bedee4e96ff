// Epoch-based fleet control plane.
//
// Replaces the plan-once cluster snapshot with a closed loop between what
// the shards' Platforms actually ran and the co-residency the interference
// draws see:
//
//   every epoch_s of simulated time, all shards pause at a barrier and
//   publish, per (tenant, stage), the peak number of concurrently busy
//   pods their Platform observed; the control plane merges the
//   observations in tenant-index order, resizes each stage's pod group on
//   the shared ClusterCapacity (autoscaling the node pool as it goes), and
//   broadcasts the new per-stage co-residency through each tenant's
//   EpochFeed.
//
// Determinism contract: a tenant's simulation between barriers is a pure
// function of its own seed and the feed state (never of shard layout), so
// the observations — and therefore the merged epoch state — are a pure
// function of (epoch index, fleet seed, tenant set).  Fleet metrics stay
// bit-identical at any shard count, with the control loop running.
//
// epoch_s = infinity is the plan-once special case: the feed freezes at
// the Little's-law plan packing and the runner pre-draws from it, which
// reproduces the static pipeline exactly.
#pragma once

#include <cstddef>
#include <deque>
#include <limits>
#include <vector>

#include "common/types.hpp"
#include "fleet/cluster.hpp"
#include "model/interference.hpp"

namespace janus {

/// "Never reconcile": the plan-once static path.
inline constexpr Seconds kNoEpochs = std::numeric_limits<Seconds>::infinity();

struct ControlConfig {
  /// Simulated seconds between reconciliation barriers; kNoEpochs (the
  /// default) disables the loop and freezes the plan-time packing.
  Seconds epoch_s = kNoEpochs;
  AutoscaleConfig autoscale{};
};

/// What chaos injected at one barrier (all zeros / 1.0 when the chaos
/// engine is off or idle this epoch) — carried on the snapshot so the
/// audit trail and the obs timeline can attribute disturbances.
struct EpochChaos {
  int failed_nodes = 0;
  int displaced_pods = 0;   // evicted by failures and re-packed
  int stranded_pods = 0;    // evicted and droppable nowhere
  int preempted_pods = 0;   // busy pods killed across victim tenants
  /// Startup multiplier in force for the next epoch (1 = calm).
  double storm_multiplier = 1.0;
};

/// One reconciliation barrier's outcome (the deterministic audit trail —
/// compared bit-for-bit across shard counts by the tests and benches).
struct EpochSnapshot {
  int epoch = 0;
  Seconds sim_time = 0.0;
  int nodes = 0;
  int pending_nodes = 0;
  double utilization = 0.0;
  int nodes_ordered = 0;
  int nodes_added = 0;
  int nodes_removed = 0;
  int groups_resized = 0;
  int displaced_pods = 0;
  EpochChaos chaos{};
};

/// Per-tenant co-location source, updated by the control plane at each
/// barrier and read by the tenant's serve_workload stage launches.  Writes
/// and reads never overlap: shards only run between barriers, and the
/// ThreadPool's dispatch/join orders the accesses.
class EpochFeed final : public CoLocationProvider {
 public:
  /// Each stage starts empty (sampling it throws) until set_stage or
  /// set_stage_mean fills it — ControlPlane::plan_tenant does so at once,
  /// so no placeholder distribution is allocated only to be replaced.
  EpochFeed(std::size_t stages, bool live) : stages_(stages), live_(live) {}

  const CoLocationDistribution& stage_distribution(
      std::size_t stage) const override {
    require(stage < stages_.size(),
            "epoch feed does not cover this chain stage");
    return stages_[stage].dist;
  }
  std::size_t stages() const noexcept override { return stages_.size(); }
  bool live() const noexcept override { return live_; }

  /// Replaces the stage's distribution outright.
  void set_stage(std::size_t stage, CoLocationDistribution dist);
  /// Sets the stage to CoLocationDistribution::concentrated(mean), in
  /// place and only when `mean` differs from the last one set: the
  /// distribution is a pure function of its mean, so the per-barrier
  /// broadcast allocates nothing.
  void set_stage_mean(std::size_t stage, double mean);

 private:
  struct Stage {
    CoLocationDistribution dist{{}};
    /// Mean the stage was last concentrated at; NaN (never equal) after
    /// construction or a set_stage override.
    double mean = std::numeric_limits<double>::quiet_NaN();
  };
  std::vector<Stage> stages_;
  bool live_ = false;
};

class ControlPlane {
 public:
  ControlPlane(ClusterConfig cluster, ControlConfig config);

  bool live() const noexcept { return config_.epoch_s != kNoEpochs; }
  Seconds epoch_s() const noexcept { return config_.epoch_s; }

  /// Plan-time registration: places `stage_pods[s]` pods of
  /// `stage_mc[s]` millicores for each stage (the Little's-law pod count
  /// at the tenant policy's plan allocation — per-stage, because sizing
  /// policies allocate stages differently) and returns the tenant's feed,
  /// initialized to the plan packing.  The reference stays valid for the
  /// ControlPlane's lifetime.
  EpochFeed& plan_tenant(const std::vector<int>& stage_pods,
                         const std::vector<Millicores>& stage_mc);

  /// One reconciliation barrier at simulated time `sim_time`:
  /// `observed[t][s]` is tenant t's stage-s pod demand (peak busy pods
  /// this epoch; clamped to >= 1 — an idle stage still keeps one pod
  /// warm).  Merges in tenant-index order, autoscales, rebroadcasts.
  /// `chaos` is what the chaos engine injected just before this barrier
  /// (defaults to calm), recorded on the snapshot.
  void reconcile(Seconds sim_time,
                 const std::vector<std::vector<int>>& observed,
                 const EpochChaos& chaos = {});

  /// Chaos injection: fails cluster node `node` outright (pods evicted,
  /// re-packed in group-id order, stranded when nothing can take them) and
  /// rebroadcasts the co-residency of every group it moved — so
  /// contention-aware policies see the crowding the failure created even
  /// before the next reconcile.  Returns what happened to the node's pods.
  ClusterCapacity::RemoveOutcome inject_node_failure(int node);

  std::size_t tenants() const noexcept { return tenants_.size(); }
  /// Tenant's current mean co-residency across stages (reporting).
  double tenant_coresidency(std::size_t tenant) const;
  /// Cluster group id backing (tenant, stage) — lets the observability
  /// timeline read the group's post-reconcile allocation and placement.
  int tenant_group(std::size_t tenant, std::size_t stage) const;

  const ClusterCapacity& cluster() const noexcept { return cluster_; }
  int epochs_run() const noexcept { return static_cast<int>(history_.size()); }
  const std::vector<EpochSnapshot>& history() const noexcept {
    return history_;
  }

 private:
  /// A tenant's cluster groups, one per chain stage: plan_tenant adds
  /// them back to back, so they are the ids [first, first + stages).
  struct TenantGroups {
    int first = 0;
    std::size_t stages = 0;
  };

  /// Pushes the current co-residency of each of the tenant's groups the
  /// cluster marked dirty (added, resized, or moved by a node removal)
  /// into its feed.  The other groups' co-residency is unchanged, so the
  /// feed already holds it.
  void broadcast_dirty(std::size_t tenant);
  /// broadcast_dirty for every tenant.
  void broadcast_dirty();

  ClusterCapacity cluster_;
  ControlConfig config_;
  std::deque<EpochFeed> feeds_;  // deque: stable addresses across growth
  std::vector<TenantGroups> tenants_;
  std::vector<EpochSnapshot> history_;
};

}  // namespace janus
