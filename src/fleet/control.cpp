#include "fleet/control.hpp"

#include <algorithm>
#include <limits>

#include "common/log.hpp"

namespace janus {

void EpochFeed::set_stage(std::size_t stage, CoLocationDistribution dist) {
  require(stage < stages_.size(),
          "epoch feed does not cover this chain stage");
  stages_[stage].dist = std::move(dist);
  stages_[stage].mean = std::numeric_limits<double>::quiet_NaN();
}

void EpochFeed::set_stage_mean(std::size_t stage, double mean) {
  require(stage < stages_.size(),
          "epoch feed does not cover this chain stage");
  Stage& st = stages_[stage];
  if (mean == st.mean) return;
  st.dist.concentrate(mean);
  st.mean = mean;
}

ControlPlane::ControlPlane(ClusterConfig cluster, ControlConfig config)
    : cluster_(cluster), config_(config) {
  require(config.epoch_s > 0.0, "epoch length must be > 0 (or kNoEpochs)");
}

EpochFeed& ControlPlane::plan_tenant(const std::vector<int>& stage_pods,
                                     const std::vector<Millicores>& stage_mc) {
  require(!stage_pods.empty(), "tenant needs >= 1 chain stage");
  require(stage_pods.size() == stage_mc.size(),
          "plan needs one pod size per chain stage");
  TenantGroups groups;
  groups.first = cluster_.group_count();
  groups.stages = stage_pods.size();
  for (std::size_t s = 0; s < stage_pods.size(); ++s) {
    cluster_.add_group(stage_pods[s], stage_mc[s]);
  }
  tenants_.push_back(groups);
  feeds_.emplace_back(stage_pods.size(), live());
  // Adding a group places only its own pods: no other tenant changed.
  broadcast_dirty(tenants_.size() - 1);
  return feeds_.back();
}

void ControlPlane::broadcast_dirty(std::size_t tenant) {
  const TenantGroups& groups = tenants_[tenant];
  for (std::size_t s = 0; s < groups.stages; ++s) {
    const int group = groups.first + static_cast<int>(s);
    if (cluster_.take_dirty(group)) {
      feeds_[tenant].set_stage_mean(s, cluster_.group_coresidency(group));
    }
  }
}

void ControlPlane::broadcast_dirty() {
  for (std::size_t t = 0; t < tenants_.size(); ++t) broadcast_dirty(t);
}

ClusterCapacity::RemoveOutcome ControlPlane::inject_node_failure(int node) {
  const ClusterCapacity::RemoveOutcome out = cluster_.fail_node(node);
  // Rebroadcast immediately: the failure just concentrated surviving pods,
  // and the feeds must reflect that even if no reconcile follows (tests
  // drive this standalone; run_fleet reconciles right after anyway).
  broadcast_dirty();
  return out;
}

void ControlPlane::reconcile(Seconds sim_time,
                             const std::vector<std::vector<int>>& observed,
                             const EpochChaos& chaos) {
  require(live(), "reconcile needs a finite epoch length");
  require(observed.size() == tenants_.size(),
          "reconcile needs one observation row per tenant");
  EpochSnapshot snap;
  snap.epoch = static_cast<int>(history_.size());
  snap.sim_time = sim_time;
  snap.chaos = chaos;
  const int stranded_before = cluster_.stranded_pods();
  // Merge in tenant-index order — the fixed fold that keeps the packing a
  // pure function of (epoch, fleet seed, tenant set) at any shard count.
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    const TenantGroups& groups = tenants_[t];
    require(observed[t].size() == groups.stages,
            "reconcile needs one observation per tenant stage");
    for (std::size_t s = 0; s < groups.stages; ++s) {
      // An idle stage still keeps one warm pod; demand never drops to 0.
      const int want = std::max(1, observed[t][s]);
      const int group = groups.first + static_cast<int>(s);
      if (want != static_cast<int>(cluster_.assignment(group).size())) {
        cluster_.resize_group(group, want);
        ++snap.groups_resized;
      }
    }
  }
  const ClusterCapacity::ScaleEvent event =
      cluster_.autoscale_step(config_.autoscale);
  snap.nodes_ordered = event.ordered;
  snap.nodes_added = event.added;
  snap.nodes_removed = event.removed;
  snap.displaced_pods = event.displaced_pods;
  snap.nodes = cluster_.nodes();
  snap.pending_nodes = cluster_.pending_nodes();
  snap.utilization = cluster_.utilization();
  const int stranded = cluster_.stranded_pods() - stranded_before;
  if (stranded > 0) {
    log_warn("control: epoch ", snap.epoch, ": ", stranded,
             " pods stranded (no nodes left)");
  }
  // Broadcast the post-repack co-residency of every group a resize or a
  // scale-in moved pods into or out of.
  broadcast_dirty();
  log_debug("control: epoch ", snap.epoch, " @", sim_time, "s: ",
            snap.groups_resized, " groups resized, nodes=", snap.nodes, " (+",
            snap.nodes_added, "/-", snap.nodes_removed, ", ",
            snap.nodes_ordered, " ordered, ", snap.displaced_pods,
            " pods displaced), utilization=", snap.utilization);
  history_.push_back(snap);
}

int ControlPlane::tenant_group(std::size_t tenant, std::size_t stage) const {
  require(tenant < tenants_.size(), "tenant index out of range");
  const TenantGroups& groups = tenants_[tenant];
  require(stage < groups.stages, "stage index out of range");
  return groups.first + static_cast<int>(stage);
}

double ControlPlane::tenant_coresidency(std::size_t tenant) const {
  require(tenant < tenants_.size(), "tenant index out of range");
  const TenantGroups& groups = tenants_[tenant];
  double total = 0.0;
  for (std::size_t s = 0; s < groups.stages; ++s) {
    const int group = groups.first + static_cast<int>(s);
    // Reporting matches the plan-time convention: a pod is co-resident at
    // least with itself, so an empty (idle) stage reads as 1.
    total += std::max(1.0, cluster_.group_coresidency(group));
  }
  return total / static_cast<double>(groups.stages);
}

}  // namespace janus
