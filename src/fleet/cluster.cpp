#include "fleet/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.hpp"

namespace janus {

ClusterCapacity::ClusterCapacity(ClusterConfig config) : config_(config) {
  require(config.nodes > 0, "cluster needs >= 1 node");
  require(config.node_capacity_mc > 0, "node capacity must be > 0");
  used_.assign(static_cast<std::size_t>(config.nodes), 0);
  reindex_nodes();
}

std::uint64_t ClusterCapacity::node_key(int node) const noexcept {
  // used_ is never negative: pods only add their size and give it back.
  return static_cast<std::uint64_t>(used_[static_cast<std::size_t>(node)])
             << 32 |
         static_cast<std::uint32_t>(node);
}

void ClusterCapacity::reindex_nodes() {
  const std::size_t n = used_.size();
  leaves_ = 1;
  while (leaves_ < n) leaves_ *= 2;
  least_.assign(2 * leaves_, std::numeric_limits<std::uint64_t>::max());
  for (std::size_t i = 0; i < n; ++i) {
    least_[leaves_ + i] = node_key(static_cast<int>(i));
  }
  for (std::size_t k = leaves_ - 1; k >= 1; --k) {
    least_[k] = std::min(least_[2 * k], least_[2 * k + 1]);
  }
  // Still all zero: resizing keeps the zeros and zero-fills new nodes.
  per_node_.resize(n, 0);
}

void ClusterCapacity::update_node(int node) {
  std::size_t k = leaves_ + static_cast<std::size_t>(node);
  least_[k] = node_key(node);
  for (k /= 2; k >= 1; k /= 2) {
    const std::uint64_t key = std::min(least_[2 * k], least_[2 * k + 1]);
    if (least_[k] == key) break;  // every ancestor is unchanged too
    least_[k] = key;
  }
}

void ClusterCapacity::mark_dirty(int id) {
  groups_[static_cast<std::size_t>(id)].dirty = true;
}

bool ClusterCapacity::take_dirty(int group) {
  require(group >= 0 && static_cast<std::size_t>(group) < groups_.size(),
          "group id out of range");
  Group& g = groups_[static_cast<std::size_t>(group)];
  const bool dirty = g.dirty;
  g.dirty = false;
  return dirty;
}

void ClusterCapacity::count_hosts(int id) {
  hosts_.clear();
  for (int n : groups_[static_cast<std::size_t>(id)].nodes) {
    if (per_node_[static_cast<std::size_t>(n)]++ == 0) hosts_.push_back(n);
  }
}

int ClusterCapacity::pending_nodes() const noexcept {
  int total = 0;
  for (const auto& order : orders_) total += order.second;
  return total;
}

Millicores ClusterCapacity::used_mc(int node) const {
  require(node >= 0 && static_cast<std::size_t>(node) < used_.size(),
          "node index out of range");
  return used_[static_cast<std::size_t>(node)];
}

double ClusterCapacity::utilization() const {
  // Every node failed: nothing is allocatable, report 0 rather than 0/0.
  if (used_.empty()) return 0.0;
  double total = 0.0;
  for (Millicores u : used_) total += static_cast<double>(u);
  return total / (static_cast<double>(config_.node_capacity_mc) *
                  static_cast<double>(used_.size()));
}

int ClusterCapacity::pack_pods(int id, int count) {
  if (count <= 0) return 0;
  if (used_.empty()) {
    // No node survives (chaos can fail the last one): the pods are
    // stranded — counted and dropped, never an assert.  The callers log
    // one summary line per failure or barrier, not one per group.
    stranded_ += count;
    return 0;
  }
  mark_dirty(id);
  Group& group = groups_[static_cast<std::size_t>(id)];
  const Millicores pod_mc = group.pod_mc;
  const auto fits = [&](int n) {
    return used_[static_cast<std::size_t>(n)] + pod_mc <=
           config_.node_capacity_mc;
  };
  const auto pods_on = [&](int n) {
    return per_node_[static_cast<std::size_t>(n)];
  };
  // Pack with the group's own pods first: the node hosting the most of
  // them that still has room, ties to the lower used_, then the lower
  // index.  Returns -1 when none of the group's nodes has room.
  const auto best_host = [&] {
    int best = -1;
    for (int n : hosts_) {
      if (!fits(n)) continue;
      if (best < 0 || pods_on(n) > pods_on(best) ||
          (pods_on(n) == pods_on(best) && node_key(n) < node_key(best))) {
        best = n;
      }
    }
    return best;
  };
  count_hosts(id);
  int host = best_host();
  for (int p = 0; p < count; ++p) {
    int node = host;
    if (node < 0) {
      // No node of the group has room: the emptiest node, so distinct
      // groups only share once capacity forces them to (contention comes
      // from load, not from tie-breaking).  If even it has no room, no
      // node does: overcommit it (ties to the lowest index, keeping the
      // packing deterministic).
      node = static_cast<int>(least_[1] & 0xffffffffu);
      if (!fits(node)) ++overcommitted_;
    }
    used_[static_cast<std::size_t>(node)] += pod_mc;
    update_node(node);
    if (per_node_[static_cast<std::size_t>(node)]++ == 0) {
      hosts_.push_back(node);
    }
    group.nodes.push_back(node);
    // used_ only grows here, so a node without room never regains it.  A
    // host that keeps room stays the best (it just gained a pod); a fresh
    // node with room is the group's only host that has any.
    if (fits(node)) {
      host = node;
    } else if (node == host) {
      host = best_host();
    }
  }
  for (int n : hosts_) per_node_[static_cast<std::size_t>(n)] = 0;
  return count;
}

void ClusterCapacity::release_pods(int id, int count) {
  Group& group = groups_[static_cast<std::size_t>(id)];
  require(count <= static_cast<int>(group.nodes.size()),
          "release_pods: group has no pods left");
  if (count <= 0) return;
  mark_dirty(id);
  count_hosts(id);
  // Release from the node where the group is thinnest (spills unwind
  // before the packed core), ties to the highest index.  A node stays the
  // thinnest until it empties, so release drains whole nodes in that
  // order; per_node_ becomes how many of each node's pods stay.
  for (int left = count; left > 0;) {
    int victim = -1;
    for (int n : hosts_) {
      const int pods = per_node_[static_cast<std::size_t>(n)];
      if (pods == 0) continue;
      if (victim < 0 || pods < per_node_[static_cast<std::size_t>(victim)] ||
          (pods == per_node_[static_cast<std::size_t>(victim)] &&
           n > victim)) {
        victim = n;
      }
    }
    int& stay = per_node_[static_cast<std::size_t>(victim)];
    const int taken = std::min(left, stay);
    stay -= taken;
    left -= taken;
    used_[static_cast<std::size_t>(victim)] -= taken * group.pod_mc;
    update_node(victim);
  }
  // Keep each node's first placement entries and drop its last ones —
  // the ones a pod-by-pod release would drop — preserving the order of
  // the rest.  Counting the kept entries down zeroes per_node_ again.
  auto kept = group.nodes.begin();
  for (int n : group.nodes) {
    int& keep = per_node_[static_cast<std::size_t>(n)];
    if (keep > 0) {
      --keep;
      *kept++ = n;
    }
  }
  group.nodes.erase(kept, group.nodes.end());
}

int ClusterCapacity::add_group(int count, Millicores pod_mc) {
  require(count >= 0, "pod count must be >= 0");
  // A zero-pod group is legal (an idle stage); only a real placement
  // needs a real pod size.
  require(count == 0 || pod_mc > 0, "pod size must be > 0");
  Group group;
  group.pod_mc = pod_mc;
  group.nodes.reserve(static_cast<std::size_t>(count));
  groups_.push_back(std::move(group));
  const int id = static_cast<int>(groups_.size()) - 1;
  mark_dirty(id);  // new, even when empty: its co-residency was never read
  pack_pods(id, count);
  return id;
}

std::vector<int> ClusterCapacity::place_group(int count, Millicores pod_mc) {
  return groups_[static_cast<std::size_t>(add_group(count, pod_mc))].nodes;
}

const std::vector<int>& ClusterCapacity::assignment(int group) const {
  require(group >= 0 && static_cast<std::size_t>(group) < groups_.size(),
          "group id out of range");
  return groups_[static_cast<std::size_t>(group)].nodes;
}

Millicores ClusterCapacity::group_pod_mc(int group) const {
  require(group >= 0 && static_cast<std::size_t>(group) < groups_.size(),
          "group id out of range");
  return groups_[static_cast<std::size_t>(group)].pod_mc;
}

double ClusterCapacity::group_coresidency(int group) const {
  const std::vector<int>& nodes = assignment(group);
  if (nodes.empty()) return 0.0;
  for (int n : nodes) ++per_node_[static_cast<std::size_t>(n)];
  // Each node's c pods each count c co-residents: add c * c once per node
  // and zero its counter.  The integer total equals the per-pod sum
  // exactly, and so does its conversion to double.
  std::int64_t total = 0;
  for (int n : nodes) {
    int& pods = per_node_[static_cast<std::size_t>(n)];
    total += static_cast<std::int64_t>(pods) * pods;
    pods = 0;
  }
  return static_cast<double>(total) / static_cast<double>(nodes.size());
}

void ClusterCapacity::resize_group(int group, int count) {
  require(group >= 0 && static_cast<std::size_t>(group) < groups_.size(),
          "group id out of range");
  require(count >= 0, "pod count must be >= 0");
  Group& g = groups_[static_cast<std::size_t>(group)];
  const int current = static_cast<int>(g.nodes.size());
  if (count > current) {
    require(g.pod_mc > 0, "cannot grow a group placed with zero-size pods");
    pack_pods(group, count - current);
  } else if (count < current) {
    release_pods(group, current - count);
  }
}

ClusterCapacity::RemoveOutcome ClusterCapacity::fail_node(int victim) {
  require(victim >= 0 && static_cast<std::size_t>(victim) < used_.size(),
          "node index out of range");
  // Evict the victim's pods, group by group in id order.
  std::vector<int> displaced(groups_.size(), 0);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    Group& group = groups_[g];
    for (std::size_t i = group.nodes.size(); i > 0; --i) {
      if (group.nodes[i - 1] == victim) {
        group.nodes.erase(group.nodes.begin() +
                          static_cast<std::ptrdiff_t>(i - 1));
        used_[static_cast<std::size_t>(victim)] -= group.pod_mc;
        ++displaced[g];
      }
    }
    if (displaced[g] > 0) mark_dirty(static_cast<int>(g));
  }
  // Retire the node and renumber every assignment past it.
  used_.erase(used_.begin() + victim);
  reindex_nodes();
  for (Group& group : groups_) {
    for (int& n : group.nodes) {
      if (n > victim) --n;
    }
  }
  // Re-pack the displaced pods, groups in id order — the deterministic
  // repacking shared by scale-in and chaos node failure.  pack_pods
  // strands what it cannot place (zero nodes left).
  RemoveOutcome out;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (displaced[g] == 0) continue;
    const int placed = pack_pods(static_cast<int>(g), displaced[g]);
    out.displaced += placed;
    out.stranded += displaced[g] - placed;
  }
  if (out.stranded > 0) {
    log_warn("cluster: node ", victim, " failed: ", out.stranded,
             " pods stranded (no nodes left)");
  }
  return out;
}

int ClusterCapacity::remove_one_node() {
  // Victim: the emptiest node, ties to the highest index (so renumbering
  // disturbs as few assignments as possible).
  int victim = 0;
  for (std::size_t n = 1; n < used_.size(); ++n) {
    if (used_[n] <= used_[static_cast<std::size_t>(victim)]) {
      victim = static_cast<int>(n);
    }
  }
  // Scale-in never removes the last node (autoscale min_nodes >= 1), so
  // the displaced pods always re-pack; stranding is a chaos-only outcome.
  const RemoveOutcome out = fail_node(victim);
  return out.displaced + out.stranded;
}

ClusterCapacity::ScaleEvent ClusterCapacity::autoscale_step(
    const AutoscaleConfig& cfg) {
  ScaleEvent event;
  // Mature pending orders first: a node ordered with latency L becomes
  // usable on the L-th step after the order.
  for (auto& order : orders_) --order.first;
  for (std::size_t i = 0; i < orders_.size();) {
    if (orders_[i].first <= 0) {
      used_.insert(used_.end(), static_cast<std::size_t>(orders_[i].second),
                   0);
      event.added += orders_[i].second;
      orders_.erase(orders_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  if (event.added > 0) reindex_nodes();
  if (!cfg.enabled) return event;
  require(cfg.min_nodes >= 1 && cfg.max_nodes >= cfg.min_nodes,
          "autoscale node bounds must satisfy 1 <= min <= max");
  require(cfg.max_step_nodes >= 1, "autoscale step must be >= 1 node");
  require(cfg.scale_in_utilization < cfg.scale_out_utilization,
          "autoscale band must satisfy scale_in < scale_out");

  const double u = utilization();
  const int total = nodes() + pending_nodes();
  if (u > cfg.scale_out_utilization && total < cfg.max_nodes) {
    // Order enough nodes to bring allocation back to the target, counting
    // nodes already on order so back-to-back hot epochs don't double-buy.
    double used_total = 0.0;
    for (Millicores m : used_) used_total += static_cast<double>(m);
    const int want = static_cast<int>(
        std::ceil(used_total / (cfg.scale_out_utilization *
                                static_cast<double>(config_.node_capacity_mc))));
    const int deficit =
        std::min({want - total, cfg.max_step_nodes, cfg.max_nodes - total});
    if (deficit > 0) {
      if (cfg.scale_out_latency_epochs <= 0) {
        used_.insert(used_.end(), static_cast<std::size_t>(deficit), 0);
        reindex_nodes();
        event.added += deficit;
      } else {
        orders_.emplace_back(cfg.scale_out_latency_epochs, deficit);
        event.ordered = deficit;
      }
    }
  } else if (u < cfg.scale_in_utilization) {
    while (event.removed < cfg.max_step_nodes && nodes() > cfg.min_nodes &&
           utilization() < cfg.scale_in_utilization) {
      event.displaced_pods += remove_one_node();
      ++event.removed;
    }
  }
  if (event.ordered > 0 || event.added > 0 || event.removed > 0) {
    log_debug("cluster: autoscale ordered=", event.ordered,
              " added=", event.added, " removed=", event.removed,
              " displaced_pods=", event.displaced_pods, " nodes=", nodes(),
              " pending=", pending_nodes(), " utilization=", u);
  }
  return event;
}

double ClusterCapacity::mean_coresidency(const std::vector<int>& assignment) {
  if (assignment.empty()) return 0.0;
  int max_node = 0;
  for (int n : assignment) max_node = n > max_node ? n : max_node;
  std::vector<int> per_node(static_cast<std::size_t>(max_node) + 1, 0);
  for (int n : assignment) ++per_node[static_cast<std::size_t>(n)];
  double total = 0.0;
  for (int n : assignment) {
    total += static_cast<double>(per_node[static_cast<std::size_t>(n)]);
  }
  return total / static_cast<double>(assignment.size());
}

}  // namespace janus
