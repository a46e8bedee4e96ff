// Tests for src/fleet: arrival processes, the autoscaling cluster node
// pool, the epoch control plane, and the sharded multi-tenant fleet
// runner's determinism + aggregation contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "fleet/arrivals.hpp"
#include "fleet/cluster.hpp"
#include "fleet/control.hpp"
#include "fleet/fleet.hpp"
#include "fleet/policies.hpp"
#include "model/trace_synth.hpp"
#include "model/workloads.hpp"
#include "sim/engine.hpp"
#include "stats/codec.hpp"

// ---- Allocation-counting hook -------------------------------------------
// Replaces this binary's global operator new/delete with counting
// forwarders, so StaticStreamedRunAllocationsPerTenantStayBounded can hold
// the fleet's per-tenant lifecycle to an allocation budget.  Every form is
// replaced (nothrow, aligned), so no block is allocated by one allocator
// and freed by another (the standard library's stable_sort buffer uses
// nothrow new, and AddressSanitizer checks the pairing).
namespace {
std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size ? size : 1);
  } else if (posix_memalign(&p, align, size ? size : 1) != 0) {
    p = nullptr;
  }
  if (p != nullptr) g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* counted_or_throw(std::size_t size, std::size_t align) {
  if (void* p = counted_alloc(size, align)) return p;
  throw std::bad_alloc();
}

constexpr std::size_t kPlain = alignof(std::max_align_t);
}  // namespace

void* operator new(std::size_t n) { return counted_or_throw(n, kPlain); }
void* operator new[](std::size_t n) { return counted_or_throw(n, kPlain); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kPlain);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kPlain);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace janus {
namespace {

/// Upper bound for StaticStreamedRunAllocationsPerTenantStayBounded.
/// The code makes 15.09 per tenant for this fleet (30174 allocations; the
/// code that ran static streamed fleets in 4096-tenant waves made 83.6),
/// so one more allocation per tenant crosses the bound.
constexpr double kMaxAllocsPerTenant = 16.0;

// ------------------------------------------------------------- arrivals --
std::vector<Seconds> arrival_times(const ArrivalSpec& spec, int count,
                                   std::uint64_t seed) {
  auto process = make_arrivals(spec);
  Rng rng(seed);
  std::vector<Seconds> times;
  Seconds t = 0.0;
  for (int i = 0; i < count; ++i) {
    t = process->next(t, rng);
    times.push_back(t);
  }
  return times;
}

TEST(Arrivals, PoissonMeanRateConverges) {
  ArrivalSpec spec;
  spec.rate = 25.0;
  const auto times = arrival_times(spec, 20000, 7);
  const double observed = 20000.0 / times.back();
  EXPECT_NEAR(observed, 25.0, 25.0 * 0.05);
}

TEST(Arrivals, SequencesAreMonotoneAndDeterministic) {
  for (const ArrivalKind kind :
       {ArrivalKind::Poisson, ArrivalKind::Mmpp, ArrivalKind::Diurnal}) {
    ArrivalSpec spec;
    spec.kind = kind;
    spec.rate = 10.0;
    spec.burst_rate = 40.0;
    const auto a = arrival_times(spec, 2000, 42);
    const auto b = arrival_times(spec, 2000, 42);
    EXPECT_EQ(a, b) << to_string(kind);
    for (std::size_t i = 1; i < a.size(); ++i) {
      ASSERT_GT(a[i], a[i - 1]) << to_string(kind);
    }
    EXPECT_NE(a, arrival_times(spec, 2000, 43)) << to_string(kind);
  }
}

TEST(Arrivals, MmppMeanRateBetweenBaseAndBurst) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::Mmpp;
  spec.rate = 10.0;
  spec.burst_rate = 60.0;
  spec.base_dwell_s = 20.0;
  spec.burst_dwell_s = 4.0;
  const auto times = arrival_times(spec, 40000, 3);
  const double observed = 40000.0 / times.back();
  EXPECT_GT(observed, 10.0);
  EXPECT_LT(observed, 60.0);
  // Stationary mean: (10*20 + 60*4) / 24 = 18.33...; the estimator only
  // sees ~90 dwell cycles, so give it CLT headroom.
  EXPECT_NEAR(observed, spec.mean_rate(), spec.mean_rate() * 0.25);
}

TEST(Arrivals, MmppIsBurstier) {
  // Squared coefficient of variation of interarrivals: 1 for Poisson,
  // > 1 for a bursty MMPP at the same mean rate.
  const auto cv2 = [](const std::vector<Seconds>& times) {
    std::vector<double> gaps;
    for (std::size_t i = 1; i < times.size(); ++i) {
      gaps.push_back(times[i] - times[i - 1]);
    }
    double mean = 0.0;
    for (double g : gaps) mean += g;
    mean /= static_cast<double>(gaps.size());
    double var = 0.0;
    for (double g : gaps) var += (g - mean) * (g - mean);
    var /= static_cast<double>(gaps.size() - 1);
    return var / (mean * mean);
  };
  ArrivalSpec poisson;
  poisson.rate = 20.0;
  ArrivalSpec mmpp;
  mmpp.kind = ArrivalKind::Mmpp;
  mmpp.rate = 5.0;
  mmpp.burst_rate = 80.0;
  mmpp.base_dwell_s = 10.0;
  mmpp.burst_dwell_s = 2.0;
  EXPECT_NEAR(cv2(arrival_times(poisson, 30000, 9)), 1.0, 0.15);
  EXPECT_GT(cv2(arrival_times(mmpp, 30000, 9)), 1.5);
}

TEST(Arrivals, DiurnalTracksRateCurve) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::Diurnal;
  spec.rate = 20.0;
  spec.period_s = 100.0;
  spec.amplitude = 0.9;
  const auto times = arrival_times(spec, 40000, 5);
  // Count arrivals in the rising half vs the falling half of each period:
  // sin > 0 on [0, T/2), < 0 on [T/2, T).
  std::size_t high = 0, low = 0;
  for (Seconds t : times) {
    const double phase = std::fmod(t, spec.period_s) / spec.period_s;
    (phase < 0.5 ? high : low) += 1;
  }
  EXPECT_GT(static_cast<double>(high),
            1.5 * static_cast<double>(low));  // peak half dominates
  // Long-run mean still ~rate.
  EXPECT_NEAR(40000.0 / times.back(), 20.0, 20.0 * 0.10);
}

TEST(Arrivals, TraceReplaysAndLoopsDeterministically) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::Trace;
  spec.trace_gaps = {1.0, 2.0, 3.0};
  auto process = make_arrivals(spec);
  Rng rng(1);
  std::vector<Seconds> times;
  Seconds t = 0.0;
  for (int i = 0; i < 7; ++i) times.push_back(t = process->next(t, rng));
  // The 3-gap trace loops: 1,2,3 | 1,2,3 | 1 ...
  const std::vector<Seconds> expected = {1.0, 3.0, 6.0, 7.0, 9.0, 12.0, 13.0};
  EXPECT_EQ(times, expected);
  // The trace defines its own rate: 3 arrivals per 6 seconds.
  EXPECT_DOUBLE_EQ(spec.mean_rate(), 0.5);
  EXPECT_EQ(process->kind(), ArrivalKind::Trace);
  EXPECT_EQ(arrival_kind_from_string("trace"), ArrivalKind::Trace);
}

TEST(Arrivals, TraceValidation) {
  ArrivalSpec empty;
  empty.kind = ArrivalKind::Trace;
  EXPECT_THROW(make_arrivals(empty), std::invalid_argument);
  ArrivalSpec zero;
  zero.kind = ArrivalKind::Trace;
  zero.trace_gaps = {0.5, 0.0};
  EXPECT_THROW(make_arrivals(zero), std::invalid_argument);
  ArrivalSpec negative;
  negative.kind = ArrivalKind::Trace;
  negative.trace_gaps = {0.5, -1.0};
  EXPECT_THROW(make_arrivals(negative), std::invalid_argument);
}

TEST(Arrivals, SynthesizedInterarrivalTrace) {
  const auto gaps = synthesize_interarrivals(5000, 25.0, 42);
  ASSERT_EQ(gaps.size(), 5000u);
  double total = 0.0;
  for (double gap : gaps) {
    ASSERT_GT(gap, 0.0);
    total += gap;
  }
  // Rescaling makes the loop's long-run rate exact, not approximate.
  EXPECT_NEAR(5000.0 / total, 25.0, 1e-9);
  EXPECT_EQ(gaps, synthesize_interarrivals(5000, 25.0, 42));
  EXPECT_NE(gaps, synthesize_interarrivals(5000, 25.0, 43));
  // Heavier-tailed than exponential: max gap far above the mean.
  const double max_gap = *std::max_element(gaps.begin(), gaps.end());
  EXPECT_GT(max_gap, 10.0 / 25.0);
  EXPECT_THROW(synthesize_interarrivals(0, 25.0, 1), std::invalid_argument);
  EXPECT_THROW(synthesize_interarrivals(10, 0.0, 1), std::invalid_argument);
}

TEST(Arrivals, SpecValidation) {
  ArrivalSpec bad;
  bad.rate = 0.0;
  EXPECT_THROW(make_arrivals(bad), std::invalid_argument);
  ArrivalSpec mmpp;
  mmpp.kind = ArrivalKind::Mmpp;
  mmpp.rate = 10.0;
  mmpp.burst_rate = 5.0;  // below base
  EXPECT_THROW(make_arrivals(mmpp), std::invalid_argument);
  ArrivalSpec diurnal;
  diurnal.kind = ArrivalKind::Diurnal;
  diurnal.amplitude = 1.5;
  EXPECT_THROW(make_arrivals(diurnal), std::invalid_argument);
  EXPECT_EQ(arrival_kind_from_string("mmpp"), ArrivalKind::Mmpp);
  EXPECT_THROW(arrival_kind_from_string("pareto"), std::invalid_argument);
}

TEST(Arrivals, FlashCrowdMultipliesRateInsideWindow) {
  ArrivalSpec spec;
  spec.rate = 20.0;
  spec.flash_k = 5.0;
  spec.flash_t0_s = 50.0;
  spec.flash_t1_s = 100.0;
  const auto times = arrival_times(spec, 30000, 11);
  int inside = 0;
  for (Seconds t : times) {
    if (t >= 50.0 && t < 100.0) ++inside;
  }
  // 50 s at 20/s x 5 = ~5000 arrivals inside the window.
  EXPECT_NEAR(inside, 5000, 5000 * 0.10);
  // The plan stays blind: mean_rate() excludes the window by design.
  EXPECT_DOUBLE_EQ(spec.mean_rate(), 20.0);
}

TEST(Arrivals, FlashComposesWithEveryKindMonotoneDeterministic) {
  for (const ArrivalKind kind :
       {ArrivalKind::Poisson, ArrivalKind::Mmpp, ArrivalKind::Diurnal,
        ArrivalKind::Trace}) {
    ArrivalSpec spec;
    spec.kind = kind;
    spec.rate = 10.0;
    spec.burst_rate = 40.0;
    if (kind == ArrivalKind::Trace) spec.trace_gaps = {0.05, 0.2, 0.11};
    spec.flash_k = 8.0;
    spec.flash_t0_s = 5.0;
    spec.flash_t1_s = 9.0;
    const auto a = arrival_times(spec, 3000, 42);
    EXPECT_EQ(a, arrival_times(spec, 3000, 42)) << to_string(kind);
    for (std::size_t i = 1; i < a.size(); ++i) {
      ASSERT_GT(a[i], a[i - 1]) << to_string(kind);
    }
    // The warp is the identity before t0: the pre-window prefix matches
    // the base process exactly.
    ArrivalSpec base = spec;
    base.flash_k = 1.0;
    const auto b = arrival_times(base, 3000, 42);
    for (std::size_t i = 0; i < a.size() && a[i] < 5.0; ++i) {
      ASSERT_DOUBLE_EQ(a[i], b[i]) << to_string(kind);
    }
  }
}

TEST(Arrivals, FlashSpecValidation) {
  ArrivalSpec spec;
  spec.flash_k = 0.0;
  EXPECT_THROW(make_arrivals(spec), std::invalid_argument);
  spec.flash_k = -2.0;
  EXPECT_THROW(make_arrivals(spec), std::invalid_argument);
  spec.flash_k = 3.0;  // window required once armed
  spec.flash_t0_s = 10.0;
  spec.flash_t1_s = 10.0;
  EXPECT_THROW(make_arrivals(spec), std::invalid_argument);
  spec.flash_t1_s = 20.0;
  EXPECT_NO_THROW(make_arrivals(spec));
  // K < 1 is a brown-out, equally legal.
  spec.flash_k = 0.25;
  EXPECT_NO_THROW(make_arrivals(spec));
}

// -------------------------------------------------------------- cluster --
TEST(Cluster, PacksGroupOntoOneNodeWhenItFits) {
  ClusterCapacity cluster({4, 10000});
  const auto placed = cluster.place_group(5, 2000);
  ASSERT_EQ(placed.size(), 5u);
  for (int node : placed) EXPECT_EQ(node, placed[0]);
  EXPECT_DOUBLE_EQ(ClusterCapacity::mean_coresidency(placed), 5.0);
  EXPECT_EQ(cluster.used_mc(placed[0]), 10000);
}

TEST(Cluster, SpillsToSecondNodeAtCapacity) {
  ClusterCapacity cluster({4, 10000});
  const auto placed = cluster.place_group(7, 2000);
  // 5 pods fill a node, 2 spill: coresidency (5*5 + 2*2) / 7.
  EXPECT_NEAR(ClusterCapacity::mean_coresidency(placed), 29.0 / 7.0, 1e-12);
  EXPECT_EQ(cluster.overcommitted_pods(), 0);
}

TEST(Cluster, SeparateGroupsAvoidEachOther) {
  ClusterCapacity cluster({4, 10000});
  const auto a = cluster.place_group(2, 3000);
  const auto b = cluster.place_group(2, 3000);
  // Group b fits on an empty node, so it does not share with group a.
  EXPECT_NE(a[0], b[0]);
}

TEST(Cluster, OvercommitsLeastUsedNodeWhenSaturated) {
  ClusterCapacity cluster({2, 4000});
  cluster.place_group(2, 4000);  // both nodes full
  const auto placed = cluster.place_group(1, 4000);
  ASSERT_EQ(placed.size(), 1u);
  EXPECT_EQ(cluster.overcommitted_pods(), 1);
  EXPECT_GT(cluster.utilization(), 1.0);
}

TEST(Cluster, ValidationAndAccessors) {
  EXPECT_THROW(ClusterCapacity({0, 1000}), std::invalid_argument);
  EXPECT_THROW(ClusterCapacity({2, 0}), std::invalid_argument);
  ClusterCapacity cluster({2, 1000});
  EXPECT_THROW(cluster.place_group(1, 0), std::invalid_argument);
  EXPECT_THROW(cluster.used_mc(9), std::invalid_argument);
  EXPECT_DOUBLE_EQ(cluster.utilization(), 0.0);
}

TEST(Cluster, EmptyPlacementsAreWellDefined) {
  // Regression: an empty assignment has no co-resident pods (0, not the
  // old 1.0), and zero-pod placements are legal — callers no longer have
  // to special-case idle stages.
  EXPECT_DOUBLE_EQ(ClusterCapacity::mean_coresidency({}), 0.0);
  ClusterCapacity cluster({2, 1000});
  EXPECT_TRUE(cluster.place_group(0, 500).empty());
  // A zero-pod group does not even need a pod size.
  EXPECT_TRUE(cluster.place_group(0, 0).empty());
  EXPECT_DOUBLE_EQ(cluster.utilization(), 0.0);
  EXPECT_EQ(cluster.overcommitted_pods(), 0);
  // ...but growing a sizeless group later is an error, not a free lunch.
  const int group = cluster.add_group(0, 0);
  EXPECT_THROW(cluster.resize_group(group, 2), std::invalid_argument);
}

TEST(Cluster, FailNodeRepacksDisplacedPods) {
  ClusterCapacity cluster({3, 10000});
  const int a = cluster.add_group(5, 2000);  // fills node 0
  const int b = cluster.add_group(2, 3000);  // node 1
  const int victim = cluster.assignment(a)[0];
  const auto out = cluster.fail_node(victim);
  EXPECT_EQ(out.displaced, 5);
  EXPECT_EQ(out.stranded, 0);
  EXPECT_EQ(cluster.nodes(), 2);
  EXPECT_EQ(cluster.stranded_pods(), 0);
  // All five pods survived the failure; the surviving assignments were
  // renumbered, so every index is a valid node again.
  ASSERT_EQ(cluster.assignment(a).size(), 5u);
  for (int node : cluster.assignment(a)) {
    ASSERT_GE(node, 0);
    ASSERT_LT(node, 2);
  }
  ASSERT_EQ(cluster.assignment(b).size(), 2u);
  // Same call sequence, same outcome: determinism of the re-pack.
  ClusterCapacity replay({3, 10000});
  const int ra = replay.add_group(5, 2000);
  replay.add_group(2, 3000);
  replay.fail_node(victim);
  EXPECT_EQ(replay.assignment(ra), cluster.assignment(a));
}

TEST(Cluster, FailNodeWithOnlyZeroPodGroupsIsPlainRetirement) {
  ClusterCapacity cluster({2, 1000});
  cluster.add_group(0, 0);  // group exists, hosts nothing anywhere
  const auto out = cluster.fail_node(1);
  EXPECT_EQ(out.displaced, 0);
  EXPECT_EQ(out.stranded, 0);
  EXPECT_EQ(cluster.nodes(), 1);
  EXPECT_EQ(cluster.stranded_pods(), 0);
}

TEST(Cluster, FailLastNodeStrandsInsteadOfAsserting) {
  ClusterCapacity cluster({1, 10000});
  const int group = cluster.add_group(3, 2000);
  const auto out = cluster.fail_node(0);
  EXPECT_EQ(out.displaced, 0);  // nowhere to re-pack
  EXPECT_EQ(out.stranded, 3);
  EXPECT_EQ(cluster.nodes(), 0);
  EXPECT_EQ(cluster.stranded_pods(), 3);
  EXPECT_TRUE(cluster.assignment(group).empty());
  // Utilization of a nodeless cluster is defined (0), not a divide-by-zero.
  EXPECT_DOUBLE_EQ(cluster.utilization(), 0.0);
  // Growing a group with no nodes left strands the new pods too.
  cluster.resize_group(group, 2);
  EXPECT_TRUE(cluster.assignment(group).empty());
  EXPECT_EQ(cluster.stranded_pods(), 5);
  EXPECT_THROW(cluster.fail_node(0), std::invalid_argument);
}

TEST(Cluster, ResizeGroupGrowsAndShrinks) {
  ClusterCapacity cluster({4, 10000});
  const int group = cluster.add_group(5, 2000);  // exactly one full node
  EXPECT_DOUBLE_EQ(cluster.group_coresidency(group), 5.0);
  cluster.resize_group(group, 7);  // two pods spill to a second node
  EXPECT_NEAR(cluster.group_coresidency(group), 29.0 / 7.0, 1e-12);
  cluster.resize_group(group, 5);  // spills unwind before the packed core
  EXPECT_DOUBLE_EQ(cluster.group_coresidency(group), 5.0);
  EXPECT_EQ(cluster.used_mc(cluster.assignment(group)[0]), 10000);
  cluster.resize_group(group, 0);
  EXPECT_TRUE(cluster.assignment(group).empty());
  EXPECT_DOUBLE_EQ(cluster.utilization(), 0.0);
  cluster.resize_group(group, 3);  // regrow from empty
  EXPECT_DOUBLE_EQ(cluster.group_coresidency(group), 3.0);
}

TEST(Cluster, AutoscaleOrdersNodesWithLatency) {
  ClusterCapacity cluster({2, 10000});
  cluster.add_group(9, 2000);  // 18000 / 20000 = 90% allocated
  AutoscaleConfig cfg;
  cfg.enabled = true;
  cfg.scale_out_latency_epochs = 2;
  cfg.max_step_nodes = 8;
  // Step 1: over the band -> order the deficit (want ceil(18/7) = 3 nodes).
  ClusterCapacity::ScaleEvent ev = cluster.autoscale_step(cfg);
  EXPECT_EQ(ev.ordered, 1);
  EXPECT_EQ(ev.added, 0);
  EXPECT_EQ(cluster.nodes(), 2);
  EXPECT_EQ(cluster.pending_nodes(), 1);
  // Step 2: order still in flight; the pending node stops a double-buy.
  ev = cluster.autoscale_step(cfg);
  EXPECT_EQ(ev.ordered, 0);
  EXPECT_EQ(ev.added, 0);
  // Step 3: the order matures — scale-out latency paid in full.
  ev = cluster.autoscale_step(cfg);
  EXPECT_EQ(ev.added, 1);
  EXPECT_EQ(cluster.nodes(), 3);
  EXPECT_EQ(cluster.pending_nodes(), 0);
}

TEST(Cluster, AutoscaleZeroLatencyAddsImmediately) {
  ClusterCapacity cluster({1, 10000});
  cluster.add_group(4, 2000);  // 80%
  AutoscaleConfig cfg;
  cfg.enabled = true;
  cfg.scale_out_latency_epochs = 0;
  const auto ev = cluster.autoscale_step(cfg);
  EXPECT_EQ(ev.ordered, 0);
  EXPECT_EQ(ev.added, 1);
  EXPECT_EQ(cluster.nodes(), 2);
}

TEST(Cluster, ScaleInRepacksDisplacedGroupsDeterministically) {
  const auto run_once = [] {
    ClusterCapacity cluster({4, 10000});
    std::vector<int> groups;
    for (int g = 0; g < 4; ++g) groups.push_back(cluster.add_group(1, 1000));
    AutoscaleConfig cfg;
    cfg.enabled = true;  // 4000 / 40000 = 10% -> deep below the band
    const auto ev = cluster.autoscale_step(cfg);
    std::vector<std::vector<int>> assignments;
    for (int g : groups) assignments.push_back(cluster.assignment(g));
    return std::make_tuple(ev.removed, ev.displaced_pods, cluster.nodes(),
                           assignments);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);  // deterministic: same victims, same repacking
  EXPECT_GT(std::get<0>(a), 0);
  EXPECT_GT(std::get<1>(a), 0);  // occupied nodes went away -> pods moved
  // Every group still has its pod, on a surviving node.
  for (const auto& assignment : std::get<3>(a)) {
    ASSERT_EQ(assignment.size(), 1u);
    EXPECT_LT(assignment[0], std::get<2>(a));
    EXPECT_GE(assignment[0], 0);
  }
  // Scale-in respects the floor and the utilization band.
  EXPECT_GE(std::get<2>(a), 1);
}

// Reference packing for the differential test below: the pool as it was
// before the least-used index, scanning every node for every pod, with a
// per-node count table filled from scratch on every call.  It is kept
// here, unoptimized, as the specification of every tie-break the indexed
// ClusterCapacity must reproduce.
class ReferenceCluster {
 public:
  ReferenceCluster(int nodes, Millicores capacity)
      : capacity_(capacity), used_(static_cast<std::size_t>(nodes), 0) {}

  int nodes() const { return static_cast<int>(used_.size()); }
  Millicores used_mc(int node) const {
    return used_[static_cast<std::size_t>(node)];
  }
  int overcommitted_pods() const { return overcommitted_; }
  int stranded_pods() const { return stranded_; }
  const std::vector<int>& assignment(int group) const {
    return groups_[static_cast<std::size_t>(group)].nodes;
  }

  int add_group(int count, Millicores pod_mc) {
    groups_.push_back({pod_mc, {}});
    pack_pods(groups_.back(), count);
    return static_cast<int>(groups_.size()) - 1;
  }

  void resize_group(int group, int count) {
    Group& g = groups_[static_cast<std::size_t>(group)];
    const int current = static_cast<int>(g.nodes.size());
    if (count > current) pack_pods(g, count - current);
    if (count < current) release_pods(g, current - count);
  }

  ClusterCapacity::RemoveOutcome fail_node(int victim) {
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
    }
    used_.erase(used_.begin() + victim);
    for (Group& group : groups_) {
      for (int& n : group.nodes) {
        if (n > victim) --n;
      }
    }
    ClusterCapacity::RemoveOutcome out;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (displaced[g] == 0) continue;
      const int placed = pack_pods(groups_[g], displaced[g]);
      out.displaced += placed;
      out.stranded += displaced[g] - placed;
    }
    return out;
  }

  ClusterCapacity::ScaleEvent autoscale_step(const AutoscaleConfig& cfg) {
    ClusterCapacity::ScaleEvent event;
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
    if (!cfg.enabled) return event;
    const double u = utilization();
    int pending = 0;
    for (const auto& order : orders_) pending += order.second;
    const int total = nodes() + pending;
    if (u > cfg.scale_out_utilization && total < cfg.max_nodes) {
      double used_total = 0.0;
      for (Millicores m : used_) used_total += static_cast<double>(m);
      const int want = static_cast<int>(std::ceil(
          used_total /
          (cfg.scale_out_utilization * static_cast<double>(capacity_))));
      const int deficit =
          std::min({want - total, cfg.max_step_nodes, cfg.max_nodes - total});
      if (deficit > 0) {
        if (cfg.scale_out_latency_epochs <= 0) {
          used_.insert(used_.end(), static_cast<std::size_t>(deficit), 0);
          event.added += deficit;
        } else {
          orders_.emplace_back(cfg.scale_out_latency_epochs, deficit);
          event.ordered = deficit;
        }
      }
    } else if (u < cfg.scale_in_utilization) {
      while (event.removed < cfg.max_step_nodes && nodes() > cfg.min_nodes &&
             utilization() < cfg.scale_in_utilization) {
        int victim = 0;
        for (std::size_t n = 1; n < used_.size(); ++n) {
          if (used_[n] <= used_[static_cast<std::size_t>(victim)]) {
            victim = static_cast<int>(n);
          }
        }
        const ClusterCapacity::RemoveOutcome out = fail_node(victim);
        event.displaced_pods += out.displaced + out.stranded;
        ++event.removed;
      }
    }
    return event;
  }

 private:
  struct Group {
    Millicores pod_mc = 0;
    std::vector<int> nodes;
  };

  double utilization() const {
    if (used_.empty()) return 0.0;
    double total = 0.0;
    for (Millicores u : used_) total += static_cast<double>(u);
    return total / (static_cast<double>(capacity_) *
                    static_cast<double>(used_.size()));
  }

  int pack_pods(Group& group, int count) {
    if (count > 0 && used_.empty()) {
      stranded_ += count;
      return 0;
    }
    std::vector<int> per_node(used_.size(), 0);
    for (int n : group.nodes) ++per_node[static_cast<std::size_t>(n)];
    for (int p = 0; p < count; ++p) {
      int best = -1;
      for (std::size_t n = 0; n < used_.size(); ++n) {
        if (used_[n] + group.pod_mc > capacity_) continue;
        if (best < 0 ||
            per_node[n] > per_node[static_cast<std::size_t>(best)] ||
            (per_node[n] == per_node[static_cast<std::size_t>(best)] &&
             used_[n] < used_[static_cast<std::size_t>(best)])) {
          best = static_cast<int>(n);
        }
      }
      if (best < 0) {
        best = 0;
        for (std::size_t n = 1; n < used_.size(); ++n) {
          if (used_[n] < used_[static_cast<std::size_t>(best)]) {
            best = static_cast<int>(n);
          }
        }
        ++overcommitted_;
      }
      used_[static_cast<std::size_t>(best)] += group.pod_mc;
      ++per_node[static_cast<std::size_t>(best)];
      group.nodes.push_back(best);
    }
    return count;
  }

  void release_pods(Group& group, int count) {
    std::vector<int> per_node(used_.size(), 0);
    for (int n : group.nodes) ++per_node[static_cast<std::size_t>(n)];
    for (int p = 0; p < count; ++p) {
      int victim = -1;
      for (std::size_t n = 0; n < used_.size(); ++n) {
        if (per_node[n] == 0) continue;
        if (victim < 0 ||
            per_node[n] <= per_node[static_cast<std::size_t>(victim)]) {
          victim = static_cast<int>(n);
        }
      }
      used_[static_cast<std::size_t>(victim)] -= group.pod_mc;
      --per_node[static_cast<std::size_t>(victim)];
      for (std::size_t i = group.nodes.size(); i > 0; --i) {
        if (group.nodes[i - 1] == victim) {
          group.nodes.erase(group.nodes.begin() +
                            static_cast<std::ptrdiff_t>(i - 1));
          break;
        }
      }
    }
  }

  Millicores capacity_;
  std::vector<Millicores> used_;
  std::vector<Group> groups_;
  std::vector<std::pair<int, int>> orders_;
  int overcommitted_ = 0;
  int stranded_ = 0;
};

/// Holds logging at Error while in scope: each stranding logs a warning.
struct QuietLog {
  LogLevel saved = log_level();
  QuietLog() { set_log_level(LogLevel::Error); }
  ~QuietLog() { set_log_level(saved); }
};

/// One pool shape for the differential test.
struct PoolCase {
  int nodes = 0;
  Millicores capacity = 0;
  std::vector<Millicores> pod_sizes;  // drawn per group
  int max_pods = 0;                   // per group, per resize
};

/// What one differential sequence exercised.
struct PackingCoverage {
  int ordered = 0;  // scale-out with latency
  int added = 0;    // nodes that became usable (instant or matured)
  int removed = 0;  // scale-in
  int displaced = 0;
  int overcommitted = 0;
};

/// Drives ClusterCapacity and ReferenceCluster through one seeded random
/// sequence of add_group, resize_group, fail_node and autoscale_step
/// (scale-out with and without latency, scale-in), then fails every node
/// down to none, and expects identical state after every operation.
void expect_packing_matches_reference(const PoolCase& pool, std::uint64_t seed,
                                      PackingCoverage& seen) {
  ClusterCapacity fast({pool.nodes, pool.capacity});
  ReferenceCluster ref(pool.nodes, pool.capacity);
  Rng rng(seed);
  int groups = 0;
  const auto expect_same = [&](int step) {
    ASSERT_EQ(fast.nodes(), ref.nodes()) << "step " << step;
    for (int n = 0; n < ref.nodes(); ++n) {
      ASSERT_EQ(fast.used_mc(n), ref.used_mc(n))
          << "step " << step << " node " << n;
    }
    for (int g = 0; g < groups; ++g) {
      ASSERT_EQ(fast.assignment(g), ref.assignment(g))
          << "step " << step << " group " << g;
      ASSERT_EQ(fast.group_coresidency(g),
                ClusterCapacity::mean_coresidency(ref.assignment(g)))
          << "step " << step << " group " << g;
    }
    ASSERT_EQ(fast.overcommitted_pods(), ref.overcommitted_pods())
        << "step " << step;
    ASSERT_EQ(fast.stranded_pods(), ref.stranded_pods()) << "step " << step;
  };
  const auto draw = [&rng](int lo, int hi) {
    return static_cast<int>(rng.uniform_int(lo, hi));
  };
  for (int step = 0; step < 300; ++step) {
    const int op = groups == 0 ? 0 : draw(0, 9);
    if (op <= 1) {
      const int count = draw(0, pool.max_pods);
      const Millicores mc = pool.pod_sizes[static_cast<std::size_t>(
          draw(0, static_cast<int>(pool.pod_sizes.size()) - 1))];
      ASSERT_EQ(fast.add_group(count, mc), ref.add_group(count, mc));
      ++groups;
    } else if (op <= 6) {
      const int group = draw(0, groups - 1);
      const int count = draw(0, pool.max_pods);
      fast.resize_group(group, count);
      ref.resize_group(group, count);
    } else if (op == 7 && fast.nodes() > 1) {
      const int victim = draw(0, fast.nodes() - 1);
      const auto a = fast.fail_node(victim);
      const auto b = ref.fail_node(victim);
      ASSERT_EQ(a.displaced, b.displaced) << "step " << step;
      ASSERT_EQ(a.stranded, b.stranded) << "step " << step;
      seen.displaced += a.displaced;
    } else {
      AutoscaleConfig cfg;
      cfg.enabled = draw(0, 4) != 0;
      cfg.scale_out_latency_epochs = draw(0, 2);
      cfg.max_step_nodes = draw(1, 4);
      cfg.max_nodes = 3 * pool.nodes;
      const auto a = fast.autoscale_step(cfg);
      const auto b = ref.autoscale_step(cfg);
      ASSERT_EQ(a.ordered, b.ordered) << "step " << step;
      ASSERT_EQ(a.added, b.added) << "step " << step;
      ASSERT_EQ(a.removed, b.removed) << "step " << step;
      ASSERT_EQ(a.displaced_pods, b.displaced_pods) << "step " << step;
      seen.ordered += a.ordered;
      seen.added += a.added;
      seen.removed += a.removed;
      seen.displaced += a.displaced_pods;
    }
    expect_same(step);
  }
  // Fail every node, the last one included: its pods strand, and so do
  // the pods of any later growth.
  const QuietLog quiet;
  for (int step = 300; fast.nodes() > 0; ++step) {
    const int victim = draw(0, fast.nodes() - 1);
    const auto a = fast.fail_node(victim);
    const auto b = ref.fail_node(victim);
    ASSERT_EQ(a.displaced, b.displaced) << "step " << step;
    ASSERT_EQ(a.stranded, b.stranded) << "step " << step;
    expect_same(step);
  }
  fast.resize_group(0, pool.max_pods);
  ref.resize_group(0, pool.max_pods);
  expect_same(-1);
  seen.overcommitted += fast.overcommitted_pods();
}

TEST(Cluster, PackingMatchesReferenceOnSaturatedPools) {
  // Few small nodes, big pods: most placements overcommit, so the pod goes
  // to the least-used node of the whole pool, and the pool scales out.
  PackingCoverage seen;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    expect_packing_matches_reference({4, 10000, {2000, 3000, 4000}, 12}, seed,
                                     seen);
  }
  EXPECT_GT(seen.overcommitted, 0);
  EXPECT_GT(seen.ordered, 0);
  EXPECT_GT(seen.added, 0);
}

TEST(Cluster, PackingMatchesReferenceOnPartlyFreePools) {
  // Room on most nodes: pods follow their group's own nodes, spill to the
  // emptiest node, and scale-in repacks displaced groups.
  PackingCoverage seen;
  for (std::uint64_t seed : {4u, 5u, 6u}) {
    expect_packing_matches_reference({12, 52000, {500, 1500, 4000}, 10}, seed,
                                     seen);
  }
  EXPECT_GT(seen.removed, 0);
  EXPECT_GT(seen.displaced, 0);
}

TEST(Cluster, PackingMatchesReferenceOnEqualUsageTies) {
  // One pod size that divides the capacity: nodes keep landing on equal
  // used_ and groups on equal per-node counts, so every tie-break (lowest
  // index to pack, highest index to release) decides placements.
  PackingCoverage seen;
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    expect_packing_matches_reference({6, 4000, {1000}, 8}, seed, seen);
  }
  EXPECT_GT(seen.displaced, 0);
}

TEST(Control, DirtyBroadcastReachesEveryChangedGroup) {
  // reconcile and inject_node_failure only rebroadcast the groups a
  // resize, eviction or repack touched.  After each of them, every stage
  // of every feed must still read the concentrated co-residency of its
  // group's current placement — none may be missed.
  ControlConfig config;
  config.epoch_s = 1.0;
  config.autoscale.enabled = true;
  config.autoscale.scale_out_latency_epochs = 0;
  config.autoscale.max_nodes = 16;
  ControlPlane control(ClusterConfig{6, 10000}, config);
  Rng rng(11);
  std::vector<EpochFeed*> feeds;
  for (int t = 0; t < 12; ++t) {
    const auto stages = static_cast<std::size_t>(rng.uniform_int(1, 3));
    std::vector<int> pods;
    std::vector<Millicores> mc;
    for (std::size_t s = 0; s < stages; ++s) {
      pods.push_back(static_cast<int>(rng.uniform_int(0, 6)));  // 0: idle
      mc.push_back(static_cast<Millicores>(1000 * rng.uniform_int(1, 3)));
    }
    feeds.push_back(&control.plan_tenant(pods, mc));
  }
  const auto expect_feeds = [&](const char* when) {
    for (std::size_t t = 0; t < feeds.size(); ++t) {
      for (std::size_t s = 0; s < feeds[t]->stages(); ++s) {
        const double co =
            control.cluster().group_coresidency(control.tenant_group(t, s));
        EXPECT_EQ(feeds[t]->stage_distribution(s).weights,
                  CoLocationDistribution::concentrated(co).weights)
            << when << ": tenant " << t << " stage " << s;
      }
    }
  };
  expect_feeds("plan");
  control.inject_node_failure(2);
  expect_feeds("node failure");
  // Busy epochs grow the groups and scale the pool out; idle ones shrink
  // every group to one pod and scale in, displacing pods.
  int displaced = 0;
  int resized = 0;
  for (int epoch = 0; epoch < 12; ++epoch) {
    std::vector<std::vector<int>> observed;
    for (const EpochFeed* feed : feeds) {
      std::vector<int> row;
      for (std::size_t s = 0; s < feed->stages(); ++s) {
        row.push_back(epoch < 4 ? static_cast<int>(rng.uniform_int(0, 9))
                                : static_cast<int>(rng.uniform_int(0, 1)));
      }
      observed.push_back(row);
    }
    control.reconcile(static_cast<double>(epoch + 1), observed);
    displaced += control.history().back().displaced_pods;
    resized += control.history().back().groups_resized;
    expect_feeds("reconcile");
  }
  EXPECT_GT(resized, 0);
  EXPECT_GT(displaced, 0);  // scale-in really moved pods
  // Failing the last node strands every pod: the evicted groups change
  // without any repack, and their feeds must still follow (from three
  // co-resident pods to none).
  std::vector<std::vector<int>> busy;
  for (const EpochFeed* feed : feeds) busy.emplace_back(feed->stages(), 3);
  control.reconcile(13.0, busy);
  expect_feeds("reconcile");
  const QuietLog quiet;
  while (control.cluster().nodes() > 0) {
    control.inject_node_failure(control.cluster().nodes() - 1);
    expect_feeds("node failure");
  }
  EXPECT_GT(control.cluster().stranded_pods(), 0);
}

TEST(Control, EpochFeedStageMeanMatchesConcentrated) {
  // set_stage_mean rewrites the weights in place and skips a repeated
  // mean; whatever the sequence, the stage must read exactly
  // concentrated(last mean) — and an outright set_stage in between must
  // not leave a stale mean that suppresses the next rewrite.
  EpochFeed feed(2, /*live=*/true);
  const auto expect_stage = [&feed](std::size_t stage, double mean) {
    EXPECT_EQ(feed.stage_distribution(stage).weights,
              CoLocationDistribution::concentrated(mean).weights)
        << "stage " << stage << " mean " << mean;
  };
  for (double mean : {0.4, 1.0, 3.0, 3.4, 3.4, 1.0, 3.0}) {
    feed.set_stage_mean(0, mean);
    expect_stage(0, mean);
  }
  feed.set_stage_mean(1, 3.4);
  expect_stage(1, 3.4);
  feed.set_stage(1, CoLocationDistribution::concentrated(6.0));
  expect_stage(1, 6.0);
  feed.set_stage_mean(1, 3.4);  // same mean as before the override
  expect_stage(1, 3.4);
  expect_stage(0, 3.0);  // stages are independent
  EXPECT_THROW(feed.set_stage_mean(2, 1.0), std::invalid_argument);
}

// ---------------------------------------------------------------- fleet --
FleetConfig small_fleet(int shards) {
  FleetConfig config;
  config.tenants = make_tenant_mix(5, 150, 8.0, ArrivalKind::Poisson,
                                   /*mixed_kinds=*/true);
  config.shards = shards;
  config.seed = 99;
  return config;
}

TEST(Fleet, BitIdenticalAcrossShardCounts) {
  const FleetResult one = run_fleet(small_fleet(1));
  for (int shards : {2, 3, 8}) {
    const FleetResult many = run_fleet(small_fleet(shards));
    ASSERT_EQ(many.tenants.size(), one.tenants.size());
    for (std::size_t t = 0; t < one.tenants.size(); ++t) {
      EXPECT_EQ(one.tenants[t].e2e.sorted_samples(),
                many.tenants[t].e2e.sorted_samples())
          << "tenant " << t << " at " << shards << " shards";
      EXPECT_DOUBLE_EQ(one.tenants[t].violation_rate,
                       many.tenants[t].violation_rate);
      EXPECT_DOUBLE_EQ(one.tenants[t].mean_cpu_mc,
                       many.tenants[t].mean_cpu_mc);
    }
    EXPECT_EQ(one.fleet_e2e.sorted_samples(), many.fleet_e2e.sorted_samples());
    EXPECT_DOUBLE_EQ(one.fleet_p99, many.fleet_p99);
    EXPECT_DOUBLE_EQ(one.fleet_violation_rate, many.fleet_violation_rate);
    EXPECT_DOUBLE_EQ(one.fleet_mean_cpu_mc, many.fleet_mean_cpu_mc);
    for (std::size_t i = 0; i < one.fleet_hist.bins(); ++i) {
      EXPECT_EQ(one.fleet_hist.bin_count(i), many.fleet_hist.bin_count(i));
    }
  }
}

TEST(Fleet, AggregatesAcrossTenants) {
  const FleetResult result = run_fleet(small_fleet(2));
  ASSERT_EQ(result.tenants.size(), 5u);
  EXPECT_EQ(result.total_requests, 5u * 150u);
  EXPECT_EQ(result.fleet_e2e.size(), result.total_requests);
  EXPECT_EQ(result.fleet_hist.total(), result.total_requests);
  std::size_t expected_violations = 0;
  for (const auto& tr : result.tenants) {
    EXPECT_EQ(tr.requests, 150);
    EXPECT_GE(tr.coresidency, 1.0);
    expected_violations += static_cast<std::size_t>(
        std::lround(tr.violation_rate * tr.requests));
  }
  EXPECT_NEAR(result.fleet_violation_rate,
              static_cast<double>(expected_violations) /
                  static_cast<double>(result.total_requests),
              1e-9);
  // The merged distribution brackets every tenant's percentiles.
  for (const auto& tr : result.tenants) {
    EXPECT_GE(result.fleet_e2e.max(), tr.e2e.max());
    EXPECT_LE(result.fleet_e2e.min(), tr.e2e.min());
  }
}

TEST(Fleet, ContentionRaisesLatencyForHeavyTenants) {
  // Same workload at 10x the arrival rate packs ~10x the pods, so the
  // cluster feedback must slow the heavy tenant down.
  FleetConfig config;
  TenantSpec light;
  light.workload = "ia";
  light.requests = 150;
  light.arrivals.rate = 1.0;
  TenantSpec heavy = light;
  heavy.arrivals.rate = 40.0;
  config.tenants = {light, heavy};
  config.seed = 7;
  const FleetResult result = run_fleet(config);
  EXPECT_GT(result.tenants[1].coresidency, result.tenants[0].coresidency);
  EXPECT_GT(result.tenants[1].e2e_p50, result.tenants[0].e2e_p50);
}

TEST(Fleet, JsonContainsFleetAndTenantRows) {
  FleetConfig config = small_fleet(2);
  config.tenants[1].name = "tenant \"b\"";  // names are free-form: escape
  const FleetResult result = run_fleet(config);
  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"fleet\""), std::string::npos);
  EXPECT_NE(json.find("\"ia-0\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant \\\"b\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"violation_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"shards\": 2"), std::string::npos);
}

TEST(Fleet, RejectsBadConfig) {
  FleetConfig empty;
  EXPECT_THROW(run_fleet(empty), std::invalid_argument);
  FleetConfig bad = small_fleet(0);
  EXPECT_THROW(run_fleet(bad), std::invalid_argument);
  FleetConfig unknown = small_fleet(1);
  unknown.tenants[0].workload = "nope";
  EXPECT_THROW(run_fleet(unknown), std::invalid_argument);
  // The fleet is open-loop only: a zero-rate (or otherwise invalid)
  // arrival spec must fail up front, not degrade to a closed loop.
  FleetConfig stalled = small_fleet(1);
  stalled.tenants[0].arrivals.rate = 0.0;
  EXPECT_THROW(run_fleet(stalled), std::invalid_argument);
  FleetConfig dwell = small_fleet(1);
  dwell.tenants[0].arrivals.kind = ArrivalKind::Mmpp;
  dwell.tenants[0].arrivals.base_dwell_s = 0.0;
  dwell.tenants[0].arrivals.burst_dwell_s = 0.0;
  dwell.tenants[0].arrivals.burst_rate = 1e9;  // keep burst >= base valid
  EXPECT_THROW(run_fleet(dwell), std::invalid_argument);
}

// ------------------------------------------------------- control plane --
FleetConfig epoch_fleet(int shards) {
  FleetConfig config = small_fleet(shards);
  config.epoch_s = 5.0;  // ~150 reqs at ~8/s => several barriers per run
  config.cluster.nodes = 6;
  config.autoscale.enabled = true;
  config.autoscale.scale_out_latency_epochs = 1;
  return config;
}

TEST(Fleet, EpochFeedbackBitIdenticalAcrossShards) {
  const FleetResult one = run_fleet(epoch_fleet(1));
  ASSERT_GT(one.epochs, 1);  // the control loop actually ran
  for (int shards : {2, 4, 8}) {
    const FleetResult many = run_fleet(epoch_fleet(shards));
    for (std::size_t t = 0; t < one.tenants.size(); ++t) {
      EXPECT_EQ(one.tenants[t].e2e.sorted_samples(),
                many.tenants[t].e2e.sorted_samples())
          << "tenant " << t << " at " << shards << " shards";
      EXPECT_DOUBLE_EQ(one.tenants[t].coresidency,
                       many.tenants[t].coresidency);
    }
    EXPECT_EQ(one.fleet_e2e.sorted_samples(), many.fleet_e2e.sorted_samples());
    EXPECT_DOUBLE_EQ(one.fleet_p99, many.fleet_p99);
    EXPECT_DOUBLE_EQ(one.fleet_violation_rate, many.fleet_violation_rate);
    // The merged epoch state is a pure function of (epoch, seed, tenants):
    // the whole audit trail must match bit-for-bit, not just the metrics.
    ASSERT_EQ(one.epoch_log.size(), many.epoch_log.size());
    for (std::size_t e = 0; e < one.epoch_log.size(); ++e) {
      const EpochSnapshot& x = one.epoch_log[e];
      const EpochSnapshot& y = many.epoch_log[e];
      EXPECT_DOUBLE_EQ(x.sim_time, y.sim_time);
      EXPECT_EQ(x.nodes, y.nodes);
      EXPECT_EQ(x.pending_nodes, y.pending_nodes);
      EXPECT_DOUBLE_EQ(x.utilization, y.utilization);
      EXPECT_EQ(x.nodes_ordered, y.nodes_ordered);
      EXPECT_EQ(x.nodes_added, y.nodes_added);
      EXPECT_EQ(x.nodes_removed, y.nodes_removed);
      EXPECT_EQ(x.groups_resized, y.groups_resized);
      EXPECT_EQ(x.displaced_pods, y.displaced_pods);
    }
    EXPECT_EQ(one.final_nodes, many.final_nodes);
    EXPECT_EQ(one.nodes_added, many.nodes_added);
    EXPECT_EQ(one.nodes_removed, many.nodes_removed);
  }
}

TEST(Fleet, EpochInfinityMatchesStaticPlanPipeline) {
  // Differential check of the refactor: with epoch_s = kNoEpochs (the
  // default), run_fleet must reproduce the pre-control-plane plan-once
  // pipeline bit-for-bit.  Replicate that pipeline by hand — Little's-law
  // pods, one-shot bin-packing, frozen StaticCoLocation — and compare
  // every request sample.
  const FleetConfig config = small_fleet(1);
  const FleetResult fleet = run_fleet(config);
  EXPECT_EQ(fleet.epochs, 0);
  EXPECT_TRUE(fleet.epoch_log.empty());

  ClusterCapacity cluster(config.cluster);
  for (std::size_t t = 0; t < config.tenants.size(); ++t) {
    const TenantSpec& spec = config.tenants[t];
    const WorkloadSpec workload = workload_by_name(spec.workload);
    const auto models = workload.chain_models();

    RunConfig rc;
    rc.slo = spec.slo > 0.0 ? spec.slo : workload.slo(spec.concurrency);
    rc.concurrency = spec.concurrency;
    rc.requests = spec.requests;
    // The per-tenant seed derivation run_fleet documents: fleet seed and
    // tenant index only.
    rc.seed = SplitMix64(config.seed ^
                         (0x9e3779b97f4a7c15ULL * (t + 1)))
                  .next();
    rc.open_loop_rate = spec.arrivals.rate;
    rc.arrivals = spec.arrivals;
    rc.platform = config.platform;
    rc.colocation_is_default = false;

    const double rate = spec.arrivals.mean_rate();
    std::vector<CoLocationDistribution> per_stage;
    double coresidency_sum = 0.0;
    for (const auto& model : models) {
      const Seconds stage_s =
          model.exec_time(spec.size_mc, spec.concurrency, 1.0, 1.0);
      const int pods =
          std::max(1, static_cast<int>(std::ceil(rate * stage_s)));
      const auto placed = cluster.place_group(pods, spec.size_mc);
      const double co = ClusterCapacity::mean_coresidency(placed);
      coresidency_sum += co;
      per_stage.push_back(CoLocationDistribution::concentrated(co));
    }
    const StaticCoLocation provider(per_stage);
    rc.colocation_provider = &provider;

    RequestPool pool;
    SimEngine engine;
    PlatformConfig pc = rc.platform;
    pc.seed = rc.seed ^ 0x9e3779b97f4a7c15ULL;
    Platform platform(engine, pc, models, rc.interference);
    FixedSizingPolicy policy(
        "fixed", std::vector<Millicores>(models.size(), spec.size_mc));
    RunResult out;
    serve_workload(engine, pool, platform, workload, policy, rc, out);
    engine.run();

    EXPECT_EQ(fleet.tenants[t].e2e.sorted_samples(),
              out.e2e_distribution().sorted_samples())
        << "tenant " << t;
    EXPECT_DOUBLE_EQ(fleet.tenants[t].violation_rate, out.violation_rate());
    EXPECT_DOUBLE_EQ(fleet.tenants[t].mean_cpu_mc, out.mean_cpu());
    EXPECT_DOUBLE_EQ(
        fleet.tenants[t].coresidency,
        coresidency_sum / static_cast<double>(models.size()));
  }
}

TEST(Fleet, EpochFeedbackShiftsInterferenceDraws) {
  // A finite epoch closes the loop: observed pod counts replace the plan
  // estimates, so the draws — and the metrics — must actually move.
  const FleetResult frozen = run_fleet(small_fleet(2));
  FleetConfig live = small_fleet(2);
  live.epoch_s = 5.0;
  const FleetResult fed = run_fleet(live);
  ASSERT_GT(fed.epochs, 0);
  EXPECT_NE(frozen.fleet_e2e.sorted_samples(), fed.fleet_e2e.sorted_samples());
  // Same request count either way: the control plane reshapes latency,
  // never loses traffic.
  EXPECT_EQ(frozen.total_requests, fed.total_requests);
}

TEST(Fleet, AutoscaleGrowsUnderLoadAndAccountsNodes) {
  FleetConfig config;
  config.tenants = make_tenant_mix(4, 400, 30.0, ArrivalKind::Poisson,
                                   /*mixed_kinds=*/false);
  config.seed = 11;
  config.shards = 2;
  config.cluster.nodes = 2;  // deliberately undersized
  config.epoch_s = 3.0;
  config.autoscale.enabled = true;
  config.autoscale.scale_out_latency_epochs = 1;
  const FleetResult result = run_fleet(config);
  ASSERT_GT(result.epochs, 0);
  EXPECT_GT(result.nodes_added, 0);
  EXPECT_EQ(result.final_nodes,
            2 + result.nodes_added - result.nodes_removed);
  // The audit trail carries the scale-out: some epoch ordered nodes.
  bool ordered = false;
  for (const auto& snap : result.epoch_log) {
    ordered = ordered || snap.nodes_ordered > 0 || snap.nodes_added > 0;
  }
  EXPECT_TRUE(ordered);
}

TEST(Fleet, TraceTenantsReplayThroughTheFleet) {
  FleetConfig config = small_fleet(2);
  for (auto& tenant : config.tenants) {
    tenant.arrivals.kind = ArrivalKind::Trace;
    tenant.arrivals.trace_gaps = synthesize_interarrivals(
        256, tenant.arrivals.rate, config.seed);
  }
  const FleetResult a = run_fleet(config);
  EXPECT_EQ(a.total_requests, 5u * 150u);
  for (const auto& tenant : a.tenants) {
    EXPECT_EQ(tenant.arrivals, ArrivalKind::Trace);
  }
  // Shard-count invariance holds for replayed traces too.
  config.shards = 3;
  const FleetResult b = run_fleet(config);
  EXPECT_EQ(a.fleet_e2e.sorted_samples(), b.fleet_e2e.sorted_samples());
}

TEST(Fleet, TenantMixIsHeterogeneous) {
  const auto mix =
      make_tenant_mix(8, 100, 10.0, ArrivalKind::Poisson, /*mixed=*/true);
  ASSERT_EQ(mix.size(), 8u);
  bool saw_va = false, saw_mmpp = false, saw_diurnal = false;
  for (const auto& t : mix) {
    saw_va = saw_va || t.workload == "va";
    saw_mmpp = saw_mmpp || t.arrivals.kind == ArrivalKind::Mmpp;
    saw_diurnal = saw_diurnal || t.arrivals.kind == ArrivalKind::Diurnal;
  }
  EXPECT_TRUE(saw_va);
  EXPECT_TRUE(saw_mmpp);
  EXPECT_TRUE(saw_diurnal);
  EXPECT_NE(mix[0].arrivals.rate, mix[1].arrivals.rate);
}

// ------------------------------------------------------ sizing policies --

/// Fleet-test-grade synthesis: small enough that every policy-mix test
/// stays in the tens of milliseconds, deterministic like any other config.
PolicyCatalogConfig tiny_catalog_config() {
  PolicyCatalogConfig cfg;
  cfg.profile_samples = 300;
  cfg.budget_step = 10;
  return cfg;
}

/// Adversarial mixed-policy fleet under the live control plane: every
/// policy family present, two tenants additionally reacting to the epoch
/// feed through the contention decorator.
FleetConfig policy_mix_fleet(int shards) {
  FleetConfig config;
  config.tenants = make_tenant_mix(
      6, 120, 8.0, ArrivalKind::Poisson, /*mixed_kinds=*/true,
      {"janus", "orion", "mean_based", "fixed", "optimal", "grandslam+"});
  config.tenants[0].contention_alpha = 0.3;
  config.tenants[3].contention_alpha = 0.3;
  config.shards = shards;
  config.seed = 77;
  config.epoch_s = 5.0;
  config.cluster.nodes = 6;
  config.autoscale.enabled = true;
  config.policy_catalog = tiny_catalog_config();
  return config;
}

TEST(FleetPolicies, NameRegistryIsClosed) {
  for (const auto& name : fleet_policy_names()) {
    EXPECT_TRUE(is_fleet_policy(name)) << name;
  }
  EXPECT_FALSE(is_fleet_policy("Janus"));  // names are exact, no fuzz
  EXPECT_FALSE(is_fleet_policy(""));
  EXPECT_FALSE(is_fleet_policy("grandslam++"));
  // The error-message list names every policy exactly once.
  const std::string list = fleet_policy_list();
  for (const auto& name : fleet_policy_names()) {
    EXPECT_NE(list.find(name), std::string::npos) << name;
  }
}

TEST(FleetPolicies, UnknownPolicyRejectedUpFront) {
  FleetConfig config = small_fleet(1);
  config.tenants[0].policy = "nope";
  try {
    run_fleet(config);
    FAIL() << "unknown policy must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nope"), std::string::npos);
    EXPECT_NE(what.find("valid:"), std::string::npos);
    EXPECT_NE(what.find("janus"), std::string::npos);
  }
  // make_tenant_mix validates the round-robin list the same way.
  EXPECT_THROW(make_tenant_mix(2, 10, 1.0, ArrivalKind::Poisson, false,
                               {"janus", "bogus"}),
               std::invalid_argument);
}

TEST(FleetPolicies, MixBitIdenticalAcrossShardCountsAndReruns) {
  const FleetResult one = run_fleet(policy_mix_fleet(1));
  ASSERT_GT(one.epochs, 1);  // the live control plane actually ran
  const FleetResult again = run_fleet(policy_mix_fleet(1));
  EXPECT_EQ(one.fleet_e2e.sorted_samples(), again.fleet_e2e.sorted_samples());
  for (int shards : {2, 4, 8}) {
    const FleetResult many = run_fleet(policy_mix_fleet(shards));
    ASSERT_EQ(many.tenants.size(), one.tenants.size());
    for (std::size_t t = 0; t < one.tenants.size(); ++t) {
      EXPECT_EQ(one.tenants[t].e2e.sorted_samples(),
                many.tenants[t].e2e.sorted_samples())
          << one.tenants[t].policy << " tenant " << t << " at " << shards
          << " shards";
      EXPECT_DOUBLE_EQ(one.tenants[t].mean_cpu_mc, many.tenants[t].mean_cpu_mc);
      EXPECT_DOUBLE_EQ(one.tenants[t].violation_rate,
                       many.tenants[t].violation_rate);
    }
    EXPECT_EQ(one.fleet_e2e.sorted_samples(), many.fleet_e2e.sorted_samples());
    EXPECT_DOUBLE_EQ(one.fleet_p99, many.fleet_p99);
    // The epoch audit trail is part of the bit-identical set.
    ASSERT_EQ(one.epoch_log.size(), many.epoch_log.size());
    for (std::size_t e = 0; e < one.epoch_log.size(); ++e) {
      EXPECT_EQ(one.epoch_log[e].nodes, many.epoch_log[e].nodes);
      EXPECT_EQ(one.epoch_log[e].groups_resized,
                many.epoch_log[e].groups_resized);
      EXPECT_EQ(one.epoch_log[e].displaced_pods,
                many.epoch_log[e].displaced_pods);
      EXPECT_DOUBLE_EQ(one.epoch_log[e].utilization,
                       many.epoch_log[e].utilization);
    }
  }
}

TEST(FleetPolicies, CatalogSynthesizesOncePerWorkloadPolicy) {
  // Coarse grids: the warm-vs-fresh check below synthesizes Janus+ too.
  PolicyCatalogConfig coarse = tiny_catalog_config();
  coarse.budget_step = 50;
  coarse.kstep = 250;
  PolicyCatalog catalog(coarse);
  FleetConfig config = policy_mix_fleet(2);
  // Every catalog family, twice over, so each (family, workload) class
  // has several tenants sharing one memo entry.
  config.tenants = make_tenant_mix(
      18, 40, 8.0, ArrivalKind::Poisson, /*mixed_kinds=*/true,
      {"janus", "orion", "mean_based", "fixed", "optimal", "grandslam+",
       "grandslam", "janus-", "mean_based"});
  config.catalog = &catalog;
  (void)run_fleet(config);
  const PolicyCatalogStats after_first = catalog.stats();
  // Two workloads in the mix, each profiled exactly once.
  EXPECT_EQ(after_first.profiles_built, 2);
  EXPECT_GE(after_first.bundles_built, 1);
  // One early-binding solve per (family, workload) class — orion,
  // grandslam and grandslam+ on IA and VA — not one per tenant.
  EXPECT_EQ(after_first.orion_solved, 2);
  EXPECT_EQ(after_first.early_solved, 6);
  // A second run — any shard count — reuses every artifact.
  config.shards = 4;
  (void)run_fleet(config);
  EXPECT_EQ(catalog.stats().profiles_built, after_first.profiles_built);
  EXPECT_EQ(catalog.stats().bundles_built, after_first.bundles_built);
  EXPECT_EQ(catalog.stats().orion_solved, after_first.orion_solved);
  EXPECT_EQ(catalog.stats().early_solved, after_first.early_solved);
  // Shared read-only bundles: same immutable object for the same key.
  const WorkloadSpec ia = make_ia();
  EXPECT_EQ(catalog.bundle(ia, 1, Exploration::HeadOnly).get(),
            catalog.bundle(ia, 1, Exploration::HeadOnly).get());
  // The memo changes nothing: a warm catalog plans exactly what a fresh
  // one solves, for every family.
  PolicyCatalog fresh(coarse);
  for (const WorkloadSpec& wl : {make_ia(), make_va()}) {
    for (const std::string& name : fleet_policy_names()) {
      EXPECT_EQ(catalog.plan_sizes(name, wl, wl.slo(1), 1, 1700),
                fresh.plan_sizes(name, wl, wl.slo(1), 1, 1700))
          << name << " on " << wl.name;
    }
  }
}

TEST(FleetPolicies, PolicyChangesTenantBehavior) {
  // Same fleet, one tenant flipped fixed -> janus: that tenant's CPU
  // profile must change (the policy is actually consulted), everyone
  // else's randomness must not shift.
  FleetConfig fixed_fleet = small_fleet(2);
  fixed_fleet.policy_catalog = tiny_catalog_config();
  FleetConfig janus_fleet = fixed_fleet;
  janus_fleet.tenants[0].policy = "janus";
  const FleetResult a = run_fleet(fixed_fleet);
  const FleetResult b = run_fleet(janus_fleet);
  EXPECT_NE(a.tenants[0].mean_cpu_mc, b.tenants[0].mean_cpu_mc);
  EXPECT_EQ(b.tenants[0].policy, "janus");
}

TEST(FleetPolicies, PlanSizesFollowThePolicy) {
  PolicyCatalog catalog(tiny_catalog_config());
  const WorkloadSpec ia = make_ia();
  const std::size_t stages = ia.chain_models().size();
  const auto fixed = catalog.plan_sizes("fixed", ia, 3.0, 1, 1700);
  EXPECT_EQ(fixed, std::vector<Millicores>(stages, 1700));
  // Early binding: the plan is the allocation itself.
  const auto orion = catalog.plan_sizes("orion", ia, 3.0, 1, 1700);
  ASSERT_EQ(orion.size(), stages);
  for (Millicores k : orion) {
    EXPECT_GE(k, kDefaultKmin);
    EXPECT_LE(k, kDefaultKmax);
  }
  // Late binding: deterministic, on the grid, and repeatable.
  const auto janus = catalog.plan_sizes("janus", ia, 3.0, 1, 1700);
  EXPECT_EQ(janus, catalog.plan_sizes("janus", ia, 3.0, 1, 1700));
  ASSERT_EQ(janus.size(), stages);
  EXPECT_THROW(catalog.plan_sizes("nope", ia, 3.0, 1, 1700),
               std::invalid_argument);
}

TEST(FleetPolicies, ContentionAwareScalesWithCoresidency) {
  auto base = [] {
    return std::make_unique<FixedSizingPolicy>(
        "fixed", std::vector<Millicores>{2000, 2000});
  };
  const RequestDraw draw;  // fixed policies ignore the draw
  EpochFeed calm(2, /*live=*/true);
  calm.set_stage(0, CoLocationDistribution::concentrated(1.0));
  calm.set_stage(1, CoLocationDistribution::concentrated(1.0));
  ContentionAwarePolicy alone(base(), calm, 0.5);
  EXPECT_EQ(alone.size_for_stage(0, 0.0, draw), 2000);  // no contention

  EpochFeed packed(2, /*live=*/true);
  packed.set_stage(0, CoLocationDistribution::concentrated(3.0));
  packed.set_stage(1, CoLocationDistribution::concentrated(6.0));
  ContentionAwarePolicy scaled(base(), packed, 0.5);
  // 2000 * (1 + 0.5 * 2) = 4000, clamped to Kmax.
  EXPECT_EQ(scaled.size_for_stage(0, 0.0, draw), 3000);
  EXPECT_EQ(scaled.size_for_stage(1, 0.0, draw), 3000);
  ContentionAwarePolicy gentle(base(), packed, 0.1);
  // 2000 * (1 + 0.1 * 2) = 2400: proportional, not saturated.
  EXPECT_EQ(gentle.size_for_stage(0, 0.0, draw), 2400);
  // A base already past kmax is never shrunk — zero contention must be a
  // no-op for any base allocation.
  auto big = std::make_unique<FixedSizingPolicy>(
      "fixed", std::vector<Millicores>{4000, 4000});
  ContentionAwarePolicy oversized(std::move(big), calm, 0.1);
  EXPECT_EQ(oversized.size_for_stage(0, 0.0, draw), 4000);
  EXPECT_TRUE(gentle.late_binding());
  EXPECT_EQ(gentle.name(), "fixed");  // reporting keeps the base name
  EXPECT_THROW(ContentionAwarePolicy(nullptr, packed, 0.5),
               std::invalid_argument);
  EXPECT_THROW(ContentionAwarePolicy(base(), packed, -0.1),
               std::invalid_argument);
}

// ------------------------------------------------- process sharding --
void expect_fleet_equal(const FleetResult& one, const FleetResult& many) {
  ASSERT_EQ(many.tenants.size(), one.tenants.size());
  for (std::size_t t = 0; t < one.tenants.size(); ++t) {
    EXPECT_EQ(one.tenants[t].e2e.sorted_samples(),
              many.tenants[t].e2e.sorted_samples())
        << "tenant " << t;
    EXPECT_DOUBLE_EQ(one.tenants[t].violation_rate,
                     many.tenants[t].violation_rate);
    EXPECT_DOUBLE_EQ(one.tenants[t].mean_cpu_mc, many.tenants[t].mean_cpu_mc);
    EXPECT_DOUBLE_EQ(one.tenants[t].coresidency, many.tenants[t].coresidency);
  }
  EXPECT_EQ(one.fleet_e2e.sorted_samples(), many.fleet_e2e.sorted_samples());
  EXPECT_DOUBLE_EQ(one.fleet_p99, many.fleet_p99);
  EXPECT_DOUBLE_EQ(one.fleet_violation_rate, many.fleet_violation_rate);
  EXPECT_DOUBLE_EQ(one.fleet_mean_cpu_mc, many.fleet_mean_cpu_mc);
  EXPECT_EQ(one.obs.events_executed, many.obs.events_executed);
  EXPECT_EQ(one.obs.counters.invocations, many.obs.counters.invocations);
  EXPECT_EQ(one.obs.counters.cold_starts, many.obs.counters.cold_starts);
  EXPECT_EQ(one.epochs, many.epochs);
  EXPECT_EQ(one.final_nodes, many.final_nodes);
  EXPECT_EQ(one.nodes_added, many.nodes_added);
  EXPECT_EQ(one.groups_resized, many.groups_resized);
  ASSERT_EQ(one.epoch_log.size(), many.epoch_log.size());
  for (std::size_t e = 0; e < one.epoch_log.size(); ++e) {
    EXPECT_EQ(one.epoch_log[e].nodes, many.epoch_log[e].nodes);
    EXPECT_EQ(one.epoch_log[e].groups_resized,
              many.epoch_log[e].groups_resized);
    EXPECT_DOUBLE_EQ(one.epoch_log[e].utilization,
                     many.epoch_log[e].utilization);
  }
  ASSERT_EQ(one.obs.timeline.size(), many.obs.timeline.size());
  for (std::size_t i = 0; i < one.obs.timeline.size(); ++i) {
    EXPECT_EQ(one.obs.timeline[i].tenant, many.obs.timeline[i].tenant);
    EXPECT_EQ(one.obs.timeline[i].epoch, many.obs.timeline[i].epoch);
    EXPECT_EQ(one.obs.timeline[i].stage, many.obs.timeline[i].stage);
    EXPECT_EQ(one.obs.timeline[i].observed_peak_busy,
              many.obs.timeline[i].observed_peak_busy);
    EXPECT_EQ(one.obs.timeline[i].allocated_pods,
              many.obs.timeline[i].allocated_pods);
    EXPECT_EQ(one.obs.timeline[i].completed, many.obs.timeline[i].completed);
    EXPECT_EQ(one.obs.timeline[i].violations,
              many.obs.timeline[i].violations);
  }
}

TEST(Fleet, MultiProcessBitIdenticalStaticAndLive) {
  // Forked workers own tenant slices; the merged result must carry the
  // same bits as the in-process run — on the static path (no barriers)
  // and on the live path (pipe-coordinated barriers, every worker
  // reconciling the identical observation matrix).
  for (const bool live : {false, true}) {
    FleetConfig config = small_fleet(2);
    if (live) {
      config.epoch_s = 5.0;
      config.autoscale.enabled = true;
      config.obs.timeline = true;
    }
    const FleetResult one = run_fleet(config);
    // The live path resizes groups at its barriers; the static one has none.
    EXPECT_EQ(one.groups_resized > 0, live);
    for (int processes : {2, 3, 5}) {
      config.processes = processes;
      const FleetResult many = run_fleet(config);
      EXPECT_EQ(many.processes, processes);
      expect_fleet_equal(one, many);
    }
  }
}

/// A hand-built streamed slice of `config` covering tenants [lo, hi): no
/// simulation, just the fields merge_fleet_slices validates.
FleetSliceOutcome hand_slice(const FleetConfig& config, std::size_t lo,
                             std::size_t hi) {
  FleetSliceOutcome slice;
  slice.lo = lo;
  slice.hi = hi;
  slice.stream = true;
  slice.fleet_seed = config.seed;
  slice.slice_hist = Histogram(0.0, config.hist_max_s, config.hist_bins);
  return slice;
}

/// Expects merge_fleet_slices to reject `slices` as invalid input, through
/// the check whose message contains `why`.
void expect_merge_rejects(const FleetConfig& config,
                          const std::vector<FleetSliceOutcome>& slices,
                          const std::string& why) {
  EXPECT_THROW(merge_fleet_slices(config, slices), std::invalid_argument);
  try {
    merge_fleet_slices(config, slices);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << "want '" << why << "', got: " << e.what();
  }
}

TEST(Fleet, MergeRejectsInconsistentSlices) {
  const FleetConfig config = small_fleet(1);  // 5 tenants
  // A valid tiling (handed over out of order) merges.
  EXPECT_NO_THROW(merge_fleet_slices(
      config, {hand_slice(config, 2, 5), hand_slice(config, 0, 2)}));

  expect_merge_rejects(config, {}, ">= 1 slice");
  expect_merge_rejects(config,
                       {hand_slice(config, 0, 2), hand_slice(config, 3, 5)},
                       "contiguously");  // gap
  expect_merge_rejects(config,
                       {hand_slice(config, 0, 3), hand_slice(config, 2, 5)},
                       "contiguously");  // overlap
  expect_merge_rejects(config, {hand_slice(config, 0, 4)},
                       "cover every tenant");

  FleetSliceOutcome foreign = hand_slice(config, 0, 5);
  foreign.fleet_seed = config.seed + 1;
  expect_merge_rejects(config, {foreign}, "different fleet seed");

  FleetSliceOutcome dense = hand_slice(config, 2, 5);
  dense.stream = false;
  dense.tenants.resize(3);
  expect_merge_rejects(config, {hand_slice(config, 0, 2), dense},
                       "streaming and non-streaming");

  FleetSliceOutcome epochs = hand_slice(config, 2, 5);
  epochs.epochs = 1;
  expect_merge_rejects(config, {hand_slice(config, 0, 2), epochs},
                       "control-plane summary");

  FleetSliceOutcome nodes = hand_slice(config, 2, 5);
  nodes.final_nodes = 3;
  expect_merge_rejects(config, {hand_slice(config, 0, 2), nodes},
                       "control-plane summary");
}

TEST(Fleet, StreamedStaticBlocksMatchTheDenseRunAtEveryShardCount) {
  // 400 tenants make 7 engine blocks at 1 shard, 4 per shard at 2 and 3
  // per shard at 3, so every shard folds and releases several blocks and
  // reloads its block storage in between.  The dense single-shard run is
  // the reference; every merged quantity is exact under re-association,
  // so each streamed run must agree with it bit-for-bit.
  FleetConfig config;
  config.tenants = make_tenant_mix(400, 2, 8.0, ArrivalKind::Poisson,
                                   /*mixed_kinds=*/true);
  config.shards = 1;
  const FleetResult dense = run_fleet(config);
  config.stream_metrics = true;
  for (int shards : {1, 2, 3}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    config.shards = shards;
    const FleetResult lean = run_fleet(config);
    ASSERT_TRUE(lean.streamed);
    EXPECT_EQ(lean.total_requests, dense.total_requests);
    EXPECT_EQ(lean.fleet_violation_rate, dense.fleet_violation_rate);
    EXPECT_EQ(lean.fleet_mean_cpu_mc, dense.fleet_mean_cpu_mc);
    EXPECT_EQ(lean.cluster_utilization, dense.cluster_utilization);
    EXPECT_EQ(lean.overcommitted_pods, dense.overcommitted_pods);
    ASSERT_EQ(lean.fleet_hist.bins(), dense.fleet_hist.bins());
    for (std::size_t i = 0; i < dense.fleet_hist.bins(); ++i) {
      EXPECT_EQ(lean.fleet_hist.bin_count(i), dense.fleet_hist.bin_count(i));
    }
    EXPECT_EQ(lean.fleet_hist.underflow(), dense.fleet_hist.underflow());
    EXPECT_EQ(lean.fleet_hist.overflow(), dense.fleet_hist.overflow());
    EXPECT_EQ(lean.fleet_hist.total(), dense.fleet_hist.total());
    EXPECT_EQ(lean.sim_end_s, dense.sim_end_s);
    EXPECT_EQ(lean.obs.events_executed, dense.obs.events_executed);
    EXPECT_EQ(lean.obs.counters.invocations, dense.obs.counters.invocations);
    EXPECT_EQ(lean.obs.counters.cold_starts, dense.obs.counters.cold_starts);
    EXPECT_EQ(lean.obs.counters.queued, dense.obs.counters.queued);
    EXPECT_EQ(lean.obs.counters.spans_recorded,
              dense.obs.counters.spans_recorded);
    EXPECT_EQ(lean.obs.counters.spans_dropped,
              dense.obs.counters.spans_dropped);
  }
}

TEST(Fleet, StaticStreamedRunAllocationsPerTenantStayBounded) {
  // Per-tenant work outside the request path — plan, block set-up, fold
  // and release — must not copy what it can borrow or reuse: workload
  // models, block storage, platforms (see kMaxAllocsPerTenant).
  FleetConfig config;
  config.tenants = make_tenant_mix(2000, 2, 10.0, ArrivalKind::Poisson,
                                   /*mixed_kinds=*/false,
                                   {"janus", "orion", "mean_based"});
  config.stream_metrics = true;
  config.cluster.nodes = 4;
  config.cluster.node_capacity_mc = 2000000000;
  PolicyCatalog catalog(tiny_catalog_config());
  config.catalog = &catalog;
  (void)run_fleet(config);  // warms the catalog
  const std::size_t before = g_alloc_count.load();
  const FleetResult result = run_fleet(config);
  const std::size_t allocs = g_alloc_count.load() - before;
  ASSERT_EQ(result.total_requests, 4000u);
  const double per_tenant =
      static_cast<double>(allocs) / static_cast<double>(config.tenants.size());
  EXPECT_LE(per_tenant, kMaxAllocsPerTenant) << allocs << " allocations";
}

TEST(Fleet, PhasesPartitionTheWallTime) {
  // Every phase runs back to back from run_fleet's first statement to its
  // last, so the phase seconds add up to wall_seconds up to the few clock
  // reads between them — on the static, live and forked paths alike.
  FleetConfig config;
  config.tenants = make_tenant_mix(300, 4, 8.0, ArrivalKind::Poisson,
                                   /*mixed_kinds=*/true);
  config.shards = 2;
  config.policy_catalog = tiny_catalog_config();
  for (const Seconds epoch_s : {kNoEpochs, 0.5}) {
    for (int processes : {1, 2}) {
      SCOPED_TRACE("epoch_s " + std::to_string(epoch_s) + ", processes " +
                   std::to_string(processes));
      config.epoch_s = epoch_s;
      config.processes = processes;
      const FleetResult r = run_fleet(config);
      double total = 0.0;
      for (const auto& phase : r.obs.phases) total += phase.seconds;
      EXPECT_GT(r.wall_seconds, 0.0);
      EXPECT_LE(total, r.wall_seconds);
      EXPECT_NEAR(total, r.wall_seconds, 2e-3);
      ASSERT_FALSE(r.obs.phases.empty());
      EXPECT_EQ(r.obs.phases.front().name, "plan");
      EXPECT_EQ(r.obs.phases.front().entries, 1u);
    }
  }
}

/// Expects two runs of one fleet config to agree on everything a run
/// promises independent of its engine layout: each tenant's samples, the
/// JSON rendering without its layout- and machine-dependent fields
/// (shards, phases, peak_pending, wall_seconds) — tenant rows, fleet
/// metrics, counters, control summary, chaos tallies and log — and the
/// codec images of the epoch log, timeline and spans.
void expect_layout_invisible(FleetResult want, FleetResult got) {
  ASSERT_EQ(got.tenants.size(), want.tenants.size());
  for (std::size_t t = 0; t < want.tenants.size(); ++t) {
    EXPECT_EQ(want.tenants[t].e2e.sorted_samples(),
              got.tenants[t].e2e.sorted_samples())
        << "tenant " << t;
  }
  EXPECT_EQ(want.fleet_e2e.sorted_samples(), got.fleet_e2e.sorted_samples());
  for (FleetResult* r : {&want, &got}) {
    r->shards = 0;
    r->obs.phases.clear();
    r->obs.peak_pending = 0;
    r->wall_seconds = 0.0;
  }
  EXPECT_EQ(want.to_json(), got.to_json());
  const auto image = [](const auto& rows) {
    codec::ByteWriter w;
    codec::encode(w, rows);
    return w.take();
  };
  // Binary images: a mismatch reports which artifact, not a byte dump.
  EXPECT_TRUE(image(want.epoch_log) == image(got.epoch_log)) << "epoch log";
  EXPECT_TRUE(image(want.obs.timeline) == image(got.obs.timeline))
      << "timeline";
  EXPECT_TRUE(image(want.obs.spans) == image(got.obs.spans)) << "spans";
}

TEST(Fleet, EngineBlocksCrossingShardsAreInvisible) {
  // Enough tenants that every shard runs several engine blocks in
  // sequence: 209 tenants make 4 blocks at 1 and 2 shards and 6 at 3,
  // and 209 divides by neither, so block sizes differ.
  FleetConfig config;
  config.tenants = make_tenant_mix(209, 6, 8.0, ArrivalKind::Poisson,
                                   /*mixed_kinds=*/true);
  config.seed = 4242;
  config.obs.trace = true;
  config.obs.sample_every = 3;

  // The static path first: one drain per block, no barriers.
  config.shards = 1;
  const FleetResult calm_one = run_fleet(config);
  ASSERT_FALSE(calm_one.obs.spans.empty());
  config.shards = 3;
  {
    SCOPED_TRACE("static path");
    expect_layout_invisible(calm_one, run_fleet(config));
  }
  // A block that never ran stays pending forever, so the live barrier
  // loop below would never end: stop at the static diagnosis instead.
  if (HasFailure()) return;

  // The live run drives every barrier consumer — autoscale, node
  // failures, preemption, cold-start storms, the timeline and sampled
  // spans — so a block that ran late, twice or not at all, or published
  // the wrong observations, would show in some artifact.
  config.epoch_s = 0.25;
  config.autoscale.enabled = true;
  config.chaos = chaos_config_from_spec("failures,preemption,storms");
  config.obs.timeline = true;
  config.shards = 1;
  const FleetResult one = run_fleet(config);
  ASSERT_GT(one.epochs, 2);
  ASSERT_GT(one.chaos.node_failures, 0);
  ASSERT_GT(one.chaos.preempted_pods, 0);
  ASSERT_GT(one.chaos.storms, 0);
  ASSERT_FALSE(one.obs.timeline.empty());
  ASSERT_FALSE(one.obs.spans.empty());
  for (int shards : {2, 3}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    config.shards = shards;
    expect_layout_invisible(one, run_fleet(config));
  }
}

TEST(Fleet, StreamingMergeKeepsScalarMetricsBitIdentical) {
  // The streaming fold drops per-tenant rows and exact order statistics;
  // everything else — totals, rates, histogram, control plane, counters,
  // timeline — must match the default path exactly, at any process count.
  FleetConfig config = small_fleet(2);
  config.epoch_s = 5.0;
  config.autoscale.enabled = true;
  config.obs.timeline = true;
  const FleetResult dense = run_fleet(config);
  for (int processes : {1, 2}) {
    config.processes = processes;
    config.stream_metrics = true;
    const FleetResult lean = run_fleet(config);
    EXPECT_TRUE(lean.streamed);
    EXPECT_TRUE(lean.tenants.empty());
    EXPECT_EQ(lean.fleet_e2e.size(), 0u);
    EXPECT_EQ(lean.total_requests, dense.total_requests);
    EXPECT_DOUBLE_EQ(lean.fleet_violation_rate, dense.fleet_violation_rate);
    EXPECT_DOUBLE_EQ(lean.fleet_mean_cpu_mc, dense.fleet_mean_cpu_mc);
    ASSERT_EQ(lean.fleet_hist.bins(), dense.fleet_hist.bins());
    for (std::size_t i = 0; i < dense.fleet_hist.bins(); ++i) {
      EXPECT_EQ(lean.fleet_hist.bin_count(i), dense.fleet_hist.bin_count(i));
    }
    EXPECT_EQ(lean.obs.counters.invocations, dense.obs.counters.invocations);
    EXPECT_EQ(lean.obs.events_executed, dense.obs.events_executed);
    EXPECT_EQ(lean.epochs, dense.epochs);
    EXPECT_EQ(lean.final_nodes, dense.final_nodes);
    ASSERT_EQ(lean.epoch_log.size(), dense.epoch_log.size());
    ASSERT_EQ(lean.obs.timeline.size(), dense.obs.timeline.size());
    // A tenant folded mid-run must still publish the demand it ran in its
    // last epoch, so the control plane's inputs and outputs match exactly.
    const auto image = [](const auto& rows) {
      codec::ByteWriter w;
      codec::encode(w, rows);
      return w.take();
    };
    EXPECT_TRUE(image(lean.epoch_log) == image(dense.epoch_log));
    EXPECT_TRUE(image(lean.obs.timeline) == image(dense.obs.timeline));
    // Histogram-interpolated percentiles sit inside the right bin.
    EXPECT_NEAR(lean.fleet_p50, dense.fleet_p50,
                (config.hist_max_s / static_cast<double>(config.hist_bins)));
  }
}

TEST(Fleet, ProcessAndStreamValidation) {
  FleetConfig config = small_fleet(1);
  config.processes = 0;
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config.processes = 99;  // more processes than tenants
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config.processes = 1;
  config.stream_metrics = true;
  config.obs.trace = true;  // streaming releases the state tracing needs
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
}

TEST(FleetPolicies, CatalogLoadsCommittedHintsBundles) {
  // Cross-process hints reuse: tables written with the canonical
  // filenames load instead of synthesizing, and — because the CSV round
  // trip is exact — produce bit-identical fleet results.
  PolicyCatalog source(tiny_catalog_config());
  const WorkloadSpec ia = make_ia();
  const auto bundle = source.bundle(ia, 1, Exploration::HeadOnly);
  const std::string dir = ::testing::TempDir();
  for (std::size_t j = 0; j < bundle->suffix_tables.size(); ++j) {
    std::ofstream out(
        dir + "/" + hints_bundle_filename(ia.name, 1, Exploration::HeadOnly, j),
        std::ios::binary);
    ASSERT_TRUE(out.good());
    out << bundle->suffix_tables[j].to_csv();
  }

  PolicyCatalogConfig loading = tiny_catalog_config();
  loading.hints_dir = dir;
  PolicyCatalog loader(loading);
  const auto loaded = loader.bundle(ia, 1, Exploration::HeadOnly);
  EXPECT_EQ(loader.stats().bundles_loaded, 1);
  EXPECT_EQ(loader.stats().bundles_built, 0);
  EXPECT_EQ(loader.stats().profiles_built, 0);  // loading skips profiling
  ASSERT_EQ(loaded->suffix_tables.size(), bundle->suffix_tables.size());
  for (std::size_t j = 0; j < bundle->suffix_tables.size(); ++j) {
    EXPECT_EQ(loaded->suffix_tables[j].to_csv(),
              bundle->suffix_tables[j].to_csv());
  }

  // An all-janus IA fleet through each catalog: identical results.
  FleetConfig config;
  config.tenants = make_tenant_mix(3, 120, 8.0, ArrivalKind::Poisson, false,
                                   {"janus"});
  for (auto& tenant : config.tenants) tenant.workload = "ia";
  config.seed = 31;
  PolicyCatalog synth_cat(tiny_catalog_config());
  PolicyCatalog load_cat(loading);
  FleetConfig a = config;
  a.catalog = &synth_cat;
  FleetConfig b = config;
  b.catalog = &load_cat;
  const FleetResult synth_run = run_fleet(a);
  const FleetResult load_run = run_fleet(b);
  expect_fleet_equal(synth_run, load_run);
  EXPECT_EQ(load_cat.stats().bundles_loaded, 1);
  EXPECT_EQ(load_cat.stats().bundles_built, 0);

  // A workload with no committed tables still synthesizes (fallback).
  const WorkloadSpec va = make_va();
  (void)load_cat.bundle(va, 1, Exploration::HeadOnly);
  EXPECT_EQ(load_cat.stats().bundles_built, 1);
}

TEST(FleetPolicies, HeterogeneousPodSizesPackPerStage) {
  // Policy tenants plan different millicores per stage; the cluster must
  // keep per-group pod sizes (and the control plane must pass them
  // through).
  ControlPlane control(ClusterConfig{4, 8000},
                       ControlConfig{kNoEpochs, AutoscaleConfig{}});
  (void)control.plan_tenant({2, 1, 3}, {1000, 2500, 1500});
  const ClusterCapacity& cluster = control.cluster();
  ASSERT_EQ(cluster.group_count(), 3);
  EXPECT_EQ(cluster.group_pod_mc(0), 1000);
  EXPECT_EQ(cluster.group_pod_mc(1), 2500);
  EXPECT_EQ(cluster.group_pod_mc(2), 1500);
  EXPECT_THROW(control.plan_tenant({1, 1}, {1000}), std::invalid_argument);
  EXPECT_THROW(cluster.group_pod_mc(3), std::invalid_argument);
}

}  // namespace
}  // namespace janus
