// Slice outcomes: the unit of fleet merging.
//
// A "slice" is a contiguous tenant-index range [lo, hi) executed by one
// process.  Every run_fleet execution — single-process or forked multi-
// process (FleetConfig::processes) — produces FleetSliceOutcome values,
// and one merge path (merge_fleet_slices) assembles them into a
// FleetResult in tenant-index order.  One code path means the
// multi-process result is the in-process result by construction, not by
// parallel maintenance.
//
// Outcomes are self-contained: they carry the slice bounds, the streaming
// flag, the folded metrics, and the control-plane summary (identical in
// every worker — each reconciles the same full observation matrix), so a
// worker's blob decodes and merges in the parent with nothing but the
// original FleetConfig.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fleet/control.hpp"
#include "obs/obs.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "stats/empirical.hpp"
#include "stats/histogram.hpp"

namespace janus {

/// One tenant's folded metrics (kept per tenant only when streaming is
/// off; the streaming path folds straight into the slice aggregates).
struct TenantFold {
  std::uint64_t requests = 0;
  std::uint64_t violations = 0;
  /// Σ per-request cpu_mc.  Every addend is an integer-valued double
  /// (stage sizes are integral millicores), so partial sums re-associate
  /// exactly — per-tenant subtotals folded in any grouping produce the
  /// same bits as one running sum.
  double cpu_sum = 0.0;
  double coresidency = 1.0;
  EmpiricalDistribution e2e;
  Histogram e2e_hist{0.0, 1.0, 1};
};

struct FleetSliceOutcome {
  std::size_t lo = 0;
  std::size_t hi = 0;
  bool stream = false;
  std::uint64_t fleet_seed = 0;  // cross-check against the merging config

  // Slice aggregates (always filled; exact under re-association).
  std::uint64_t requests_total = 0;
  std::uint64_t violations_total = 0;
  double cpu_total = 0.0;
  /// Streaming latency summary: per-request e2e folded into the fleet
  /// histogram layout as tenants complete (integer counts — the merge is
  /// exactly commutative/associative, so fold order cannot show through).
  Histogram slice_hist{0.0, 1.0, 1};
  /// Per-tenant folds, hi - lo entries; empty when `stream`.
  std::vector<TenantFold> tenants;

  /// Simulated time of the slice's last executed event — the makespan the
  /// frontier's achieved-rps accounting divides by.  Each tenant's event
  /// times are independent of engine grouping, so the fleet-wide max is
  /// bit-identical at any shard/process/block layout (unlike peak_pending).
  Seconds sim_end_s = 0.0;

  ObsCounters counters;
  std::vector<SpanRecord> spans;        // slice tenants, tenant order
  std::vector<TimelineRow> timeline;    // slice tenants, (epoch, t, s) order
  std::uint64_t events_executed = 0;
  std::uint64_t peak_pending = 0;       // per block engine; layout-dependent

  // Control-plane summary — identical across slices of one run.
  int epochs = 0;
  int final_nodes = 0;
  double cluster_utilization = 0.0;
  int overcommitted_pods = 0;
  std::vector<EpochSnapshot> epoch_log;
};

/// Binary round trip via the src/stats codec (versioned envelope; doubles
/// travel as IEEE bit patterns, so decode(encode(x)) == x bit-for-bit).
std::vector<std::uint8_t> encode_slice(const FleetSliceOutcome& s);
FleetSliceOutcome decode_slice(const std::uint8_t* data, std::size_t size);
inline FleetSliceOutcome decode_slice(const std::vector<std::uint8_t>& b) {
  return decode_slice(b.data(), b.size());
}

}  // namespace janus
