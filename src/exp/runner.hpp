// Experiment driver: serves a request stream for one workload through the
// DES platform under a sizing policy and aggregates the paper's metrics
// (end-to-end latency distribution, per-request CPU consumption in
// millicores, SLO violation rate).
//
// Request randomness (working sets, co-location counts, interference
// multipliers) is drawn from a dedicated per-run stream in request-index
// order, so every policy evaluated with the same RunConfig serves the
// *identical* request sequence — the normalized comparisons in Table I /
// Fig 5 / Fig 9 are therefore paired.  The draws themselves are lazy:
// request i's draw happens when request i starts, which keeps a 100k-tenant
// fleet from materializing every tenant's full draw table up front.  Since
// requests start in index order (closed loop is sequential; open-loop
// arrivals are a chained event ladder with non-decreasing times), the
// stream is consumed exactly as the historical pre-draw did — bit-identical
// draws, O(1) live draws per tenant.
//
// Per-request state lives in a caller-owned RequestPool (one per engine),
// not in the scheduled closures: a request occupies a recycled pool slot
// whose draw and record vectors keep their capacity, and the closures
// carry only {tenant state pointer, slot index, size} — so a steady-state
// request performs no heap allocation and no refcount operation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "exp/request_log.hpp"
#include "fleet/arrivals.hpp"
#include "model/workloads.hpp"
#include "obs/trace.hpp"
#include "policy/policy.hpp"
#include "profiler/profiler.hpp"
#include "sim/platform.hpp"
#include "stats/empirical.hpp"

namespace janus {

struct RunConfig {
  Seconds slo = 3.0;
  Concurrency concurrency = 1;
  int requests = 1000;
  std::uint64_t seed = 2026;
  /// Interference regime; must match what the profiles were built with for
  /// the hints to stay accurate (shift it to inject "unexpected dynamics").
  InterferenceModel interference{InterferenceModel(
      workload_interference_params())};
  /// Co-location distribution; default derives from `concurrency`.
  CoLocationDistribution colocation{};
  bool colocation_is_default = true;
  /// Per-stage co-location source; when set (one distribution per chain
  /// stage) it overrides `colocation` and must outlive the run.  The fleet
  /// fills this from its cluster bin-packing — a StaticCoLocation snapshot
  /// for the plan-once path, or a live epoch feed whose distributions the
  /// control plane shifts at every reconciliation barrier.  For a live
  /// provider the stage multiplier is drawn at stage-launch time from a
  /// per-(request, stage) derived rng stream, so the draw is a pure
  /// function of (seed, request, stage, epoch) and stays bit-identical at
  /// any shard count.
  const CoLocationProvider* colocation_provider = nullptr;
  /// Open-loop arrivals at this rate (requests/s); 0 = closed loop
  /// (sequential requests, the paper's measurement setup).  The arrival
  /// *process* is pluggable via `arrivals`; this rate overrides
  /// `arrivals.rate` (scaling the MMPP burst rate along with it, so the
  /// burst/base ratio is preserved) and the legacy single-knob Poisson
  /// setup keeps working unchanged.
  double open_loop_rate = 0.0;
  /// Shape of the open-loop arrival process (Poisson, MMPP bursts, or a
  /// diurnal rate curve); ignored in closed loop.
  ArrivalSpec arrivals{};
  /// When true the platform derives interference from actual pod
  /// co-location instead of the pre-drawn multipliers (clairvoyant Optimal
  /// is not meaningful in this mode).
  bool endogenous_interference = false;
  PlatformConfig platform{};
  /// Observability: when set, every completed stage of a sampled request
  /// (index % trace_sample_every == 0 — deterministic, index-keyed) is
  /// recorded as a SpanRecord tagged trace_tenant.  The ring must outlive
  /// the run; null (the default) costs one never-taken branch per stage.
  TraceRing* trace_ring = nullptr;
  int trace_sample_every = 1;
  std::uint32_t trace_tenant = 0;
  /// Keep the per-stage detail columns (sizes, stage_total) in the request
  /// log.  The paper benches that plot per-request allocations need them;
  /// the fleet switches them off — at six-figure tenant counts the flat
  /// e2e/cpu/violated columns are all the merge reads.
  bool record_stage_detail = true;
};

struct RunResult {
  std::string policy_name;
  Seconds slo = 0.0;
  RequestLog requests;

  EmpiricalDistribution e2e_distribution() const;
  double mean_cpu() const;
  double violation_rate() const;
  double e2e_percentile(double p) const;
};

RunResult run_workload(const WorkloadSpec& workload, SizingPolicy& policy,
                       const RunConfig& config);

namespace detail {
struct InFlight;
struct ServeState;
}  // namespace detail

/// Owner of serve_workload's per-request and per-tenant state for every
/// tenant served on one engine (in the fleet, one engine block's tenants).
/// In-flight requests occupy u32-indexed slots held in fixed-size chunks
/// (slot addresses never move) and recycled through a LIFO free list, so
/// the live set — not the request count, and not each tenant's own peak —
/// sets the footprint.  A tenant's state is freed when its last request
/// completes; destroying the pool frees whatever an undrained engine left
/// behind.  Declare the pool before the engine it serves: pending closures
/// hold raw pointers into it, and they must never run after the pool is
/// gone.  One engine runs on one thread, so the pool takes no locks.
class RequestPool {
 public:
  RequestPool();
  ~RequestPool();
  RequestPool(const RequestPool&) = delete;
  RequestPool& operator=(const RequestPool&) = delete;

  /// Slots allocated so far: the live-set high-water mark, rounded up to
  /// a whole chunk.
  std::size_t capacity() const noexcept { return chunks_.size() * kChunkSlots; }
  /// Requests currently in flight across the pool's tenants.
  std::size_t in_flight() const noexcept { return capacity() - free_.size(); }
  /// Tenants whose last request has not completed yet.
  std::size_t live_tenants() const noexcept { return states_.size(); }

 private:
  friend struct detail::ServeState;
  friend void serve_workload(SimEngine&, RequestPool&, Platform&,
                             const WorkloadSpec&, SizingPolicy&,
                             const RunConfig&, RunResult&);

  /// Slots per chunk: the footprint rounds up to a whole chunk per pool,
  /// and the fleet keeps one pool per engine block (about 64 tenants, a
  /// live set of tens of requests), so chunks stay that small.
  static constexpr std::size_t kChunkSlots = 64;

  std::uint32_t acquire();
  void grow();
  void release(std::uint32_t slot) noexcept;
  detail::InFlight& at(std::uint32_t slot) noexcept;
  void adopt(std::unique_ptr<detail::ServeState> state);
  void retire(detail::ServeState& state) noexcept;

  std::vector<std::unique_ptr<detail::InFlight[]>> chunks_;
  std::vector<std::uint32_t> free_;  // LIFO: the hottest slot comes back
  std::vector<std::unique_ptr<detail::ServeState>> states_;
};

/// Schedules one workload's full request stream onto a caller-owned engine
/// and platform (which must wrap the same engine) and appends completed
/// records to `out` while the caller runs the engine.  Request state lives
/// in `pool`, which must serve only this engine until it drains (a drained
/// pool may serve a fresh engine); `pool`, `platform`, `policy`, and `out`
/// must outlive the run.  Multiple tenants can serve on one engine and
/// pool: each call uses only its own platform/policy/rng streams, so a
/// tenant's records are bit-identical no matter what else shares the
/// calendar or the pool — this is what lets the fleet simulator put one
/// SimEngine and one RequestPool per block of about 64 tenants, and run a
/// shard's blocks one after another.
void serve_workload(SimEngine& engine, RequestPool& pool, Platform& platform,
                    const WorkloadSpec& workload, SizingPolicy& policy,
                    const RunConfig& config, RunResult& out);

/// Pre-draws the request randomness exactly as run_workload does — shared
/// with benches that need the draws directly (e.g. Fig 2's per-request
/// scatter, Optimal normalization).
std::vector<RequestDraw> draw_requests(const WorkloadSpec& workload,
                                       const RunConfig& config);

}  // namespace janus
