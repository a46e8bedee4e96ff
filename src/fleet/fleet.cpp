#include "fleet/fleet.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <utility>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "model/workloads.hpp"
#include "sim/engine.hpp"
#include "stats/codec.hpp"

namespace janus {

namespace {

/// Per-tenant seed from the fleet seed and the tenant index alone: shard
/// assignment must never leak into the randomness.
std::uint64_t tenant_seed(std::uint64_t fleet_seed, std::size_t tenant) {
  return SplitMix64(fleet_seed ^
                    (0x9e3779b97f4a7c15ULL * (tenant + 1)))
      .next();
}

/// Everything one tenant needs, derived up front (shard-independent).
struct TenantSetup {
  /// Points into the immutable workload catalog (workload_by_name).
  const WorkloadSpec* workload = nullptr;
  RunConfig run;
  /// Chain length, recorded once at plan time: the barrier loop, chaos
  /// preemption and the worker pipes read it every epoch.
  std::size_t stages = 0;
};

std::string fmt_double(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

/// The tenant's effective SLO — the one rule (explicit or the workload
/// default) shared by the plan phase and the slice merge.
Seconds tenant_slo(const TenantSpec& spec, const WorkloadSpec& workload) {
  return spec.slo > 0.0 ? spec.slo : workload.slo(spec.concurrency);
}

void validate_fleet(const FleetConfig& config) {
  const std::size_t n = config.tenants.size();
  require(n >= 1, "fleet needs >= 1 tenant");
  require(config.shards >= 1, "fleet needs >= 1 shard");
  require(config.processes >= 1, "fleet needs >= 1 process");
  require(config.hist_max_s > 0.0 && config.hist_bins > 0,
          "fleet histogram layout must be non-degenerate");
  require(config.obs.sample_every >= 1, "obs sampling stride must be >= 1");
  if (config.chaos.needs_epochs()) {
    require(config.epoch_s != kNoEpochs,
            "chaos barrier families (failures, preemption, storms) need a "
            "finite epoch_s");
  }
  if (config.processes > 1) {
    require(static_cast<std::size_t>(config.processes) <= n,
            "fleet cannot run more worker processes than tenants");
    require(!config.chaos.enabled(),
            "process sharding requires chaos off: chaos injection mutates "
            "platforms across the whole fleet at a barrier");
  }
  if (config.stream_metrics) {
    require(!config.obs.trace,
            "the streaming merge releases per-tenant state; span tracing "
            "needs it retained");
    require(!config.chaos.enabled(),
            "the streaming merge requires chaos off: preemption needs every "
            "tenant's platform alive at the barrier");
  }
}

/// The shard-independent plan: catalog artifacts, per-tenant run configs,
/// and the control plane's plan-time packing.  Built once; forked worker
/// processes inherit it copy-on-write, so the synthesis cost is paid once
/// no matter the process count.
struct FleetPlan {
  std::unique_ptr<PolicyCatalog> own_catalog;
  PolicyCatalog* catalog = nullptr;
  std::unique_ptr<ControlPlane> control;
  std::unique_ptr<ChaosEngine> chaos_eng;
  std::vector<TenantSetup> setups;
  std::vector<EpochFeed*> feeds;
};

FleetPlan plan_fleet(const FleetConfig& config) {
  const std::size_t n = config.tenants.size();
  FleetPlan plan;
  // One policy catalog serves every tenant: profiles and hints bundles are
  // synthesized once per (workload, policy) here, before any shard thread
  // or worker process exists, and only read afterwards.
  if (config.catalog != nullptr) {
    plan.catalog = config.catalog;
  } else {
    plan.own_catalog = std::make_unique<PolicyCatalog>(config.policy_catalog);
    plan.catalog = plan.own_catalog.get();
  }
  plan.control = std::make_unique<ControlPlane>(
      config.cluster, ControlConfig{config.epoch_s, config.autoscale});
  // Built only when a family is armed: a calm run never constructs the
  // engine, so chaos-off takes zero different branches (and stays
  // bit-identical to builds that predate chaos).
  if (config.chaos.enabled()) {
    plan.chaos_eng =
        std::make_unique<ChaosEngine>(config.chaos, config.seed, n);
  }
  plan.setups.reserve(n);
  plan.feeds.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    const TenantSpec& spec = config.tenants[t];
    require(spec.requests > 0, "tenant needs >= 1 request");
    require(spec.contention_alpha >= 0.0,
            "tenant contention alpha must be >= 0");
    require_fleet_policy(spec.policy);
    TenantSetup setup;
    setup.workload = &workload_by_name(spec.workload);
    // Validate the arrival spec *now*: the fleet has no closed-loop
    // tenants, and a bad spec must fail here, not as NaN inside the pod
    // estimate or as a throw on a shard thread.
    (void)make_arrivals(spec.arrivals);
    const auto models = setup.workload->chain_models();
    setup.stages = models.size();

    RunConfig rc;
    rc.slo = tenant_slo(spec, *setup.workload);
    rc.concurrency = spec.concurrency;
    rc.requests = spec.requests;
    rc.seed = tenant_seed(config.seed, t);
    // Trace replay carries its own rhythm: the open-loop gate just needs a
    // positive rate (the process ignores it), so use the trace's mean.
    rc.open_loop_rate = spec.arrivals.kind == ArrivalKind::Trace
                            ? spec.arrivals.mean_rate()
                            : spec.arrivals.rate;
    rc.arrivals = spec.arrivals;
    if (plan.chaos_eng) {
      // Flash crowds rewrite the arrival spec at plan time (the window
      // must live inside the arrival process).  The pod plan below
      // deliberately keeps using mean_rate(), which excludes the window:
      // the crowd is a transient the capacity plan does not see coming.
      rc.arrivals = plan.chaos_eng->apply_flash(t, rc.arrivals);
    }
    rc.platform = config.platform;
    rc.colocation_is_default = false;
    // The fleet merge reads only the flat e2e/cpu/violated columns, so
    // per-stage detail stays off — at six-figure tenant counts the detail
    // columns would dominate peak RSS for nothing.
    rc.record_stage_detail = false;

    // Steady-state pods per stage (Little's law over the arrival process's
    // long-run rate) at the policy's plan-time allocation seed the control
    // plane's packing; its feed becomes the tenant's co-location source —
    // frozen on the static path, shifted at every barrier on the live
    // path.
    const std::vector<Millicores>& plan_mc = plan.catalog->plan_sizes(
        spec.policy, *setup.workload, rc.slo, spec.concurrency, spec.size_mc);
    const double rate = spec.arrivals.mean_rate();
    std::vector<int> stage_pods;
    stage_pods.reserve(models.size());
    for (std::size_t s = 0; s < models.size(); ++s) {
      const Seconds stage_s =
          models[s].exec_time(plan_mc[s], spec.concurrency, 1.0, 1.0);
      stage_pods.push_back(
          std::max(1, static_cast<int>(std::ceil(rate * stage_s))));
    }
    EpochFeed& feed = plan.control->plan_tenant(stage_pods, plan_mc);
    plan.feeds.push_back(&feed);
    rc.colocation_provider = &feed;
    setup.run = std::move(rc);
    plan.setups.push_back(std::move(setup));
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Barrier links: how a slice synchronizes its epoch barriers with the rest
// of the fleet.  exchange() publishes the slice's observations and either
// returns the *full* fleet observation matrix (continue: reconcile it) or
// false (stop: every engine everywhere has drained, or the control plane
// is static).  Every process reconciles the identical matrix, so every
// process's control plane — packing, feeds, audit trail — stays
// bit-identical to the in-process run's.

class BarrierLink {
 public:
  virtual ~BarrierLink() = default;
  /// `local` has one row per slice tenant; on true, `full` has one row
  /// per fleet tenant.
  virtual bool exchange(bool local_pending,
                        const std::vector<std::vector<int>>& local,
                        std::vector<std::vector<int>>& full) = 0;
};

/// Single-process: the slice is the fleet, so the exchange is the
/// historical in-process break check plus an identity copy.
class LocalLink final : public BarrierLink {
 public:
  explicit LocalLink(const ControlPlane& control) : control_(&control) {}
  bool exchange(bool local_pending, const std::vector<std::vector<int>>& local,
                std::vector<std::vector<int>>& full) override {
    if (!local_pending || !control_->live()) return false;
    full = local;
    return true;
  }

 private:
  const ControlPlane* control_;
};

void write_all(int fd, const void* buf, std::size_t size) {
  const char* p = static_cast<const char*>(buf);
  while (size > 0) {
    const ssize_t w = ::write(fd, p, size);
    require(w > 0, "fleet worker pipe write failed");
    p += w;
    size -= static_cast<std::size_t>(w);
  }
}

void read_all(int fd, void* buf, std::size_t size) {
  char* p = static_cast<char*>(buf);
  while (size > 0) {
    const ssize_t r = ::read(fd, p, size);
    require(r > 0, "fleet worker pipe closed early");
    p += r;
    size -= static_cast<std::size_t>(r);
  }
}

/// Worker side of a forked run: ships the slice's observations to the
/// parent coordinator, receives 'S' (stop: no engine anywhere is pending)
/// or 'C' plus the full fleet matrix.  A worker never stops unilaterally —
/// its drained engines still publish (zero) observations until the global
/// OR says stop, exactly like drained tenants inside a single process.
class PipeLink final : public BarrierLink {
 public:
  PipeLink(int cmd_fd, int obs_fd, bool live, const std::vector<int>* stages)
      : cmd_fd_(cmd_fd), obs_fd_(obs_fd), live_(live), stages_(stages) {}

  bool exchange(bool local_pending, const std::vector<std::vector<int>>& local,
                std::vector<std::vector<int>>& full) override {
    if (!live_) return false;
    codec::ByteWriter w;
    w.u8(local_pending ? 1 : 0);
    for (const auto& row : local) {
      for (int v : row) w.i32(v);
    }
    write_all(obs_fd_, w.bytes().data(), w.bytes().size());
    std::uint8_t cmd = 0;
    read_all(cmd_fd_, &cmd, 1);
    if (cmd == 'S') return false;
    require(cmd == 'C', "fleet worker: unknown barrier command");
    std::size_t ints = 0;
    for (int s : *stages_) ints += static_cast<std::size_t>(s);
    std::vector<std::uint8_t> buf(ints * 4);
    read_all(cmd_fd_, buf.data(), buf.size());
    codec::ByteReader r(buf.data(), buf.size());
    full.resize(stages_->size());
    for (std::size_t t = 0; t < stages_->size(); ++t) {
      full[t].resize(static_cast<std::size_t>((*stages_)[t]));
      for (int& v : full[t]) v = r.i32();
    }
    return true;
  }

 private:
  int cmd_fd_;
  int obs_fd_;
  bool live_;
  const std::vector<int>* stages_;  // per-tenant stage counts, all tenants
};

// ---------------------------------------------------------------------------

/// Static-streaming wave size: the most tenants whose simulator state
/// (platform, policy, request-log arena) is live at once on the
/// barrier-free streaming path.  Large enough to amortize per-wave set-up
/// and give every shard many engine blocks, small enough that a
/// six-figure fleet's peak RSS tracks the wave, not the fleet.
constexpr std::size_t kStreamWaveTenants = 4096;

/// Tenants per engine block: each shard runs its tenants as a sequence of
/// small engines so only one block's calendar, platforms, request slots
/// and logs are cache-hot at a time.  Sweep on a 4-core VM, median of 5
/// janus_cli runs of the three perfbench fleets: seconds in the simulate
/// phase (coordinate for huge-streamed, 2 processes) and huge-streamed
/// peak RSS in MiB.  One engine per shard measured 0.92 / 0.79 / 1.31 s
/// and 94.7 MiB.
///   tenants/block   long-streams  many-tenants-live  huge-streamed  RSS
///   16              0.61          0.40               0.59           101.6
///   32              0.68          0.47               0.66           100.7
///   64              0.63          0.46               0.73            99.2
///   128             0.63          0.43               0.70            98.0
/// Time is flat within run-to-run spread from 16 to 128 while every block
/// adds an engine and a request pool, so RSS climbs as blocks shrink; 64
/// is the smallest block that keeps peak RSS within 5% of one engine.
constexpr std::size_t kBlockTenants = 64;

/// Executes tenants [lo, hi) against the (already planned) control plane
/// and folds their metrics into a slice outcome.  This is the one
/// execution path: run_fleet's single-process mode runs it over the whole
/// fleet with a LocalLink, forked workers run it over their range with a
/// PipeLink.
FleetSliceOutcome execute_slice(const FleetConfig& config, FleetPlan& plan,
                                std::size_t lo, std::size_t hi,
                                BarrierLink& link, PhaseProfiler* prof) {
  ControlPlane& control = *plan.control;
  ChaosEngine* chaos_eng = plan.chaos_eng.get();
  const bool stream = config.stream_metrics;
  // Without live barriers nothing folds a streamed tenant mid-run, so one
  // pass over the slice would hold every tenant's platform and log at
  // once.  Tenant results are independent of engine grouping (the same
  // contract that makes shard and process counts invisible), so the
  // slice runs in waves: each builds, simulates, folds and releases its
  // tenants before the next begins.  Every folded quantity is exact under
  // re-association (integer counts, integer-valued cpu sums, histogram
  // counts), so wave boundaries cannot show through in any merged metric.
  const std::size_t wave_n =
      stream && !control.live() ? kStreamWaveTenants : hi - lo;

  FleetSliceOutcome out;
  out.lo = lo;
  out.hi = hi;
  out.stream = stream;
  out.fleet_seed = config.seed;
  out.slice_hist = Histogram(0.0, config.hist_max_s, config.hist_bins);
  if (!stream) out.tenants.reserve(hi - lo);

  const auto shards = static_cast<std::size_t>(config.shards);
  // A wave of n tenants splits into contiguous, near-equal engine blocks
  // (wave tenant i -> block i*B/n), B a multiple of the shard count so
  // block b runs on shard b % shards and the shards stay balanced.  The
  // same engine-grouping contract makes the block layout invisible.
  const auto blocks_for = [shards](std::size_t n) {
    const std::size_t round = shards * kBlockTenants;
    return shards * ((n + round - 1) / round);
  };
  // One request pool per block slot, reused by every wave (a pool serves
  // exactly one engine at a time), so the pool costs the block's live
  // set, not each tenant's peak.  Declared before the engines so it
  // outlives every closure that points into it.  The first wave is the
  // largest, so it sets the slot count.
  std::vector<RequestPool> request_pools(
      blocks_for(std::min(wave_n, hi - lo)));
  std::vector<EngineObs> engine_obs(shards);
  ThreadPool pool(shards);
  for (std::size_t wlo = lo; wlo < hi; wlo += wave_n) {
    const std::size_t whi = std::min(hi, wlo + wave_n);
    const std::size_t n = whi - wlo;
    const std::size_t blocks = blocks_for(n);
    // Wave tenant i runs in block i * blocks / n, so block b holds wave
    // tenants [first(b), first(b + 1)).
    const auto first = [n, blocks](std::size_t b) {
      return (b * n + blocks - 1) / blocks;
    };
    if (prof != nullptr) prof->begin("plan");
    // Fresh engines per wave: a drained engine's clock sits at its last
    // event, and schedule_at clamps earlier times to now().
    std::vector<std::unique_ptr<SimEngine>> engines;
    engines.reserve(blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
      engines.push_back(std::make_unique<SimEngine>());
      // One occupancy gauge per shard, written only by the shard's thread.
      if (config.obs.enabled()) engines[b]->set_obs(&engine_obs[b % shards]);
    }
    // Observability sinks.  Sized up front so the addresses handed to the
    // hot-path hooks stay stable; each shard writes only its own tenants'
    // sinks (and its own engine gauge), so recording needs no locks.  When
    // obs is off no sink is armed and every hook stays a null-test branch.
    std::vector<TraceRing> rings;
    std::vector<ObsCounters> counters(n);
    if (config.obs.trace) {
      rings.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        rings.emplace_back(config.obs.ring_capacity);
      }
    }
    // Platforms and policies sit in unique_ptrs so the fold can release a
    // tenant's simulator state, not just its metrics.
    std::vector<RunResult> results(n);
    std::vector<std::unique_ptr<Platform>> platforms(n);
    std::vector<std::unique_ptr<SizingPolicy>> policies(n);
    for (std::size_t t = wlo; t < whi; ++t) {
      const std::size_t i = t - wlo;
      const std::size_t b = i * blocks / n;
      TenantSetup& setup = plan.setups[t];
      const TenantSpec& spec = config.tenants[t];
      SimEngine& engine = *engines[b];
      PlatformConfig pc = setup.run.platform;
      pc.seed = setup.run.seed ^ 0x9e3779b97f4a7c15ULL;
      platforms[i] = std::make_unique<Platform>(
          engine, pc, setup.workload->chain_models(), setup.run.interference);
      if (config.obs.enabled()) platforms[i]->set_obs(&counters[i]);
      if (config.obs.trace) {
        setup.run.trace_ring = &rings[i];
        setup.run.trace_sample_every = config.obs.sample_every;
        setup.run.trace_tenant = static_cast<std::uint32_t>(t);
      }
      std::unique_ptr<SizingPolicy> policy =
          plan.catalog->make_policy(spec.policy, *setup.workload,
                                    setup.run.slo, spec.concurrency,
                                    spec.size_mc);
      if (spec.contention_alpha > 0.0) {
        policy = std::make_unique<ContentionAwarePolicy>(
            std::move(policy), *plan.feeds[t], spec.contention_alpha,
            plan.catalog->config().kmax);
      }
      policies[i] = std::move(policy);
      serve_workload(engine, request_pools[b], *platforms[i],
                     *setup.workload, *policies[i], setup.run, results[i]);
    }

    // Per-tenant cursor over the (append-only) request records so the
    // timeline's cumulative SLO attainment costs one pass over new records
    // per barrier, not a rescan.
    std::vector<std::size_t> slo_cursor(n, 0);
    std::vector<std::uint64_t> slo_violations(n, 0);
    std::vector<char> folded(n, 0);

    // The per-tenant fold: one scan of the request log, the counter fold,
    // the span drain, then the tenant's simulator footprint — request log
    // arena, platform, policy — is released.  Streaming runs it as each
    // tenant completes, the default path at slice end, where it also emits
    // the tenant's row.  The aggregates are exact under any fold order
    // (integer counts, integer-valued cpu sums), so the timing cannot show
    // through.
    const auto fold = [&](std::size_t i) {
      const RequestLog& log = results[i].requests;
      std::uint64_t viol = 0;
      double cpu = 0.0;
      for (const auto& req : log) {
        viol += req.violated ? 1 : 0;
        cpu += req.cpu_mc;
        out.slice_hist.add(req.e2e);
      }
      out.requests_total += log.size();
      out.violations_total += viol;
      out.cpu_total += cpu;
      slo_cursor[i] = log.size();
      slo_violations[i] = viol;
      if (!stream) {
        TenantFold row;
        row.requests = log.size();
        row.violations = viol;
        row.cpu_sum = cpu;
        row.coresidency = control.tenant_coresidency(wlo + i);
        row.e2e = results[i].e2e_distribution();
        row.e2e_hist = Histogram(0.0, config.hist_max_s, config.hist_bins);
        for (double x : row.e2e.sorted_samples()) row.e2e_hist.add(x);
        out.tenants.push_back(std::move(row));
      }
      // Platform tallies + hook tallies + ring bookkeeping, merged exactly
      // like the metric distributions.
      ObsCounters tc = counters[i];
      tc.invocations = platforms[i]->invocations();
      tc.cold_starts = platforms[i]->cold_starts();
      if (config.obs.trace) {
        tc.spans_recorded = rings[i].recorded();
        tc.spans_dropped = rings[i].dropped();
        rings[i].drain_to(out.spans);
      }
      out.counters.merge(tc);
      if (chaos_eng != nullptr) {
        chaos_eng->add_requeued(platforms[i]->requeued());
      }
      results[i].requests.release();
      platforms[i].reset();
      policies[i].reset();
      folded[i] = 1;
    };

    // Barrier observation buffers, sized once and overwritten every epoch.
    std::vector<std::vector<int>> observed(n);
    for (std::size_t i = 0; i < n; ++i) {
      observed[i].resize(plan.setups[wlo + i].stages);
    }
    std::vector<std::vector<int>> full;

    Seconds epoch_end = control.live() ? control.epoch_s() : kNoEpochs;
    for (;;) {
      // Advance every block to the barrier (run_until(inf) = run to
      // drain — the static path does exactly one pass), each shard its
      // blocks in turn.  On the live path each block then publishes the
      // per-(tenant, stage) pod demand its Platforms actually observed
      // this epoch, while the block is still hot.  A tenant already
      // folded away publishes zeros — exactly what its idle platform
      // would have reported.
      if (prof != nullptr) prof->begin("simulate");
      pool.parallel_for(shards, [&](std::size_t s) {
        for (std::size_t b = s; b < blocks; b += shards) {
          engines[b]->run_until(epoch_end);
          if (!control.live()) continue;
          for (std::size_t i = first(b); i < first(b + 1); ++i) {
            if (platforms[i]) {
              platforms[i]->take_peak_busy(observed[i]);
            } else {
              std::fill(observed[i].begin(), observed[i].end(), 0);
            }
          }
        }
      });
      if (prof != nullptr) prof->end();
      bool pending = false;
      for (const auto& engine : engines) {
        pending = pending || engine->pending() > 0;
      }
      if (!link.exchange(pending, observed, full)) break;
      if (prof != nullptr) prof->begin("reconcile");
      // Chaos injection happens here — all shards paused, observations
      // already collected — so every injection is a pure function of the
      // (deterministic) barrier state and the chaos schedule.  Chaos
      // implies a single slice spanning the fleet (validated up front).
      EpochChaos epoch_chaos;
      if (chaos_eng != nullptr) {
        const int epoch_idx = control.epochs_run();
        const ChaosEngine::BarrierPlan barrier =
            chaos_eng->plan_barrier(epoch_idx, control.cluster().nodes());
        for (int node : barrier.failed_nodes) {
          const ClusterCapacity::RemoveOutcome rm =
              control.inject_node_failure(node);
          ++epoch_chaos.failed_nodes;
          epoch_chaos.displaced_pods += rm.displaced;
          epoch_chaos.stranded_pods += rm.stranded;
          chaos_eng->record_failure(epoch_idx, epoch_end, node, rm.displaced,
                                    rm.stranded);
        }
        for (std::size_t t : barrier.preempt_tenants) {
          int killed = 0;
          for (std::size_t s = 0; s < plan.setups[t].stages; ++s) {
            const int busy =
                platforms[t - wlo]->busy_pods_for(static_cast<int>(s));
            const int want = static_cast<int>(
                std::ceil(config.chaos.preempt_fraction *
                          static_cast<double>(busy)));
            killed +=
                platforms[t - wlo]->preempt_busy(static_cast<int>(s), want);
          }
          if (killed > 0) {
            chaos_eng->record_preemption(epoch_idx, epoch_end,
                                         static_cast<int>(t), killed);
          }
          epoch_chaos.preempted_pods += killed;
        }
        epoch_chaos.storm_multiplier = barrier.storm_multiplier;
        if (config.chaos.cold_storms) {
          // x1.0 when calm — IEEE-exact, so arming storms without a storm
          // this epoch perturbs nothing.
          for (auto& platform : platforms) {
            if (platform) platform->set_startup_multiplier(
                barrier.storm_multiplier);
          }
          if (barrier.storm_started) {
            chaos_eng->record_storm(
                epoch_idx, epoch_end,
                epoch_end + static_cast<double>(config.chaos.storm_epochs) *
                                control.epoch_s());
          }
        }
      }
      control.reconcile(epoch_end, full, epoch_chaos);
      if (config.obs.timeline) {
        // One row per (slice tenant, stage), in tenant-index order,
        // reading the *post-reconcile* packing — all simulated state, so
        // the timeline is part of the bit-identical artifact set.
        const EpochSnapshot& snap = control.history().back();
        const ClusterCapacity& cl = control.cluster();
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t t = wlo + i;
          for (; slo_cursor[i] < results[i].requests.size();
               ++slo_cursor[i]) {
            if (results[i].requests[slo_cursor[i]].violated) {
              ++slo_violations[i];
            }
          }
          for (std::size_t s = 0; s < observed[i].size(); ++s) {
            const int group = control.tenant_group(t, s);
            TimelineRow row;
            row.epoch = snap.epoch;
            row.sim_time = epoch_end;
            row.tenant = static_cast<std::uint32_t>(t);
            row.stage = static_cast<std::uint16_t>(s);
            row.observed_peak_busy = observed[i][s];
            row.allocated_pods =
                static_cast<int>(cl.assignment(group).size());
            row.pod_mc = cl.group_pod_mc(group);
            row.coresidency = cl.group_coresidency(group);
            row.completed = slo_cursor[i];
            row.violations = slo_violations[i];
            row.nodes = snap.nodes;
            row.nodes_ordered = snap.nodes_ordered;
            row.nodes_added = snap.nodes_added;
            row.nodes_removed = snap.nodes_removed;
            row.displaced_pods = snap.displaced_pods;
            row.utilization = snap.utilization;
            row.chaos_failed_nodes = snap.chaos.failed_nodes;
            row.chaos_preempted_pods = snap.chaos.preempted_pods;
            row.chaos_stranded_pods = snap.chaos.stranded_pods;
            row.chaos_storm_mult = snap.chaos.storm_multiplier;
            out.timeline.push_back(row);
          }
        }
      }
      if (stream) {
        // Fold (and free) every tenant that finished its stream this
        // epoch — after the timeline read, which still wanted the log.
        for (std::size_t i = 0; i < n; ++i) {
          if (folded[i] == 0 &&
              results[i].requests.size() ==
                  static_cast<std::size_t>(config.tenants[wlo + i].requests)) {
            fold(i);
          }
        }
      }
      if (prof != nullptr) prof->end();
      epoch_end += control.epoch_s();
    }

    // Fold the rest in tenant order (a fixed fold order => reproducible
    // bits; when streaming, only tenants finishing in the last partial
    // epoch are left).
    for (std::size_t i = 0; i < n; ++i) {
      if (folded[i] == 0) fold(i);
    }
    for (const auto& engine : engines) {
      out.events_executed += engine->executed();
      // Makespan: per-tenant event times are grouping-independent, so the
      // max over engines is the same number at any shard, block or wave
      // layout.
      out.sim_end_s = std::max(out.sim_end_s, engine->last_event_s());
    }
  }
  for (const EngineObs& gauge : engine_obs) {
    out.peak_pending = std::max(out.peak_pending, gauge.peak_pending);
  }
  if (chaos_eng != nullptr) {
    // The cluster's counter is authoritative: it also covers stranding
    // during post-failure regrowth at reconcile, not just eviction time.
    chaos_eng->set_stranded_total(control.cluster().stranded_pods());
  }
  out.epochs = control.epochs_run();
  out.final_nodes = control.cluster().nodes();
  out.cluster_utilization = control.cluster().utilization();
  out.overcommitted_pods = control.cluster().overcommitted_pods();
  out.epoch_log = control.history();
  return out;
}

// ---------------------------------------------------------------------------
// Forked multi-process execution.  The parent plans once, forks P workers
// that inherit the plan copy-on-write, coordinates their epoch barriers
// (global pending-OR + full-matrix broadcast; every worker reconciles the
// identical matrix), then collects one length-prefixed slice blob per
// worker.

struct WorkerProc {
  pid_t pid = -1;
  int cmd_fd = -1;   // parent -> worker: 'S' stop | 'C' + full matrix
  int data_fd = -1;  // worker -> parent: barrier observations, final blob
  std::size_t lo = 0;
  std::size_t hi = 0;
};

std::vector<FleetSliceOutcome> run_forked_slices(const FleetConfig& config,
                                                 FleetPlan& plan) {
  const std::size_t n = config.tenants.size();
  const auto processes = static_cast<std::size_t>(config.processes);
  std::vector<int> stages(n);
  for (std::size_t t = 0; t < n; ++t) {
    stages[t] = static_cast<int>(plan.setups[t].stages);
  }
  std::vector<WorkerProc> workers(processes);
  for (std::size_t p = 0; p < processes; ++p) {
    const std::size_t lo = p * n / processes;
    const std::size_t hi = (p + 1) * n / processes;
    int cmd[2];
    int data[2];
    require(::pipe(cmd) == 0 && ::pipe(data) == 0,
            "fleet worker pipe() failed");
    const pid_t pid = ::fork();
    require(pid >= 0, "fleet worker fork() failed");
    if (pid == 0) {
      // Worker: drop the parent-side ends (ours and every earlier
      // worker's, inherited across fork), run the slice, ship the blob.
      ::close(cmd[1]);
      ::close(data[0]);
      for (std::size_t q = 0; q < p; ++q) {
        ::close(workers[q].cmd_fd);
        ::close(workers[q].data_fd);
      }
      int exit_code = 0;
      try {
        PipeLink link(cmd[0], data[1], plan.control->live(), &stages);
        const FleetSliceOutcome slice =
            execute_slice(config, plan, lo, hi, link, nullptr);
        const std::vector<std::uint8_t> blob = encode_slice(slice);
        const std::uint64_t len = blob.size();
        write_all(data[1], &len, sizeof(len));
        write_all(data[1], blob.data(), blob.size());
      } catch (...) {
        exit_code = 1;
      }
      // Skip atexit/static destructors: this address space is a fork of a
      // mid-run parent and must not run its teardown.
      std::_Exit(exit_code);
    }
    ::close(cmd[0]);
    ::close(data[1]);
    workers[p] = WorkerProc{pid, cmd[1], data[0], lo, hi};
  }

  // Barrier coordination (live control plane only; the static path has no
  // barriers — workers run to drain and ship their blob).
  if (plan.control->live()) {
    for (;;) {
      bool any_pending = false;
      std::vector<std::vector<int>> full(n);
      for (const WorkerProc& w : workers) {
        std::size_t ints = 0;
        for (std::size_t t = w.lo; t < w.hi; ++t) {
          ints += static_cast<std::size_t>(stages[t]);
        }
        std::vector<std::uint8_t> buf(1 + ints * 4);
        read_all(w.data_fd, buf.data(), buf.size());
        codec::ByteReader r(buf.data(), buf.size());
        any_pending = (r.u8() != 0) || any_pending;
        for (std::size_t t = w.lo; t < w.hi; ++t) {
          full[t].resize(static_cast<std::size_t>(stages[t]));
          for (int& v : full[t]) v = r.i32();
        }
      }
      if (!any_pending) {
        const std::uint8_t stop = 'S';
        for (const WorkerProc& w : workers) write_all(w.cmd_fd, &stop, 1);
        break;
      }
      codec::ByteWriter w;
      w.u8('C');
      for (const auto& row : full) {
        for (int v : row) w.i32(v);
      }
      for (const WorkerProc& worker : workers) {
        write_all(worker.cmd_fd, w.bytes().data(), w.bytes().size());
      }
    }
  }

  // Collect blobs (worker order == tenant-index order), then reap.
  std::vector<FleetSliceOutcome> slices;
  slices.reserve(processes);
  for (const WorkerProc& w : workers) {
    std::uint64_t len = 0;
    read_all(w.data_fd, &len, sizeof(len));
    std::vector<std::uint8_t> blob(static_cast<std::size_t>(len));
    read_all(w.data_fd, blob.data(), blob.size());
    slices.push_back(decode_slice(blob));
  }
  for (const WorkerProc& w : workers) {
    ::close(w.cmd_fd);
    ::close(w.data_fd);
    int status = 0;
    require(::waitpid(w.pid, &status, 0) == w.pid &&
                WIFEXITED(status) && WEXITSTATUS(status) == 0,
            "fleet worker process failed");
  }
  return slices;
}

}  // namespace

std::string FleetResult::to_json() const {
  std::ostringstream os;
  os << "{\n  \"shards\": " << shards << ",\n  \"processes\": " << processes
     << ",\n  \"streamed\": " << (streamed ? "true" : "false")
     << ",\n  \"tenants\": [\n";
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const TenantResult& tr = tenants[t];
    os << "    {\"name\": \"" << json_escape(tr.name) << "\", \"workload\": \""
       << json_escape(tr.workload) << "\", \"policy\": \""
       << json_escape(tr.policy) << "\", \"arrivals\": \""
       << to_string(tr.arrivals)
       << "\", \"requests\": " << tr.requests
       << ", \"slo_s\": " << fmt_double(tr.slo)
       << ", \"violation_rate\": " << fmt_double(tr.violation_rate)
       << ", \"mean_cpu_mc\": " << fmt_double(tr.mean_cpu_mc)
       << ", \"p50_e2e_s\": " << fmt_double(tr.e2e_p50)
       << ", \"p99_e2e_s\": " << fmt_double(tr.e2e_p99)
       << ", \"coresidency\": " << fmt_double(tr.coresidency) << "}"
       << (t + 1 < tenants.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"fleet\": {\"requests\": " << total_requests
     << ", \"violation_rate\": " << fmt_double(fleet_violation_rate)
     << ", \"mean_cpu_mc\": " << fmt_double(fleet_mean_cpu_mc)
     << ", \"p50_e2e_s\": " << fmt_double(fleet_p50)
     << ", \"p99_e2e_s\": " << fmt_double(fleet_p99)
     << ", \"sim_end_s\": " << fmt_double(sim_end_s)
     << ", \"cluster_utilization\": " << fmt_double(cluster_utilization)
     << ", \"overcommitted_pods\": " << overcommitted_pods << "},\n"
     << "  \"control\": {\"epochs\": " << epochs
     << ", \"final_nodes\": " << final_nodes
     << ", \"nodes_added\": " << nodes_added
     << ", \"nodes_removed\": " << nodes_removed << "},\n";
  if (chaos_enabled) {
    os << "  \"chaos\": {\"node_failures\": " << chaos.node_failures
       << ", \"displaced_pods\": " << chaos.displaced_pods
       << ", \"stranded_pods\": " << chaos.stranded_pods
       << ", \"preemption_bursts\": " << chaos.preemption_bursts
       << ", \"preempted_pods\": " << chaos.preempted_pods
       << ", \"requeued_invocations\": " << chaos.requeued_invocations
       << ", \"storms\": " << chaos.storms
       << ", \"flash_windows\": " << chaos.flash_windows
       << ", \"events\": [";
    for (std::size_t e = 0; e < chaos_log.size(); ++e) {
      const ChaosEvent& ev = chaos_log[e];
      os << (e > 0 ? ", " : "") << "{\"family\": \"" << to_string(ev.family)
         << "\", \"epoch\": " << ev.epoch
         << ", \"sim_time_s\": " << fmt_double(ev.sim_time)
         << ", \"tenant\": " << ev.tenant << ", \"node\": " << ev.node
         << ", \"pods\": " << ev.pods << ", \"stranded\": " << ev.stranded
         << ", \"magnitude\": " << fmt_double(ev.magnitude)
         << ", \"until_s\": " << fmt_double(ev.until_s) << "}";
    }
    os << "]},\n";
  }
  os << "  \"obs\": {\"events_executed\": " << obs.events_executed
     << ", \"invocations\": " << obs.counters.invocations
     << ", \"cold_starts\": " << obs.counters.cold_starts
     << ", \"queued\": " << obs.counters.queued
     << ", \"spans_recorded\": " << obs.counters.spans_recorded
     << ", \"spans_dropped\": " << obs.counters.spans_dropped
     << ", \"spans_retained\": " << obs.spans.size()
     << ", \"timeline_rows\": " << obs.timeline.size()
     << ", \"peak_pending\": " << obs.peak_pending
     << ", \"phases\": [";
  for (std::size_t p = 0; p < obs.phases.size(); ++p) {
    os << (p > 0 ? ", " : "") << "{\"name\": \""
       << json_escape(obs.phases[p].name)
       << "\", \"seconds\": " << fmt_double(obs.phases[p].seconds)
       << ", \"entries\": " << obs.phases[p].entries << "}";
  }
  os << "]},\n"
     << "  \"wall_seconds\": " << fmt_double(wall_seconds) << "\n}\n";
  return os.str();
}

FleetResult merge_fleet_slices(const FleetConfig& config,
                               std::vector<FleetSliceOutcome> slices) {
  const std::size_t n = config.tenants.size();
  require(!slices.empty(), "fleet merge needs >= 1 slice");
  std::sort(slices.begin(), slices.end(),
            [](const FleetSliceOutcome& a, const FleetSliceOutcome& b) {
              return a.lo < b.lo;
            });
  std::size_t covered = 0;
  for (const FleetSliceOutcome& s : slices) {
    require(s.lo == covered && s.hi > s.lo,
            "slices must tile the tenant range contiguously");
    require(s.stream == slices.front().stream,
            "cannot merge streaming and non-streaming slices");
    require(s.fleet_seed == config.seed,
            "slice was produced under a different fleet seed");
    require(s.epochs == slices.front().epochs &&
                s.final_nodes == slices.front().final_nodes,
            "slices disagree on the control-plane summary");
    covered = s.hi;
  }
  require(covered == n, "slices do not cover every tenant");
  const bool stream = slices.front().stream;

  FleetResult out;
  out.shards = config.shards;
  out.processes = config.processes;
  out.streamed = stream;
  // Control summary — identical in every slice (each reconciled the same
  // observation matrix), so the first one speaks for the fleet.
  out.epochs = slices.front().epochs;
  out.final_nodes = slices.front().final_nodes;
  out.cluster_utilization = slices.front().cluster_utilization;
  out.overcommitted_pods = slices.front().overcommitted_pods;
  out.epoch_log = std::move(slices.front().epoch_log);
  for (const EpochSnapshot& snap : out.epoch_log) {
    out.nodes_added += snap.nodes_added;
    out.nodes_removed += snap.nodes_removed;
  }

  out.fleet_hist = Histogram(0.0, config.hist_max_s, config.hist_bins);
  double cpu_total = 0.0;
  std::size_t violations = 0;
  std::size_t total = 0;
  if (!stream) out.tenants.reserve(n);
  for (FleetSliceOutcome& slice : slices) {
    if (stream) {
      out.fleet_hist.merge(slice.slice_hist);
      total += static_cast<std::size_t>(slice.requests_total);
      violations += static_cast<std::size_t>(slice.violations_total);
      cpu_total += slice.cpu_total;
    } else {
      for (std::size_t j = 0; j < slice.tenants.size(); ++j) {
        const std::size_t t = slice.lo + j;
        TenantFold& fold = slice.tenants[j];
        const TenantSpec& spec = config.tenants[t];
        TenantResult tr;
        tr.name = spec.name.empty()
                      ? spec.workload + "-" + std::to_string(t)
                      : spec.name;
        tr.workload = spec.workload;
        tr.policy = spec.policy;
        tr.arrivals = spec.arrivals.kind;
        tr.requests = static_cast<int>(fold.requests);
        tr.slo = tenant_slo(spec, workload_by_name(spec.workload));
        tr.violation_rate =
            fold.requests > 0 ? static_cast<double>(fold.violations) /
                                    static_cast<double>(fold.requests)
                              : 0.0;
        tr.mean_cpu_mc = fold.requests > 0
                             ? fold.cpu_sum /
                                   static_cast<double>(fold.requests)
                             : 0.0;
        tr.coresidency = fold.coresidency;
        tr.e2e = std::move(fold.e2e);
        tr.e2e_p50 = tr.e2e.percentile(50.0);
        tr.e2e_p99 = tr.e2e.percentile(99.0);
        tr.e2e_hist = std::move(fold.e2e_hist);
        out.fleet_hist.merge(tr.e2e_hist);
        cpu_total += fold.cpu_sum;
        violations += static_cast<std::size_t>(fold.violations);
        total += static_cast<std::size_t>(fold.requests);
        out.tenants.push_back(std::move(tr));
      }
    }
    out.obs.counters.merge(slice.counters);
    out.obs.spans.insert(out.obs.spans.end(), slice.spans.begin(),
                         slice.spans.end());
    out.obs.timeline.insert(out.obs.timeline.end(), slice.timeline.begin(),
                            slice.timeline.end());
    out.obs.events_executed += slice.events_executed;
    out.obs.peak_pending =
        std::max(out.obs.peak_pending, slice.peak_pending);
    out.sim_end_s = std::max(out.sim_end_s, slice.sim_end_s);
  }
  // The exact fleet distribution: one sort over every tenant's samples and
  // a tenant-order moment fold — bit-identical to folding merge() tenant
  // by tenant, without rewriting the accumulated vector once per tenant.
  if (!stream) {
    std::vector<const EmpiricalDistribution*> parts;
    parts.reserve(out.tenants.size());
    for (const TenantResult& tr : out.tenants) parts.push_back(&tr.e2e);
    out.fleet_e2e = EmpiricalDistribution::merge_all(parts);
  }
  // Timeline rows arrive slice by slice but the artifact's canonical order
  // is (epoch, tenant, stage); a stable sort restores it — and is the
  // identity permutation for a single slice, so one code path serves both.
  std::stable_sort(out.obs.timeline.begin(), out.obs.timeline.end(),
                   [](const TimelineRow& a, const TimelineRow& b) {
                     if (a.epoch != b.epoch) return a.epoch < b.epoch;
                     if (a.tenant != b.tenant) return a.tenant < b.tenant;
                     return a.stage < b.stage;
                   });
  out.total_requests = total;
  out.fleet_violation_rate =
      total > 0 ? static_cast<double>(violations) / static_cast<double>(total)
                : 0.0;
  out.fleet_mean_cpu_mc =
      total > 0 ? cpu_total / static_cast<double>(total) : 0.0;
  if (stream) {
    out.fleet_p50 = total > 0 ? out.fleet_hist.percentile(50.0) : 0.0;
    out.fleet_p99 = total > 0 ? out.fleet_hist.percentile(99.0) : 0.0;
  } else {
    out.fleet_p50 = out.fleet_e2e.percentile(50.0);
    out.fleet_p99 = out.fleet_e2e.percentile(99.0);
  }
  return out;
}

FleetResult run_fleet(const FleetConfig& config) {
  validate_fleet(config);
  const std::size_t n = config.tenants.size();
  log_info("fleet: ", n, " tenants on ", config.shards, " shards, ",
           config.processes, " processes, epoch_s=", config.epoch_s,
           ", seed=", config.seed,
           config.stream_metrics ? ", streaming merge" : "",
           config.chaos.enabled() ? ", chaos on" : "");

  // Self-profiling is always on: it is pure cold-path wall-clock
  // bookkeeping (a handful of steady_clock reads per epoch), reported in
  // the machine-dependent section alongside wall_seconds.
  PhaseProfiler prof;
  prof.begin("plan");
  FleetPlan plan = plan_fleet(config);

  const auto started = std::chrono::steady_clock::now();
  std::vector<FleetSliceOutcome> slices;
  if (config.processes <= 1) {
    LocalLink link(*plan.control);
    slices.push_back(execute_slice(config, plan, 0, n, link, &prof));
  } else {
    prof.begin("coordinate");
    slices = run_forked_slices(config, plan);
  }
  const auto finished = std::chrono::steady_clock::now();

  prof.begin("merge");
  FleetResult out = merge_fleet_slices(config, std::move(slices));
  out.wall_seconds =
      std::chrono::duration<double>(finished - started).count();
  if (plan.chaos_eng) {
    out.chaos_enabled = true;
    out.chaos = plan.chaos_eng->stats();
    out.chaos_log = plan.chaos_eng->log();
  }
  prof.end();
  out.obs.phases = prof.phases();
  return out;
}

std::vector<TenantSpec> make_tenant_mix(
    int tenants, int requests_each, double base_rate, ArrivalKind kind,
    bool mixed_kinds, const std::vector<std::string>& policies) {
  require(tenants >= 1, "tenant mix needs >= 1 tenant");
  require(requests_each >= 1, "tenant mix needs >= 1 request per tenant");
  require(base_rate > 0.0, "tenant mix needs a positive base rate");
  for (const auto& policy : policies) {
    require_fleet_policy(policy);
  }
  std::vector<TenantSpec> out;
  out.reserve(static_cast<std::size_t>(tenants));
  constexpr ArrivalKind kCycle[] = {ArrivalKind::Poisson, ArrivalKind::Mmpp,
                                    ArrivalKind::Diurnal};
  for (int i = 0; i < tenants; ++i) {
    TenantSpec t;
    t.workload = (i % 2 == 0) ? "ia" : "va";
    t.name = t.workload + "-" + std::to_string(i);
    t.requests = requests_each;
    t.size_mc = 1600 + 100 * (i % 5);
    if (!policies.empty()) {
      t.policy = policies[static_cast<std::size_t>(i) % policies.size()];
    }
    t.arrivals.kind = mixed_kinds ? kCycle[i % 3] : kind;
    t.arrivals.rate = base_rate * (0.8 + 0.05 * static_cast<double>(i % 8));
    t.arrivals.burst_rate = 3.0 * t.arrivals.rate;
    t.arrivals.period_s = 300.0 + 60.0 * static_cast<double>(i % 4);
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace janus
