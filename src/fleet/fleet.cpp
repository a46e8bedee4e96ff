#include "fleet/fleet.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>
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

/// What plan time fixes per tenant (shard-independent); block set-up
/// builds the tenant's RunConfig from it on the shard threads.
struct TenantSetup {
  /// Points into the immutable workload catalog (workload_by_name).
  const WorkloadSpec* workload = nullptr;
  /// Chain length, recorded once at plan time: the barrier loop, chaos
  /// preemption and the worker pipes read it every epoch.
  std::size_t stages = 0;
  /// The spec's arrival process, or its chaos flash rewrite.
  const ArrivalSpec* arrivals = nullptr;
  /// Co-location source: frozen on the static path, shifted at every
  /// barrier on the live path.
  EpochFeed* feed = nullptr;
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

/// The shard-independent plan: catalog artifacts, per-tenant set-ups,
/// and the control plane's plan-time packing.  Built once; forked worker
/// processes inherit it copy-on-write, so the synthesis cost is paid once
/// no matter the process count.
struct FleetPlan {
  std::unique_ptr<PolicyCatalog> own_catalog;
  PolicyCatalog* catalog = nullptr;
  std::unique_ptr<ControlPlane> control;
  std::unique_ptr<ChaosEngine> chaos_eng;
  std::vector<TenantSetup> setups;
  /// Arrival specs rewritten by chaos flash windows (one per tenant when
  /// chaos is on, else empty).
  std::vector<ArrivalSpec> flashed;
};

FleetPlan plan_fleet(const FleetConfig& config) {
  const std::size_t n = config.tenants.size();
  FleetPlan plan;
  // One policy catalog serves every tenant: profiles and hints bundles are
  // synthesized once per (workload, policy) by plan_sizes() below, before
  // any shard thread or worker process exists, so the shard threads'
  // make_policy() calls at block set-up are pure lookups.
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
  // Plan sizes and pod counts are computed once per tenant class (policy,
  // workload, SLO, concurrency, fixed allocation, long-run rate); packing
  // still runs per tenant, in tenant order.
  struct PlanClass {
    const std::vector<Millicores>* sizes = nullptr;
    std::vector<int> pods;
  };
  std::map<std::tuple<std::string, const WorkloadSpec*, Seconds, Concurrency,
                      Millicores, double>,
           PlanClass>
      classes;
  plan.setups.resize(n);
  if (plan.chaos_eng) plan.flashed.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    const TenantSpec& spec = config.tenants[t];
    require(spec.requests > 0, "tenant needs >= 1 request");
    require(spec.contention_alpha >= 0.0,
            "tenant contention alpha must be >= 0");
    require_fleet_policy(spec.policy);
    // The fleet has no closed-loop tenants, and a bad arrival spec must
    // fail here, not as NaN inside the pod estimate or as a throw on a
    // shard thread.
    validate_arrivals(spec.arrivals);
    TenantSetup& setup = plan.setups[t];
    setup.workload = &workload_by_name(spec.workload);
    setup.stages = setup.workload->chain_models().size();
    const Seconds slo = tenant_slo(spec, *setup.workload);
    // Flash crowds rewrite the arrival spec at plan time (the window must
    // live inside the arrival process).  The pod plan below deliberately
    // keeps using mean_rate(), which excludes the window: the crowd is a
    // transient the capacity plan does not see coming.
    setup.arrivals = &spec.arrivals;
    if (plan.chaos_eng) {
      plan.flashed[t] = plan.chaos_eng->apply_flash(t, spec.arrivals);
      setup.arrivals = &plan.flashed[t];
    }

    // Steady-state pods per stage (Little's law over the arrival process's
    // long-run rate) at the policy's plan-time allocation seed the control
    // plane's packing; its feed becomes the tenant's co-location source.
    const double rate = spec.arrivals.mean_rate();
    const auto key =
        std::make_tuple(spec.policy, setup.workload, slo, spec.concurrency,
                        spec.policy == "fixed" ? spec.size_mc : 0, rate);
    auto it = classes.find(key);
    if (it == classes.end()) {
      PlanClass cls;
      cls.sizes = &plan.catalog->plan_sizes(spec.policy, *setup.workload, slo,
                                            spec.concurrency, spec.size_mc);
      const auto& models = setup.workload->chain_models();
      for (std::size_t s = 0; s < models.size(); ++s) {
        const Seconds stage_s = models[s].exec_time((*cls.sizes)[s],
                                                    spec.concurrency, 1.0, 1.0);
        cls.pods.push_back(
            std::max(1, static_cast<int>(std::ceil(rate * stage_s))));
      }
      it = classes.emplace(key, std::move(cls)).first;
    }
    setup.feed = &plan.control->plan_tenant(it->second.pods, *it->second.sizes);
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
  /// per fleet tenant.  Called only on the live path.
  virtual bool exchange(bool local_pending,
                        const std::vector<std::vector<int>>& local,
                        std::vector<std::vector<int>>& full) = 0;
};

/// Single-process: the slice is the fleet, so the exchange is the
/// in-process break check plus an identity copy (row capacity is reused).
class LocalLink final : public BarrierLink {
 public:
  bool exchange(bool local_pending, const std::vector<std::vector<int>>& local,
                std::vector<std::vector<int>>& full) override {
    if (!local_pending) return false;
    full = local;
    return true;
  }
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
/// Both byte buffers are reused across barriers.
class PipeLink final : public BarrierLink {
 public:
  PipeLink(int cmd_fd, int obs_fd, const std::vector<int>& stages)
      : cmd_fd_(cmd_fd), obs_fd_(obs_fd), stages_(&stages) {
    for (int s : stages) full_ints_ += static_cast<std::size_t>(s);
  }

  bool exchange(bool local_pending, const std::vector<std::vector<int>>& local,
                std::vector<std::vector<int>>& full) override {
    out_.clear();
    out_.u8(local_pending ? 1 : 0);
    for (const auto& row : local) {
      for (int v : row) out_.i32(v);
    }
    write_all(obs_fd_, out_.bytes().data(), out_.bytes().size());
    std::uint8_t cmd = 0;
    read_all(cmd_fd_, &cmd, 1);
    if (cmd == 'S') return false;
    require(cmd == 'C', "fleet worker: unknown barrier command");
    in_.resize(full_ints_ * 4);
    read_all(cmd_fd_, in_.data(), in_.size());
    codec::ByteReader r(in_.data(), in_.size());
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
  const std::vector<int>* stages_;  // per-tenant stage counts, all tenants
  std::size_t full_ints_ = 0;       // entries of the full matrix
  codec::ByteWriter out_;
  std::vector<std::uint8_t> in_;
};

// ---------------------------------------------------------------------------

/// Tenants per engine block, the one unit of per-tenant work: a shard sets
/// up, runs, folds and releases its blocks in turn, so only one block's
/// calendar, platforms, request slots and logs are cache-hot at a time.
/// Sweep on a 4-core VM, median of 5 janus_cli runs of the three perfbench
/// fleets: seconds in the simulate phase (coordinate for huge-streamed, 2
/// processes) and huge-streamed peak RSS in MiB.  One engine per shard
/// measured 0.92 / 0.79 / 1.31 s and 94.7 MiB.
///   tenants/block   long-streams  many-tenants-live  huge-streamed  RSS
///   16              0.61          0.40               0.59           101.6
///   32              0.68          0.47               0.66           100.7
///   64              0.63          0.46               0.73            99.2
///   128             0.63          0.43               0.70            98.0
/// Time is flat within run-to-run spread from 16 to 128 while every block
/// adds an engine and a request pool, so RSS climbs as blocks shrink; 64
/// is the smallest block that kept peak RSS within 5% of one engine.
/// (Measured when a 4096-tenant wave held all of its blocks at once.)
constexpr std::size_t kBlockTenants = 64;

/// One engine block's simulator state: the engine and request pool its
/// tenants share, and one slot per tenant for platform, policy, request
/// log, hook counters and trace ring.  The static path keeps one per shard
/// and reloads it block after block — every container keeps its storage,
/// and platforms are reset in place — while the live path keeps one per
/// block alive across barriers.
struct Block {
  RequestPool pool;  // before the engine: pending closures point into it
  SimEngine engine;
  std::size_t lo = 0;  // fleet tenants [lo, hi) currently loaded
  std::size_t hi = 0;
  std::vector<std::unique_ptr<Platform>> platforms;
  std::vector<std::unique_ptr<SizingPolicy>> policies;
  std::vector<RunResult> results;
  std::vector<ObsCounters> counters;
  std::vector<TraceRing> rings;
  std::vector<char> folded;
};

/// What one shard's folds accumulate: integer tallies, histogram counts
/// and maxima only, so combining shards in any order gives the same bits.
struct ShardFold {
  Histogram hist{0.0, 1.0, 1};
  ObsCounters counters;
  std::uint64_t requests = 0;
  std::uint64_t violations = 0;
  std::uint64_t requeued = 0;
  std::uint64_t events = 0;
  Seconds sim_end = 0.0;
};

/// Executes tenants [lo, hi) against the (already planned) control plane
/// and folds their metrics into a slice outcome.  This is the one
/// execution path: run_fleet's single-process mode runs it over the whole
/// fleet with a LocalLink, forked workers run it over their range with a
/// PipeLink.  Block set-up, simulation and the per-tenant fold all run on
/// the shard threads; the caller's plan phase covers the live path's
/// initial set-up, and one simulate entry per epoch covers the rest
/// (the static path has exactly one).
FleetSliceOutcome execute_slice(const FleetConfig& config, FleetPlan& plan,
                                std::size_t lo, std::size_t hi,
                                BarrierLink& link, PhaseProfiler* prof) {
  ControlPlane& control = *plan.control;
  ChaosEngine* chaos_eng = plan.chaos_eng.get();
  const bool stream = config.stream_metrics;
  const bool live = control.live();
  const std::size_t n = hi - lo;
  const auto shards = static_cast<std::size_t>(config.shards);
  // The slice splits into contiguous, near-equal blocks (slice tenant i ->
  // block i*B/n), B a multiple of the shard count so block b runs on shard
  // b % shards and the shards stay balanced.  A tenant's results do not
  // depend on which tenants share its engine, so the block layout cannot
  // show in any output.
  const std::size_t round = shards * kBlockTenants;
  const std::size_t blocks = shards * ((n + round - 1) / round);
  const auto first = [lo, n, blocks](std::size_t b) {
    return lo + (b * n + blocks - 1) / blocks;
  };

  FleetSliceOutcome out;
  out.lo = lo;
  out.hi = hi;
  out.stream = stream;
  out.fleet_seed = config.seed;
  out.slice_hist = Histogram(0.0, config.hist_max_s, config.hist_bins);
  if (!stream) out.tenants.resize(n);
  // Floating-point sums stay per tenant and are added in tenant order at
  // the end, so no fold order or block layout can re-associate them; the
  // spans of each block are concatenated in block (= tenant) order.
  std::vector<double> tenant_cpu(n, 0.0);
  std::vector<std::vector<SpanRecord>> block_spans(
      config.obs.trace ? blocks : 0);
  std::vector<ShardFold> shard_folds(shards);
  for (ShardFold& acc : shard_folds) acc.hist = out.slice_hist;
  // Live path only: barrier observations (one row per slice tenant,
  // overwritten every epoch) and the timeline's per-tenant SLO cursor over
  // the append-only request logs.
  std::vector<std::vector<int>> observed;
  std::vector<std::size_t> slo_cursor;
  std::vector<std::uint64_t> slo_violations;
  if (live) {
    observed.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      observed[i].resize(plan.setups[lo + i].stages);
    }
    slo_cursor.assign(n, 0);
    slo_violations.assign(n, 0);
  }

  std::vector<EngineObs> engine_obs(shards);
  std::vector<Block> stores(live ? blocks : shards);
  for (std::size_t k = 0; k < stores.size(); ++k) {
    // One occupancy gauge per shard, written only by the shard's thread.
    if (config.obs.enabled()) stores[k].engine.set_obs(&engine_obs[k % shards]);
  }
  const auto block_of = [&](std::size_t t) -> Block& {
    const std::size_t b = (t - lo) * blocks / n;
    return stores[live ? b : b % shards];
  };

  // What every tenant's RunConfig shares; each shard copies it once.
  RunConfig base_rc;
  base_rc.colocation_is_default = false;
  // The fleet merge reads only the flat e2e/cpu/violated columns, so
  // per-stage detail stays off — at six-figure tenant counts the detail
  // columns would dominate peak RSS for nothing.
  base_rc.record_stage_detail = false;
  base_rc.trace_sample_every = config.obs.sample_every;

  // Loads block b's tenants into `blk` and schedules their request streams
  // on its engine.  The catalog is only read here (plan_fleet built every
  // artifact), so shards set up concurrently.
  const auto set_up = [&](Block& blk, std::size_t b, RunConfig& rc) {
    blk.lo = first(b);
    blk.hi = first(b + 1);
    const std::size_t m = blk.hi - blk.lo;
    if (blk.platforms.size() < m) {
      blk.platforms.resize(m);
      blk.policies.resize(m);
      blk.results.resize(m);
      blk.counters.resize(m);
      blk.folded.resize(m);
    }
    if (config.obs.trace) {
      // Reserved first: serve_workload keeps a pointer to each ring.
      blk.rings.clear();
      blk.rings.reserve(m);
    }
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t t = blk.lo + j;
      const TenantSetup& setup = plan.setups[t];
      const TenantSpec& spec = config.tenants[t];
      rc.seed = tenant_seed(config.seed, t);
      PlatformConfig pc = config.platform;
      pc.seed = rc.seed ^ 0x9e3779b97f4a7c15ULL;
      const std::vector<FunctionModel>& models =
          setup.workload->chain_models();
      std::unique_ptr<Platform>& platform = blk.platforms[j];
      if (platform) {
        platform->reset(pc, models, rc.interference);
      } else {
        platform = std::make_unique<Platform>(blk.engine, pc, models,
                                              rc.interference);
      }
      blk.counters[j] = ObsCounters{};
      if (config.obs.enabled()) platform->set_obs(&blk.counters[j]);
      rc.slo = tenant_slo(spec, *setup.workload);
      rc.concurrency = spec.concurrency;
      rc.requests = spec.requests;
      // Trace replay carries its own rhythm: the open-loop gate just needs
      // a positive rate (the process ignores it), so use the trace's mean.
      rc.open_loop_rate = spec.arrivals.kind == ArrivalKind::Trace
                              ? spec.arrivals.mean_rate()
                              : spec.arrivals.rate;
      rc.arrivals = *setup.arrivals;
      rc.colocation_provider = setup.feed;
      if (config.obs.trace) {
        blk.rings.emplace_back(config.obs.ring_capacity);
        rc.trace_ring = &blk.rings.back();
        rc.trace_tenant = static_cast<std::uint32_t>(t);
      }
      std::unique_ptr<SizingPolicy> policy = plan.catalog->make_policy(
          spec.policy, *setup.workload, rc.slo, spec.concurrency,
          spec.size_mc);
      if (spec.contention_alpha > 0.0) {
        policy = std::make_unique<ContentionAwarePolicy>(
            std::move(policy), *setup.feed, spec.contention_alpha,
            plan.catalog->config().kmax);
      }
      blk.policies[j] = std::move(policy);
      blk.results[j] = RunResult{};
      blk.folded[j] = 0;
      serve_workload(blk.engine, blk.pool, *platform, *setup.workload,
                     *blk.policies[j], rc, blk.results[j]);
    }
  };

  // The per-tenant fold: one scan of the request log, the counter fold,
  // the span drain; then the log and the policy are released.  Streaming
  // live runs fold a tenant at the end of the epoch it completes in, every
  // other run once its block has drained.
  const auto fold = [&](Block& blk, std::size_t j, ShardFold& acc) {
    const std::size_t t = blk.lo + j;
    const std::size_t i = t - lo;
    const RequestLog& log = blk.results[j].requests;
    std::uint64_t viol = 0;
    double cpu = 0.0;
    for (const auto& req : log) {
      viol += req.violated ? 1 : 0;
      cpu += req.cpu_mc;
      acc.hist.add(req.e2e);
    }
    acc.requests += log.size();
    acc.violations += viol;
    tenant_cpu[i] = cpu;
    if (live) {
      slo_cursor[i] = log.size();
      slo_violations[i] = viol;
    }
    if (!stream) {
      // The row's co-residency is read at slice end, off the shard
      // threads (the cluster's co-residency query uses shared scratch).
      TenantFold& row = out.tenants[i];
      row.requests = log.size();
      row.violations = viol;
      row.cpu_sum = cpu;
      row.e2e = blk.results[j].e2e_distribution();
      row.e2e_hist = Histogram(0.0, config.hist_max_s, config.hist_bins);
      for (double x : row.e2e.sorted_samples()) row.e2e_hist.add(x);
    }
    // Platform tallies + hook tallies + ring bookkeeping.
    const Platform& platform = *blk.platforms[j];
    ObsCounters tc = blk.counters[j];
    tc.invocations = platform.invocations();
    tc.cold_starts = platform.cold_starts();
    if (config.obs.trace) {
      tc.spans_recorded = blk.rings[j].recorded();
      tc.spans_dropped = blk.rings[j].dropped();
      blk.rings[j].drain_to(block_spans[(t - lo) * blocks / n]);
    }
    acc.counters.merge(tc);
    acc.requeued += platform.requeued();
    blk.results[j].requests.release();
    blk.policies[j].reset();
    blk.folded[j] = 1;
  };
  const auto fold_rest = [&](Block& blk, ShardFold& acc) {
    for (std::size_t j = 0; j < blk.hi - blk.lo; ++j) {
      if (blk.folded[j] == 0) fold(blk, j, acc);
    }
    acc.events += blk.engine.executed();
    // Makespan: per-tenant event times are grouping-independent, so the
    // max over engines is the same number at any shard or block layout.
    acc.sim_end = std::max(acc.sim_end, blk.engine.last_event_s());
  };

  // The static path runs each block to drain on its shard's one reused
  // Block, so live simulator state is shards x one block; the live path
  // only sets its blocks up here (inside the caller's plan phase).
  ThreadPool threads(shards);
  if (prof != nullptr && !live) prof->begin("simulate");
  threads.parallel_for(shards, [&](std::size_t s) {
    RunConfig rc = base_rc;
    for (std::size_t b = s; b < blocks; b += shards) {
      Block& blk = stores[live ? b : s];
      set_up(blk, b, rc);
      if (live) continue;
      blk.engine.run_until(kNoEpochs);
      fold_rest(blk, shard_folds[s]);
      blk.engine.restart();
    }
  });
  if (live) {
    std::vector<std::vector<int>> full;
    Seconds epoch_end = control.epoch_s();
    for (;;) {
      // Advance every block to the barrier, each shard its blocks in turn,
      // then publish the per-(tenant, stage) pod demand its Platforms
      // observed this epoch while the block is still hot.  A tenant
      // already folded away publishes zeros — exactly what its idle
      // platform would have reported.
      if (prof != nullptr) prof->begin("simulate");
      threads.parallel_for(shards, [&](std::size_t s) {
        for (std::size_t b = s; b < blocks; b += shards) {
          Block& blk = stores[b];
          blk.engine.run_until(epoch_end);
          for (std::size_t j = 0; j < blk.hi - blk.lo; ++j) {
            std::vector<int>& row = observed[blk.lo + j - lo];
            if (blk.folded[j] == 0) {
              blk.platforms[j]->take_peak_busy(row);
            } else {
              std::fill(row.begin(), row.end(), 0);
            }
          }
          if (!stream) continue;
          // Fold (and free) every tenant that finished its stream.
          for (std::size_t j = 0; j < blk.hi - blk.lo; ++j) {
            if (blk.folded[j] == 0 &&
                blk.results[j].requests.size() ==
                    static_cast<std::size_t>(
                        config.tenants[blk.lo + j].requests)) {
              fold(blk, j, shard_folds[s]);
              blk.platforms[j].reset();
            }
          }
        }
      });
      bool pending = false;
      for (const Block& blk : stores) {
        pending = pending || blk.engine.pending() > 0;
      }
      if (!link.exchange(pending, observed, full)) break;
      if (prof != nullptr) prof->begin("reconcile");
      // Chaos injection happens here — all shards paused, observations
      // already collected — so every injection is a pure function of the
      // (deterministic) barrier state and the chaos schedule.  Chaos
      // implies one unstreamed slice spanning the fleet (validated up
      // front), so every platform is still alive.
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
          Block& blk = block_of(t);
          Platform& platform = *blk.platforms[t - blk.lo];
          int killed = 0;
          for (std::size_t s = 0; s < plan.setups[t].stages; ++s) {
            const int busy = platform.busy_pods_for(static_cast<int>(s));
            const int want = static_cast<int>(
                std::ceil(config.chaos.preempt_fraction *
                          static_cast<double>(busy)));
            killed += platform.preempt_busy(static_cast<int>(s), want);
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
          for (Block& blk : stores) {
            for (std::size_t j = 0; j < blk.hi - blk.lo; ++j) {
              blk.platforms[j]->set_startup_multiplier(
                  barrier.storm_multiplier);
            }
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
          const std::size_t t = lo + i;
          const Block& blk = block_of(t);
          const RequestLog& log = blk.results[t - blk.lo].requests;
          for (; slo_cursor[i] < log.size(); ++slo_cursor[i]) {
            if (log[slo_cursor[i]].violated) ++slo_violations[i];
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
      epoch_end += control.epoch_s();
    }
    // Still inside the last simulate entry: every engine has drained.
    threads.parallel_for(shards, [&](std::size_t s) {
      for (std::size_t b = s; b < blocks; b += shards) {
        fold_rest(stores[b], shard_folds[s]);
      }
    });
  }

  std::uint64_t requeued = 0;
  for (const ShardFold& acc : shard_folds) {
    out.slice_hist.merge(acc.hist);
    out.counters.merge(acc.counters);
    out.requests_total += acc.requests;
    out.violations_total += acc.violations;
    out.events_executed += acc.events;
    out.sim_end_s = std::max(out.sim_end_s, acc.sim_end);
    requeued += acc.requeued;
  }
  for (double cpu : tenant_cpu) out.cpu_total += cpu;
  if (!stream) {
    for (std::size_t i = 0; i < n; ++i) {
      out.tenants[i].coresidency = control.tenant_coresidency(lo + i);
    }
  }
  for (const std::vector<SpanRecord>& spans : block_spans) {
    out.spans.insert(out.spans.end(), spans.begin(), spans.end());
  }
  for (const EngineObs& gauge : engine_obs) {
    out.peak_pending = std::max(out.peak_pending, gauge.peak_pending);
  }
  if (chaos_eng != nullptr) {
    chaos_eng->add_requeued(requeued);
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
        PipeLink link(cmd[0], data[1], stages);
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
  // barriers — workers run to drain and ship their blob).  The matrix and
  // both byte buffers are built once and reused at every barrier.
  if (plan.control->live()) {
    std::vector<std::vector<int>> full(n);
    for (std::size_t t = 0; t < n; ++t) {
      full[t].resize(static_cast<std::size_t>(stages[t]));
    }
    std::vector<std::uint8_t> buf;
    codec::ByteWriter cmd;
    for (;;) {
      bool any_pending = false;
      for (const WorkerProc& w : workers) {
        std::size_t ints = 0;
        for (std::size_t t = w.lo; t < w.hi; ++t) ints += full[t].size();
        buf.resize(1 + ints * 4);
        read_all(w.data_fd, buf.data(), buf.size());
        codec::ByteReader r(buf.data(), buf.size());
        any_pending = (r.u8() != 0) || any_pending;
        for (std::size_t t = w.lo; t < w.hi; ++t) {
          for (int& v : full[t]) v = r.i32();
        }
      }
      if (!any_pending) {
        const std::uint8_t stop = 'S';
        for (const WorkerProc& w : workers) write_all(w.cmd_fd, &stop, 1);
        break;
      }
      cmd.clear();
      cmd.u8('C');
      for (const auto& row : full) {
        for (int v : row) cmd.i32(v);
      }
      for (const WorkerProc& worker : workers) {
        write_all(worker.cmd_fd, cmd.bytes().data(), cmd.bytes().size());
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
     << ", \"nodes_removed\": " << nodes_removed
     << ", \"groups_resized\": " << groups_resized << "},\n";
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
    out.groups_resized += static_cast<std::uint64_t>(snap.groups_resized);
  }

  out.fleet_hist = Histogram(0.0, config.hist_max_s, config.hist_bins);
  double cpu_total = 0.0;
  std::size_t violations = 0;
  std::size_t total = 0;
  if (!stream) out.tenants.reserve(n);
  for (FleetSliceOutcome& slice : slices) {
    // The slice aggregates fold every request in both modes (the cpu sum
    // in tenant order, every addend integer-valued), so they are the fleet
    // totals with or without per-tenant rows.
    out.fleet_hist.merge(slice.slice_hist);
    total += static_cast<std::size_t>(slice.requests_total);
    violations += static_cast<std::size_t>(slice.violations_total);
    cpu_total += slice.cpu_total;
    if (!stream) {
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
  // Self-profiling is always on: it is pure cold-path wall-clock
  // bookkeeping (a handful of steady_clock reads per epoch), reported in
  // the machine-dependent section alongside wall_seconds.  The phases run
  // back to back from the first statement to the last, so they partition
  // wall_seconds.
  const auto started = std::chrono::steady_clock::now();
  PhaseProfiler prof;
  prof.begin("plan");
  validate_fleet(config);
  const std::size_t n = config.tenants.size();
  log_info("fleet: ", n, " tenants on ", config.shards, " shards, ",
           config.processes, " processes, epoch_s=", config.epoch_s,
           ", seed=", config.seed,
           config.stream_metrics ? ", streaming merge" : "",
           config.chaos.enabled() ? ", chaos on" : "");

  FleetResult out;
  {
    FleetPlan plan = plan_fleet(config);
    std::vector<FleetSliceOutcome> slices;
    if (config.processes <= 1) {
      LocalLink link;
      slices.push_back(execute_slice(config, plan, 0, n, link, &prof));
    } else {
      prof.begin("coordinate");
      slices = run_forked_slices(config, plan);
    }
    prof.begin("merge");
    out = merge_fleet_slices(config, std::move(slices));
    if (plan.chaos_eng) {
      out.chaos_enabled = true;
      out.chaos = plan.chaos_eng->stats();
      out.chaos_log = plan.chaos_eng->log();
    }
  }  // the plan is released inside the merge phase
  prof.end();
  out.obs.phases = prof.phases();
  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - started)
                         .count();
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
