// Per-layer probes for the traced run.
//
// Each probe replays one layer's public calls on the workload's own inputs
// (its tenant specs, warmed catalog, cluster and control config) from the
// outside, under a span, and reports a unit cost.  Nested layers are timed
// separately so self time can be derived by differencing: the engine runs
// inside the platform probe, which runs inside the runner probe.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "exp/runner.hpp"
#include "fleet/slice.hpp"
#include "hints/generator.hpp"
#include "sim/engine.hpp"
#include "sim/platform.hpp"

namespace perfbench {

using namespace janus;

namespace {

/// Evenly strided tenant sample of at most `cap` indices out of `n`.
std::vector<std::size_t> stride_sample(std::size_t n, std::size_t cap) {
  const std::size_t stride = std::max<std::size_t>(1, (n + cap - 1) / cap);
  std::vector<std::size_t> out;
  for (std::size_t t = 0; t < n; t += stride) out.push_back(t);
  return out;
}

Exploration exploration_of(const std::string& policy) {
  if (policy == "janus-") return Exploration::FixedP99;
  if (policy == "janus+") return Exploration::HeadAndNext;
  return Exploration::HeadOnly;
}

bool is_janus(const std::string& policy) {
  return policy == "janus" || policy == "janus-" || policy == "janus+";
}

/// Workload specs by name, built once per probe pass.
class SpecCache {
 public:
  const WorkloadSpec& get(const std::string& name) {
    auto it = specs_.find(name);
    if (it == specs_.end()) {
      it = specs_.emplace(name, workload_by_name(name)).first;
    }
    return it->second;
  }

 private:
  std::map<std::string, WorkloadSpec> specs_;
};

/// Per-tenant plan inputs, computed the way plan_fleet computes them.
struct TenantPlan {
  std::vector<int> stage_pods;
  std::vector<Millicores> stage_mc;
};

std::vector<TenantPlan> tenant_plans(const FleetConfig& config,
                                     const std::vector<PolicyClass>& classes,
                                     PolicyCatalog& catalog,
                                     SpecCache& specs) {
  std::vector<TenantPlan> plans(config.tenants.size());
  for (const PolicyClass& c : classes) {
    const WorkloadSpec& wl = specs.get(c.workload);
    const std::vector<FunctionModel> models = wl.chain_models();
    const std::vector<Millicores> mc =
        catalog.plan_sizes(c.policy, wl, c.slo, c.conc, c.fixed_mc);
    for (std::size_t t : c.members) {
      const double rate = config.tenants[t].arrivals.mean_rate();
      TenantPlan& p = plans[t];
      p.stage_mc = mc;
      for (std::size_t s = 0; s < models.size(); ++s) {
        const Seconds stage_s = models[s].exec_time(mc[s], c.conc, 1.0, 1.0);
        p.stage_pods.push_back(
            std::max(1, static_cast<int>(std::ceil(rate * stage_s))));
      }
    }
  }
  return plans;
}

/// The RunConfig run_fleet gives tenant t (plan_fleet, minus chaos flash
/// windows, which no benchmark workload arms).
RunConfig tenant_run_config(const FleetConfig& config, std::size_t t,
                            Seconds slo, const CoLocationProvider* feed) {
  const TenantSpec& spec = config.tenants[t];
  RunConfig rc;
  rc.slo = slo;
  rc.concurrency = spec.concurrency;
  rc.requests = spec.requests;
  rc.seed = tenant_seed(config.seed, t);
  rc.open_loop_rate = spec.arrivals.rate;
  rc.arrivals = spec.arrivals;
  rc.platform = config.platform;
  rc.platform.seed = rc.seed ^ 0x9e3779b97f4a7c15ULL;
  rc.colocation_is_default = false;
  rc.colocation_provider = feed;
  rc.record_stage_detail = false;
  return rc;
}

/// Self-rescheduling engine event: keeps the calendar at a fixed depth
/// while `left` events remain.
struct Churn {
  SimEngine* engine;
  Rng* rng;
  std::uint64_t* left;
  double rate;
  void operator()() const {
    if (*left == 0) return;
    --*left;
    engine->schedule_after(rng->exponential(rate), *this);
  }
};

/// Open-loop invocation ladder for the platform probe: each arrival
/// invokes the next chain stage and schedules the following arrival, so
/// the calendar stays as shallow as a tenant's.  With no platform, each
/// arrival schedules a dummy completion instead (the engine baseline).
struct InvokeLadder {
  static constexpr int kInvocations = 60000;
  SimEngine* engine;
  Platform* platform;  // null = engine baseline
  const std::vector<Millicores>* sizes;
  Concurrency conc;
  int issued = 0;
  int done = 0;

  struct Arrive {
    InvokeLadder* ladder;
    void operator()() const { ladder->arrive(); }
  };

  void arrive() {
    const int stages = static_cast<int>(sizes->size());
    const int fn = issued % stages;
    int* counter = &done;
    if (platform != nullptr) {
      platform->invoke(
          fn, (*sizes)[static_cast<std::size_t>(fn)], conc, 1.0, 1.0,
          [counter](const InvocationOutcome&) { ++*counter; });
    } else {
      engine->schedule_after(0.5, [counter] { ++*counter; });
    }
    if (++issued < kInvocations) {
      engine->schedule_after(1.0 / (10.0 * stages), Arrive{this});
    }
  }

  /// Runs the whole ladder; returns host seconds.
  double run() {
    engine->schedule_after(0.0, Arrive{this});
    const auto t0 = Clock::now();
    engine->run();
    return seconds_since(t0);
  }
};

/// Volume-weighted mean of per-class unit costs.
struct Weighted {
  double sum = 0.0;
  double weight = 0.0;
  void add(double value, double w) {
    sum += value * w;
    weight += w;
  }
  double mean() const { return weight > 0.0 ? sum / weight : 0.0; }
};

}  // namespace

std::vector<Metric> probe_setup(PolicyCatalog& catalog,
                                const std::vector<PolicyClass>& classes,
                                SpanLog& spans, int parent) {
  SpecCache specs;
  double profiler_s = 0.0;
  double hints_s = 0.0;
  std::set<std::pair<std::string, Concurrency>> profiled;
  std::set<std::tuple<std::string, Concurrency, int>> bundled;
  for (const PolicyClass& c : classes) {
    const WorkloadSpec& wl = specs.get(c.workload);
    if (c.policy == "fixed") continue;  // needs no artifacts
    if (profiled.emplace(c.workload, c.conc).second) {
      const int id = spans.begin("profiler.profiles " + c.workload, parent);
      (void)catalog.profiles(wl, c.conc);
      profiler_s += spans.end(id);
    }
    if (is_janus(c.policy) &&
        bundled
            .emplace(c.workload, c.conc,
                     static_cast<int>(exploration_of(c.policy)))
            .second) {
      const int id =
          spans.begin("hints.bundle " + c.workload + " " + c.policy, parent);
      (void)catalog.bundle(wl, c.conc, exploration_of(c.policy));
      hints_s += spans.end(id);
    }
  }
  const int id = spans.begin("policies.warm", parent);
  warm_catalog(catalog, classes);
  spans.end(id);
  return {{"profiler.s", "s", profiler_s},
          {"hints.s", "s", hints_s},
          {"hints.bundles", "count",
           static_cast<double>(catalog.stats().bundles_built)}};
}

std::vector<Metric> probe_layers(const ProbeInputs& in, SpanLog& spans,
                                 int parent,
                                 std::vector<std::string>& failures) {
  const FleetConfig& config = *in.config;
  const std::vector<PolicyClass>& classes = *in.classes;
  PolicyCatalog& catalog = *in.catalog;
  const FleetResult& result = in.traced->result;
  const std::size_t n = config.tenants.size();
  SpecCache specs;
  std::vector<Metric> m;

  // ---- policies: per-tenant plan_sizes and make_policy on the warmed
  // catalog (a strided sample covers every class).
  {
    const int id = spans.begin("policies", parent);
    const std::vector<std::size_t> sample = stride_sample(n, 4000);
    std::vector<const WorkloadSpec*> wl(sample.size());
    std::vector<Seconds> slo(sample.size());
    for (std::size_t i = 0; i < sample.size(); ++i) {
      wl[i] = &specs.get(config.tenants[sample[i]].workload);
      slo[i] = tenant_slo(config.tenants[sample[i]]);
    }
    int sid = spans.begin("policies.plan_sizes", id);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const TenantSpec& spec = config.tenants[sample[i]];
      (void)catalog.plan_sizes(spec.policy, *wl[i], slo[i], spec.concurrency,
                               spec.size_mc);
    }
    const double plan_s = spans.end(sid);
    std::vector<std::unique_ptr<SizingPolicy>> made;
    made.reserve(sample.size());
    sid = spans.begin("policies.make_policy", id);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const TenantSpec& spec = config.tenants[sample[i]];
      made.push_back(catalog.make_policy(spec.policy, *wl[i], slo[i],
                                         spec.concurrency, spec.size_mc));
    }
    const double make_s = spans.end(sid);
    spans.end(id);
    const double k = 1e6 / static_cast<double>(sample.size());
    m.push_back({"policies.plan_sizes_us", "us", plan_s * k});
    m.push_back({"policies.make_policy_us", "us", make_s * k});
  }

  // ---- control: plan-time packing of every tenant into the workload's
  // cluster, then reconcile barriers with the plan pods as observations.
  const std::vector<TenantPlan> plans =
      tenant_plans(config, classes, catalog, specs);
  ControlPlane plane(config.cluster,
                     ControlConfig{config.epoch_s, config.autoscale});
  std::vector<EpochFeed*> feeds(n);
  {
    const int id = spans.begin("control.plan_tenant", parent);
    for (std::size_t t = 0; t < n; ++t) {
      feeds[t] = &plane.plan_tenant(plans[t].stage_pods, plans[t].stage_mc);
    }
    m.push_back({"control.plan_tenant_us", "us",
                 spans.end(id) * 1e6 / static_cast<double>(n)});
  }

  // ---- arrivals: make_arrivals(spec)->next per arrival.
  double arrivals_ns = 0.0;
  {
    const int id = spans.begin("arrivals.next", parent);
    std::size_t total = 0;
    double busy_s = 0.0;
    const std::size_t per_tenant =
        static_cast<std::size_t>(config.tenants[0].requests);
    for (std::size_t t : stride_sample(n, std::max<std::size_t>(
                                              1, 400000 / per_tenant))) {
      const TenantSpec& spec = config.tenants[t];
      std::unique_ptr<ArrivalProcess> proc = make_arrivals(spec.arrivals);
      Rng rng(tenant_seed(config.seed, t));
      Seconds now = 0.0;
      const auto t0 = Clock::now();
      for (int i = 0; i < spec.requests; ++i) now = proc->next(now, rng);
      busy_s += seconds_since(t0);
      total += static_cast<std::size_t>(spec.requests);
      if (!(now > 0.0)) failures.push_back("arrival sequence did not advance");
    }
    spans.end(id);
    arrivals_ns = busy_s * 1e9 / static_cast<double>(total);
    m.push_back({"arrivals.ns", "ns", arrivals_ns});
  }

  // ---- policy sizing: on_request_start + size_for_stage over
  // draw_requests draws, per class, weighted by the class's request volume.
  double size_ns = 0.0;
  {
    const int id = spans.begin("policy.size", parent);
    Weighted w;
    for (const PolicyClass& c : classes) {
      const WorkloadSpec& wl = specs.get(c.workload);
      const std::vector<FunctionModel> models = wl.chain_models();
      const std::size_t t = c.members.front();
      RunConfig rc = tenant_run_config(config, t, c.slo, feeds[t]);
      rc.requests = std::clamp(rc.requests, 2000, 4000);
      const std::vector<RequestDraw> draws = draw_requests(wl, rc);
      std::unique_ptr<SizingPolicy> policy =
          catalog.make_policy(c.policy, wl, c.slo, c.conc, c.fixed_mc);
      std::int64_t checksum = 0;
      const auto t0 = Clock::now();
      for (const RequestDraw& d : draws) {
        policy->on_request_start(d);
        Seconds elapsed = 0.0;
        for (std::size_t s = 0; s < models.size(); ++s) {
          const Millicores k = policy->size_for_stage(s, elapsed, d);
          checksum += k;
          elapsed += models[s].exec_time(k, c.conc, d.ws[s],
                                         d.interference[s]);
        }
      }
      const double per_req =
          seconds_since(t0) * 1e9 / static_cast<double>(draws.size());
      if (checksum <= 0) failures.push_back("policy sized a stage at 0 mc");
      w.add(per_req, static_cast<double>(c.members.size()));
    }
    spans.end(id);
    size_ns = w.mean();
    m.push_back({"policy.size_ns", "ns", size_ns});
  }

  // ---- engine: schedule/run churn at the workload's calendar depth (one
  // pending arrival per tenant sharing an engine; the static streaming
  // path builds engines a wave of 4096 tenants at a time).
  double event_ns = 0.0;
  {
    const int id = spans.begin("engine.churn", parent);
    std::size_t per_engine =
        n / static_cast<std::size_t>(config.processes * config.shards);
    if (config.stream_metrics && config.epoch_s == kNoEpochs) {
      per_engine = std::min<std::size_t>(
          per_engine, 4096 / static_cast<std::size_t>(config.shards));
    }
    per_engine = std::max<std::size_t>(1, per_engine);
    SimEngine engine;
    Rng rng(config.seed);
    std::uint64_t left = 1000000;
    const double rate = 10.0 * static_cast<double>(per_engine);
    for (std::size_t i = 0; i < per_engine; ++i) {
      engine.schedule_at(rng.exponential(rate), Churn{&engine, &rng, &left,
                                                      10.0});
    }
    const auto t0 = Clock::now();
    engine.run();
    event_ns = seconds_since(t0) * 1e9 / static_cast<double>(engine.executed());
    spans.end(id);
    if (left != 0) failures.push_back("engine churn stopped early");
    m.push_back({"engine.event_ns", "ns", event_ns});
  }

  // ---- platform: Platform::invoke to completion on its own engine, at
  // each workload's plan sizes, one stage per invocation in chain order.
  // The same arrival ladder with a dummy completion instead of the invoke
  // is the engine baseline; the difference is the platform's self time.
  double invoke_ns = 0.0;
  {
    const int id = spans.begin("platform.invoke", parent);
    Weighted total;
    Weighted self;
    std::map<std::string, std::size_t> tenants_of;
    std::map<std::string, const PolicyClass*> first_class;
    for (const PolicyClass& c : classes) {
      tenants_of[c.workload] += c.members.size();
      first_class.emplace(c.workload, &c);
    }
    for (const auto& [name, c] : first_class) {
      const WorkloadSpec& wl = specs.get(name);
      const std::vector<FunctionModel> models = wl.chain_models();
      SimEngine engine;
      PlatformConfig pc = config.platform;
      pc.seed = config.seed;
      Platform platform(engine, pc, models,
                        InterferenceModel(workload_interference_params()));
      const std::vector<Millicores>& sizes = plans[c->members.front()].stage_mc;
      InvokeLadder ladder{&engine, &platform, &sizes, c->conc};
      const double probe_s = ladder.run();
      InvokeLadder baseline{&engine, nullptr, &sizes, c->conc};
      const double base_s = baseline.run();
      if (ladder.done != InvokeLadder::kInvocations ||
          baseline.done != InvokeLadder::kInvocations) {
        failures.push_back("platform lost invocations in the invoke probe");
      }
      const double volume = static_cast<double>(tenants_of[name]);
      total.add(probe_s * 1e9 / InvokeLadder::kInvocations, volume);
      self.add((probe_s - base_s) * 1e9 / InvokeLadder::kInvocations, volume);
    }
    spans.end(id);
    invoke_ns = total.mean();
    m.push_back({"platform.invoke_ns", "ns", invoke_ns});
    m.push_back({"platform.self_ns", "ns", self.mean()});
  }

  // ---- runner: run_workload on the first tenants of each class (at least
  // 2000 requests per class), with the tenant's own RunConfig and feed.
  {
    const int id = spans.begin("runner.run_workload", parent);
    Weighted ns;
    Weighted allocs;
    for (const PolicyClass& c : classes) {
      const WorkloadSpec& wl = specs.get(c.workload);
      double busy_s = 0.0;
      std::uint64_t reqs = 0;
      std::uint64_t alloc_n = 0;
      for (std::size_t t : c.members) {
        std::unique_ptr<SizingPolicy> policy =
            catalog.make_policy(c.policy, wl, c.slo, c.conc, c.fixed_mc);
        const RunConfig rc = tenant_run_config(config, t, c.slo, feeds[t]);
        const std::uint64_t a0 = heap_allocations();
        const auto t0 = Clock::now();
        const RunResult r = run_workload(wl, *policy, rc);
        busy_s += seconds_since(t0);
        alloc_n += heap_allocations() - a0;
        reqs += r.requests.size();
        if (r.requests.size() != static_cast<std::size_t>(rc.requests)) {
          failures.push_back("run_workload served fewer requests than asked");
        }
        if (reqs >= 2000) break;
      }
      const double volume = static_cast<double>(c.members.size());
      ns.add(busy_s * 1e9 / static_cast<double>(reqs), volume);
      allocs.add(static_cast<double>(alloc_n) / static_cast<double>(reqs),
                 volume);
    }
    spans.end(id);
    const double chain_invocations =
        static_cast<double>(result.obs.counters.invocations) /
        static_cast<double>(result.total_requests);
    m.push_back({"runner.req_ns", "ns", ns.mean()});
    m.push_back({"runner.self_ns", "ns",
                 ns.mean() - arrivals_ns - size_ns -
                     chain_invocations * invoke_ns});
    m.push_back({"runner.allocs_per_req", "count", allocs.mean()});
  }
  const double fleet_requests = static_cast<double>(result.total_requests);
  m.push_back({"fleet.allocs_per_req", "count",
               static_cast<double>(in.fleet_allocs) / fleet_requests});

  // ---- control: reconcile barriers.  The static workloads run none, so
  // they are costed on one barrier of a live plane with the same packing.
  double reconcile_ms = 0.0;
  {
    std::vector<std::vector<int>> observed(n);
    for (std::size_t t = 0; t < n; ++t) observed[t] = plans[t].stage_pods;
    std::unique_ptr<ControlPlane> live_plane;
    ControlPlane* target = &plane;
    Seconds epoch = config.epoch_s;
    if (!plane.live()) {
      epoch = 1.0;
      live_plane = std::make_unique<ControlPlane>(
          config.cluster, ControlConfig{epoch, config.autoscale});
      for (std::size_t t = 0; t < n; ++t) {
        live_plane->plan_tenant(plans[t].stage_pods, plans[t].stage_mc);
      }
      target = live_plane.get();
    }
    const int barriers = std::max(1, result.epochs);
    const int id = spans.begin("control.reconcile", parent);
    for (int b = 0; b < barriers; ++b) {
      target->reconcile(epoch * (b + 1), observed);
    }
    reconcile_ms = spans.end(id) * 1e3 / barriers;
    m.push_back({"control.reconcile_ms", "ms", reconcile_ms});
  }
  m.push_back({"control.epochs", "count", static_cast<double>(result.epochs)});
  m.push_back({"control.nodes_added", "count",
               static_cast<double>(result.nodes_added)});
  m.push_back({"cluster.overcommitted_pods", "count",
               static_cast<double>(result.overcommitted_pods)});
  m.push_back({"chaos.displaced_pods", "count",
               static_cast<double>(result.chaos.displaced_pods)});

  // ---- stats: the tenant-order fold of per-tenant e2e distributions and
  // histograms (empty on the streaming path, which folds as it runs).
  double merge_s = 0.0;
  {
    const int id = spans.begin("stats.merge", parent);
    EmpiricalDistribution e2e;
    Histogram hist(0.0, config.hist_max_s, config.hist_bins);
    double written = 0.0;
    for (const TenantResult& t : result.tenants) {
      e2e.merge(t.e2e);
      hist.merge(t.e2e_hist);
      written += static_cast<double>(e2e.size() + hist.bins());
    }
    merge_s = spans.end(id);
    if (!result.streamed && e2e.size() != result.total_requests) {
      failures.push_back("tenant e2e fold lost samples");
    }
    m.push_back({"stats.merge_s", "s", merge_s});
    m.push_back({"stats.merge_elems", "count", written});
  }

  // ---- slice codec: encode/decode a slice outcome rebuilt from the run.
  {
    FleetSliceOutcome slice;
    slice.lo = 0;
    slice.hi = n;
    slice.stream = result.streamed;
    slice.fleet_seed = config.seed;
    slice.requests_total = result.total_requests;
    slice.violations_total = static_cast<std::uint64_t>(std::llround(
        result.fleet_violation_rate * fleet_requests));
    slice.cpu_total = result.fleet_mean_cpu_mc * fleet_requests;
    slice.slice_hist = result.fleet_hist;
    for (const TenantResult& t : result.tenants) {
      TenantFold f;
      f.requests = static_cast<std::uint64_t>(t.requests);
      f.violations = static_cast<std::uint64_t>(
          std::llround(t.violation_rate * t.requests));
      f.cpu_sum = t.mean_cpu_mc * t.requests;
      f.coresidency = t.coresidency;
      f.e2e = t.e2e;
      f.e2e_hist = t.e2e_hist;
      slice.tenants.push_back(std::move(f));
    }
    slice.sim_end_s = result.sim_end_s;
    slice.counters = result.obs.counters;
    slice.events_executed = result.obs.events_executed;
    slice.epochs = result.epochs;
    slice.final_nodes = result.final_nodes;
    slice.cluster_utilization = result.cluster_utilization;
    slice.overcommitted_pods = result.overcommitted_pods;
    slice.epoch_log = result.epoch_log;
    const std::vector<std::uint8_t> blob = encode_slice(slice);
    if (encode_slice(decode_slice(blob)) != blob) {
      failures.push_back("slice codec round trip is not bit-exact");
    }
    const int kRounds = 3;
    const int id = spans.begin("slice.codec", parent);
    for (int r = 0; r < kRounds; ++r) {
      (void)decode_slice(encode_slice(slice));
    }
    m.push_back({"slice.bytes", "B", static_cast<double>(blob.size())});
    m.push_back({"slice.codec_us", "us", spans.end(id) * 1e6 / kRounds});
  }

  m.push_back({"fleet.host_req_per_s", "req/s",
               fleet_requests / in.traced->run_s});
  m.push_back({"fleet.proc_speedup", "x",
               in.one_process_run_s > 0.0
                   ? in.one_process_run_s / in.traced->run_s
                   : 1.0});
  m.push_back({"sim.events_per_req", "count",
               static_cast<double>(result.obs.events_executed) /
                   fleet_requests});
  m.push_back({"sim.cold_start_pct", "%",
               100.0 * static_cast<double>(result.obs.counters.cold_starts) /
                   static_cast<double>(result.obs.counters.invocations)});
  m.push_back({"sim.queued", "count",
               static_cast<double>(result.obs.counters.queued)});

  // ---- coverage: what the probes' unit costs predict for this run's
  // volume, against the CPU the run actually burned.
  const auto value = [&m](const std::string& name) {
    for (const Metric& x : m) {
      if (x.name == name) return x.value;
    }
    return 0.0;
  };
  const double predicted =
      static_cast<double>(n) *
          (value("policies.plan_sizes_us") + value("policies.make_policy_us") +
           value("control.plan_tenant_us")) *
          1e-6 +
      fleet_requests * value("runner.req_ns") * 1e-9 +
      result.epochs * reconcile_ms * 1e-3 + merge_s;
  m.push_back({"fleet.explained_pct", "%",
               100.0 * predicted / in.traced->cpu_s});
  m.push_back({"trace.overhead_pct", "%",
               100.0 * (in.traced->run_s / in.plain_run_s - 1.0)});
  return m;
}

}  // namespace perfbench
