// The benchmark's workload table, its FleetConfig and catalog set-up, and
// the span, timing and reference-task helpers shared by both run modes.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <functional>
#include <memory>
#include <map>
#include <sstream>
#include <tuple>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "fleet/chaos.hpp"

namespace perfbench {

using namespace janus;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = [] {
    std::vector<Workload> w;
    {
      // Few tenants, long open-loop streams: the request path dominates.
      Workload x;
      x.name = "long-streams";
      x.tenants = 240;
      x.requests = 4000;
      x.shards = 2;
      x.arrivals = "poisson";
      x.policies = {"janus",      "janus-",     "orion", "grandslam",
                    "grandslam+", "mean_based", "fixed"};
      w.push_back(x);
    }
    {
      // Ten thousand short tenants on the live control plane with node
      // failures: per-tenant plan work, ~30 reconcile barriers with
      // autoscale, and the exact merge.  Preemption and storms are left
      // out: they make the barrier count and p99 tail events of the seed.
      Workload x;
      x.name = "many-tenants-live";
      x.tenants = 10000;
      x.requests = 20;
      x.shards = 2;
      x.nodes = 64;
      x.arrivals = "mixed";
      x.policies = {"janus", "janus-", "orion", "grandslam+", "mean_based"};
      x.epoch_s = 0.25;
      x.autoscale = true;
      x.chaos = "failures";
      w.push_back(x);
    }
    {
      // Fifty thousand tenants through two forked workers and the
      // streaming histogram fold.
      Workload x;
      x.name = "huge-streamed";
      x.tenants = 50000;
      x.requests = 10;
      x.shards = 1;
      x.processes = 2;
      x.stream = true;
      x.nodes = 4;
      x.node_mc = 2000000000;
      x.arrivals = "poisson";
      x.policies = {"janus", "janus-", "orion", "grandslam+", "mean_based"};
      w.push_back(x);
    }
    return w;
  }();
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string cli_flags(const Workload& w) {
  std::ostringstream os;
  os << "--tenants " << w.tenants << " --requests " << w.requests
     << " --shards " << w.shards;
  if (w.processes != 1) os << " --processes " << w.processes;
  if (w.stream) os << " --stream";
  const ClusterConfig defaults;
  if (w.nodes != defaults.nodes) os << " --nodes " << w.nodes;
  if (w.node_mc != defaults.node_capacity_mc) os << " --node-mc " << w.node_mc;
  os << " --arrivals " << w.arrivals << " --policy ";
  for (std::size_t i = 0; i < w.policies.size(); ++i) {
    os << (i == 0 ? "" : ",") << w.policies[i];
  }
  if (w.epoch_s != kNoEpochs) os << " --epoch-s " << w.epoch_s;
  if (w.autoscale) os << " --autoscale";
  if (!w.chaos.empty()) os << " --chaos " << w.chaos;
  return os.str();
}

FleetConfig make_fleet_config(const Workload& w, std::uint64_t seed) {
  FleetConfig config;
  const bool mixed = w.arrivals == "mixed";
  const ArrivalKind kind =
      mixed ? ArrivalKind::Poisson : arrival_kind_from_string(w.arrivals);
  // Base rate 10 req/s: the janus_cli fleet default.
  config.tenants =
      make_tenant_mix(w.tenants, w.requests, 10.0, kind, mixed, w.policies);
  config.shards = w.shards;
  config.processes = w.processes;
  config.stream_metrics = w.stream;
  config.seed = seed;
  config.cluster.nodes = w.nodes;
  config.cluster.node_capacity_mc = w.node_mc;
  config.epoch_s = w.epoch_s;
  config.autoscale.enabled = w.autoscale;
  if (!w.chaos.empty()) {
    config.chaos = chaos_config_from_spec(w.chaos);  // chaos seed stays 7
  }
  return config;
}

std::uint64_t tenant_seed(std::uint64_t fleet_seed, std::size_t tenant) {
  return SplitMix64(fleet_seed ^ (0x9e3779b97f4a7c15ULL * (tenant + 1)))
      .next();
}

Seconds tenant_slo(const TenantSpec& spec) {
  return spec.slo > 0.0
             ? spec.slo
             : workload_by_name(spec.workload).slo(spec.concurrency);
}

std::vector<PolicyClass> policy_classes(const FleetConfig& config) {
  std::map<std::tuple<std::string, std::string, Concurrency, Seconds,
                      Millicores>,
           std::size_t>
      index;
  std::vector<PolicyClass> classes;
  std::map<std::pair<std::string, Concurrency>, Seconds> slo_cache;
  for (std::size_t t = 0; t < config.tenants.size(); ++t) {
    const TenantSpec& spec = config.tenants[t];
    Seconds slo = spec.slo;
    if (slo <= 0.0) {
      const auto key = std::make_pair(spec.workload, spec.concurrency);
      auto it = slo_cache.find(key);
      if (it == slo_cache.end()) {
        it = slo_cache.emplace(key, tenant_slo(spec)).first;
      }
      slo = it->second;
    }
    const Millicores fixed = spec.policy == "fixed" ? spec.size_mc : 0;
    const auto key = std::make_tuple(spec.workload, spec.policy,
                                     spec.concurrency, slo, fixed);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, classes.size()).first;
      PolicyClass c;
      c.workload = spec.workload;
      c.policy = spec.policy;
      c.conc = spec.concurrency;
      c.slo = slo;
      c.fixed_mc = spec.size_mc;
      classes.push_back(std::move(c));
    }
    classes[it->second].members.push_back(t);
  }
  return classes;
}

void warm_catalog(PolicyCatalog& catalog,
                  const std::vector<PolicyClass>& classes) {
  std::map<std::string, WorkloadSpec> specs;
  for (const PolicyClass& c : classes) {
    auto it = specs.find(c.workload);
    if (it == specs.end()) {
      it = specs.emplace(c.workload, workload_by_name(c.workload)).first;
    }
    (void)catalog.make_policy(c.policy, it->second, c.slo, c.conc,
                              c.fixed_mc);
    (void)catalog.plan_sizes(c.policy, it->second, c.slo, c.conc,
                             c.fixed_mc);
  }
}

int SpanLog::begin(const std::string& name, int parent) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.t0_us = now_us();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::end(int id) {
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.t1_us = now_us();
  return (s.t1_us - s.t0_us) * 1e-6;
}

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

void SpanLog::write_chrome_trace(const std::string& path,
                                 const std::string& process) const {
  std::ofstream out(path);
  if (!out) throw_invalid("cannot open span file: " + path);
  out.precision(17);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\","
         "\"args\":{\"name\":\"" << process << "\"}}";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.t1_us < 0.0) continue;  // never closed (a probe threw)
    out << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"" << s.name
        << "\",\"ts\":" << s.t0_us << ",\"dur\":" << (s.t1_us - s.t0_us)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  if (!out.good()) throw_invalid("short write: " + path);
}

namespace {

double rusage_cpu_s(int who) {
  struct rusage ru {};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

}  // namespace

double reference_task_s() {
  constexpr std::size_t kDoubles = std::size_t{1} << 20;
  constexpr std::size_t kSlots = std::size_t{1} << 22;
  constexpr std::size_t kLive = 4096;
  struct Buffers {
    std::vector<double> input;
    std::vector<double> sorted;
    std::vector<double> work;
    std::vector<std::uint32_t> next;  // one random cycle over all slots
    std::vector<std::pair<double, std::uint32_t>> heap;
  };
  static Buffers buf = [] {
    Buffers b;
    SplitMix64 gen(42);
    b.input.resize(kDoubles);
    for (double& x : b.input) x = static_cast<double>(gen.next() >> 11);
    b.sorted = b.input;
    std::sort(b.sorted.begin(), b.sorted.begin() + kDoubles / 2);
    std::sort(b.sorted.begin() + kDoubles / 2, b.sorted.end());
    b.work.resize(kDoubles);
    std::vector<std::uint32_t> order(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) order[i] = i;
    for (std::size_t i = kSlots - 1; i > 0; --i) {
      std::swap(order[i], order[gen.next() % (i + 1)]);
    }
    b.next.resize(kSlots);
    for (std::size_t i = 0; i < kSlots; ++i) {
      b.next[order[i]] = order[(i + 1) % kSlots];
    }
    b.heap.resize(kLive);
    return b;
  }();
  const auto t0 = Clock::now();
  // Compute and cache: sort 512k doubles.
  std::copy(buf.input.begin(), buf.input.end(), buf.work.begin());
  std::sort(buf.work.begin(), buf.work.begin() + kDoubles / 2);
  const bool sorted_ok = buf.work.front() <= buf.work[kDoubles / 2 - 1];
  // Memory latency: a 256k-step random pointer chase over 16 MiB.
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < kDoubles / 4; ++i) at = buf.next[at];
  // Memory bandwidth: merge two sorted halves, as the latency fold does.
  for (int pass = 0; pass < 4; ++pass) {
    std::merge(buf.sorted.begin(), buf.sorted.begin() + kDoubles / 2,
               buf.sorted.begin() + kDoubles / 2, buf.sorted.end(),
               buf.work.begin());
  }
  // Event calendar: 256k pop/push cycles on a 4096-entry binary heap.
  std::uint64_t lcg = 1;
  for (std::size_t i = 0; i < kLive; ++i) {
    buf.heap[i] = {static_cast<double>(i), static_cast<std::uint32_t>(i)};
  }
  std::make_heap(buf.heap.begin(), buf.heap.end(), std::greater<>());
  for (std::size_t i = 0; i < kDoubles / 4; ++i) {
    std::pop_heap(buf.heap.begin(), buf.heap.end(), std::greater<>());
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    buf.heap.back().first += 1.0 + static_cast<double>(lcg >> 54);
    std::push_heap(buf.heap.begin(), buf.heap.end(), std::greater<>());
  }
  // Allocator churn: 1M small objects through a ring of 4096 live ones.
  std::vector<std::unique_ptr<std::array<double, 6>>> ring(kLive);
  for (std::size_t i = 0; i < kDoubles; ++i) {
    ring[i % kLive] = std::make_unique<std::array<double, 6>>();
  }
  const double elapsed = seconds_since(t0);
  if (!sorted_ok || at >= kSlots || buf.work.front() > buf.work.back() ||
      ring.front() == nullptr) {
    throw_invalid("reference task produced a wrong result");
  }
  return elapsed;
}

FleetRun timed_run_fleet(const FleetConfig& config) {
  FleetRun run;
  const double cpu0 =
      rusage_cpu_s(RUSAGE_SELF) + rusage_cpu_s(RUSAGE_CHILDREN);
  const std::uint64_t a0 = heap_allocations();
  const auto t0 = Clock::now();
  run.result = run_fleet(config);
  run.run_s = seconds_since(t0);
  run.allocs = heap_allocations() - a0;
  run.cpu_s =
      rusage_cpu_s(RUSAGE_SELF) + rusage_cpu_s(RUSAGE_CHILDREN) - cpu0;
  return run;
}

}  // namespace perfbench
