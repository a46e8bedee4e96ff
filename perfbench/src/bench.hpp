// Shared pieces of the janus_bench binary: the workload table, timing and
// span helpers, and the per-layer probe entry point.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One benchmark workload: a fleet configuration that `janus_cli fleet`
/// flags can also express (cli_flags), so a user can reproduce it by hand.
struct Workload {
  std::string name;
  int tenants = 0;
  int requests = 0;
  int shards = 1;
  int processes = 1;
  bool stream = false;
  int nodes = 16;
  janus::Millicores node_mc = 52000;
  std::string arrivals;  // an arrival kind, or "mixed"
  std::vector<std::string> policies;
  janus::Seconds epoch_s = janus::kNoEpochs;
  bool autoscale = false;
  std::string chaos;  // janus_cli --chaos spec; empty = calm
};

const std::vector<Workload>& workloads();
/// Null when no workload has that name.
const Workload* find_workload(const std::string& name);

/// The equivalent `janus_cli fleet` flags, without --seed.
std::string cli_flags(const Workload& w);

/// The FleetConfig `janus_cli fleet <cli_flags(w)> --seed <seed>` builds.
janus::FleetConfig make_fleet_config(const Workload& w, std::uint64_t seed);

/// Tenant i's simulation seed, derived exactly as run_fleet derives it.
std::uint64_t tenant_seed(std::uint64_t fleet_seed, std::size_t tenant);

/// A tenant's effective SLO (explicit, or the workload default).
janus::Seconds tenant_slo(const janus::TenantSpec& spec);

/// One distinct (workload, policy, concurrency, SLO) class of a fleet: the
/// unit the PolicyCatalog caches its artifacts by.
struct PolicyClass {
  std::string workload;
  std::string policy;
  janus::Concurrency conc = 1;
  janus::Seconds slo = 0.0;
  janus::Millicores fixed_mc = 0;
  std::vector<std::size_t> members;  // tenant indices, ascending
};

std::vector<PolicyClass> policy_classes(const janus::FleetConfig& config);

/// Warms `catalog` with one make_policy and one plan_sizes call per class
/// (profiles, hints bundles and ORION solves), the benchmark's set-up.
void warm_catalog(janus::PolicyCatalog& catalog,
                  const std::vector<PolicyClass>& classes);

/// Spans kept in memory and written once, as Chrome trace_event JSON
/// (loadable by Perfetto and chrome://tracing).
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}
  /// Opens a span; `parent` is the id of the enclosing span, or -1.
  int begin(const std::string& name, int parent = -1);
  /// Closes span `id` and returns its duration in seconds.
  double end(int id);
  void write_chrome_trace(const std::string& path, const std::string& process)
      const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double t0_us = 0.0;
    double t1_us = -1.0;
  };
  double now_us() const;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Seconds of a fixed reference task that exercises what the simulator
/// leans on: a sort of 512k doubles (compute and cache), a 256k-step
/// random pointer chase over 16 MiB (memory latency), four merges of two
/// sorted 4 MiB halves (memory bandwidth, like the latency fold), 256k
/// pop/push cycles on a 4096-entry binary heap (the event calendar) and 1M
/// small allocations through a ring of 4096 live objects (the allocator).
/// It runs no repository code, so its time tracks only how fast the host
/// is at that moment.
double reference_task_s();

/// Fixed scale of the calibration: calibrated host times read as they
/// would on a host that runs the reference task in this many seconds.
inline constexpr double kReferenceNominalS = 0.15;

/// A run_fleet call with its host cost: wall seconds, CPU seconds of this
/// process and its reaped workers, and heap allocations of this process.
struct FleetRun {
  janus::FleetResult result;
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t allocs = 0;
};

FleetRun timed_run_fleet(const janus::FleetConfig& config);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Set-up layer probe: warms the fresh `catalog` as warm_catalog does, but
/// builds its profiles and hints bundles first, each under its own span,
/// and reports profiler.s, hints.s and hints.bundles.
std::vector<Metric> probe_setup(janus::PolicyCatalog& catalog,
                                const std::vector<PolicyClass>& classes,
                                SpanLog& spans, int parent);

/// What the traced run hands the layer probes: the workload's own config
/// and warmed catalog, and the measured fleet runs they explain.
struct ProbeInputs {
  const janus::FleetConfig* config = nullptr;
  const std::vector<PolicyClass>* classes = nullptr;
  janus::PolicyCatalog* catalog = nullptr;
  const FleetRun* traced = nullptr;  // the traced run_fleet call
  double plain_run_s = 0.0;          // untraced run_fleet, same process
  double one_process_run_s = 0.0;    // 0 unless the workload forks
  std::uint64_t fleet_allocs = 0;    // heap allocations, 1-process run
};

/// Replays each layer's public calls on the workload's inputs, records a
/// span around every probe, and returns the per-layer metrics.  Failed
/// internal checks are appended to `failures`.
std::vector<Metric> probe_layers(const ProbeInputs& in, SpanLog& spans,
                                 int parent,
                                 std::vector<std::string>& failures);

}  // namespace perfbench
