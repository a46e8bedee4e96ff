// Six-figure tenant scale: 100k tenants through the streaming,
// process-sharded fleet path.
//
// The run that motivates PR 9's memory work: per-tenant request records
// live in arena-backed SoA storage, completed tenants fold into the slice
// accumulator and release their arenas immediately (stream_metrics), and
// worker processes each own a contiguous tenant slice whose outcome blobs
// merge in tenant-index order.  Three contracts are asserted here:
//
//   * completion — the full tenant count is served (default 100,000;
//     JANUS_HUGE_TENANTS overrides, which is how ci/verify.sh runs a
//     reduced-size variant on every build);
//   * bit-identity — the streamed scalar metric set (totals, violation
//     rate, CPU, histogram, counters, epoch/event tallies) is identical
//     between the 1-process run and every multi-process run;
//   * bounded memory — the marginal peak RSS per tenant between a
//     1/8-scale run and the full-scale run of the same shape stays within
//     the plan-time state a tenant must keep (the streaming fold releases
//     request logs, platforms, and policies as tenants complete, so
//     request records never accumulate).
//
// Emitted via bench_main as BENCH_fleet_huge.json; events/sec and the RSS
// figures land in the bench stdout, peak_rss_kb in the artifact envelope.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "fleet/fleet.hpp"

using namespace janus;

namespace {

constexpr int kDefaultTenants = 100000;
constexpr int kRequestsPerTenant = 10;
constexpr double kMaxBytesPerTenant = 1200.0;

int tenant_count() {
  // CI runs a reduced-size variant through this knob; the committed
  // baseline is recorded at the full default.
  if (const char* env = std::getenv("JANUS_HUGE_TENANTS")) {
    const int n = std::atoi(env);
    if (n >= 16) return n;
    std::fprintf(stderr,
                 "bench_fleet_huge: ignoring JANUS_HUGE_TENANTS=%s "
                 "(need >= 16)\n",
                 env);
  }
  return kDefaultTenants;
}

FleetConfig huge_config(int tenants, int processes) {
  FleetConfig config;
  config.tenants = make_tenant_mix(tenants, kRequestsPerTenant,
                                   /*base_rate=*/10.0, ArrivalKind::Poisson,
                                   /*mixed_kinds=*/false);
  config.shards = 2;
  config.processes = processes;
  config.stream_metrics = true;
  config.seed = 2026;
  // Plan packing walks nodes per pod group: a handful of huge nodes keeps
  // the plan linear in tenants instead of O(tenants x nodes).
  config.cluster.nodes = 4;
  config.cluster.node_capacity_mc = 2000000000;
  return config;
}

long self_peak_rss_kb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // Linux reports KiB
}

bool streamed_identical(const FleetResult& a, const FleetResult& b) {
  if (a.total_requests != b.total_requests ||
      a.fleet_violation_rate != b.fleet_violation_rate ||
      a.fleet_mean_cpu_mc != b.fleet_mean_cpu_mc ||
      a.fleet_p50 != b.fleet_p50 || a.fleet_p99 != b.fleet_p99 ||
      a.final_nodes != b.final_nodes ||
      a.obs.counters.invocations != b.obs.counters.invocations ||
      a.obs.counters.cold_starts != b.obs.counters.cold_starts ||
      a.obs.events_executed != b.obs.events_executed) {
    return false;
  }
  if (a.fleet_hist.bins() != b.fleet_hist.bins()) return false;
  for (std::size_t i = 0; i < a.fleet_hist.bins(); ++i) {
    if (a.fleet_hist.bin_count(i) != b.fleet_hist.bin_count(i)) return false;
  }
  return true;
}

}  // namespace

int main() {
  const int tenants = tenant_count();
  std::printf("%s", banner("Fleet huge: " + std::to_string(tenants) +
                           " tenants x " +
                           std::to_string(kRequestsPerTenant) +
                           " requests, streaming merge, process sweep")
                        .c_str());

  // 1/8-scale run of the same shape: warms allocator/code paths and
  // anchors the sublinearity check.  Runs first because ru_maxrss is a
  // high-water mark — the small figure must be taken before the full run.
  const int small_tenants = tenants / 8;
  (void)run_fleet(huge_config(small_tenants, 1));
  const long rss_small_kb = self_peak_rss_kb();

  FleetResult reference;
  bool identical = true;
  long rss_full_kb = 0;
  double events_per_sec = 0.0;
  std::vector<std::vector<std::string>> rows;
  for (int processes : {1, 2, 4}) {
    const FleetResult result = run_fleet(huge_config(tenants, processes));
    const bool match = processes == 1 || streamed_identical(reference, result);
    identical = identical && match;
    const double eps = result.wall_seconds > 0.0
                           ? static_cast<double>(result.obs.events_executed) /
                                 result.wall_seconds
                           : 0.0;
    if (processes == 1) {
      reference = result;
      rss_full_kb = self_peak_rss_kb();
      events_per_sec = eps;
    }
    rows.push_back({std::to_string(processes), fmt(result.wall_seconds, 3),
                    fmt(eps / 1e6, 2) + "M",
                    std::to_string(result.total_requests),
                    fmt(result.fleet_p99, 3),
                    fmt(100.0 * result.fleet_violation_rate, 2) + "%",
                    match ? "yes" : "NO"});
  }
  std::printf("%s", render_table({"procs", "wall (s)", "events/s", "reqs",
                                  "P99 (s)", ">SLO", "identical"},
                                 rows)
                        .c_str());

  // Marginal resident bytes per tenant: linear plan state is the one cost
  // that must grow with tenants, and it is stable across scale, unlike
  // the full/small ratio, which also moves with every fixed cost.
  const double bytes_per_tenant =
      static_cast<double>(rss_full_kb - rss_small_kb) * 1024.0 /
      static_cast<double>(tenants - small_tenants);
  const double rss_ratio =
      rss_small_kb > 0
          ? static_cast<double>(rss_full_kb) / static_cast<double>(rss_small_kb)
          : 0.0;
  std::printf("tenants: %d\n", tenants);
  std::printf("requests_total: %zu\n", reference.total_requests);
  std::printf("events_per_sec: %.0f\n", events_per_sec);
  std::printf("bit_identical_across_processes: %s\n",
              identical ? "yes" : "no");
  std::printf("peak_rss_small_kb: %ld\n", rss_small_kb);
  std::printf("peak_rss_full_kb: %ld\n", rss_full_kb);
  std::printf("rss_ratio_8x_tenants: %.2f\n", rss_ratio);
  std::printf("bytes_per_tenant: %.0f\n", bytes_per_tenant);

  if (!identical) {
    std::fprintf(stderr,
                 "bench_fleet_huge: streamed fleet metrics changed with the "
                 "process count — the slice merge is not bit-identical\n");
    return 1;
  }
  if (reference.total_requests !=
      static_cast<std::size_t>(tenants) * kRequestsPerTenant) {
    std::fprintf(stderr, "bench_fleet_huge: served %zu of %d requests\n",
                 reference.total_requests,
                 tenants * kRequestsPerTenant);
    return 1;
  }
  // Streamed runs keep 810-830 B of plan state per tenant from 4k to 100k
  // tenants; with stream_metrics off, request records stay resident and
  // the same shape reads about 1850 B.  The bound sits between the two.
  if (bytes_per_tenant > kMaxBytesPerTenant) {
    std::fprintf(stderr,
                 "bench_fleet_huge: peak RSS grew %.0f B per tenant going "
                 "from %d to %d tenants (bound %.0f) — streaming release is "
                 "not bounding memory\n",
                 bytes_per_tenant, small_tenants, tenants,
                 kMaxBytesPerTenant);
    return 1;
  }
  return 0;
}
