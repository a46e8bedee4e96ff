// janus_bench: the repository benchmark binary.
//
//   janus_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--out-dir DIR] [--source-id ID]
//
// --trace 0 makes one plain run (peak RSS), times several catalog warms
// (setup_s is the median), then calls run_fleet on the warmed catalog
// until S seconds have passed, and reports the end-to-end metrics with
// host times calibrated against reference_task_s.  --trace 1 replays every
// layer's public calls under spans instead (see layers.cpp) and reports the
// per-layer metrics; its spans go to DIR as Chrome trace_event JSON.
// Either way the last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics.  Exit 0 when every check held,
// 1 when one failed (the result line is still printed), 2 on bad usage or
// a build that must not report (non-Release or sanitized).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/log.hpp"

namespace perfbench {
namespace {

using namespace janus;

constexpr int kSetupReps = 7;
constexpr int kMinReps = 3;
/// Hard stop for the measure loop, well inside the 180 s run budget.
constexpr double kMaxMeasureS = 120.0;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerMacro = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitizerMacro = true;
#else
constexpr bool kSanitizerMacro = false;
#endif
#else
constexpr bool kSanitizerMacro = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 2026;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".bench_out";
  std::string source_id = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "janus_bench: %s\nusage: janus_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--source-id ID]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value);
      } else if (flag == "--out-dir") {
        a.out_dir = value;
      } else if (flag == "--source-id") {
        a.source_id = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (find_workload(a.workload) == nullptr) {
    std::string names;
    for (const Workload& w : workloads()) names += " " + w.name;
    usage("unknown workload '" + a.workload + "' (one of:" + names + ")");
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// The four modelled metrics: deterministic for a seed, so compared
/// bit-for-bit across repetitions and process counts.
struct Modelled {
  double cpu_mc = 0.0;
  double violation = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool same_bits(const Modelled& o) const {
    return std::memcmp(this, &o, sizeof(Modelled)) == 0;
  }
};

Modelled modelled_of(const FleetResult& r) {
  return {r.fleet_mean_cpu_mc, r.fleet_violation_rate, r.fleet_p50,
          r.fleet_p99};
}

/// Totals a run must reach: configured requests, and the events every
/// request needs at least (its arrival plus one per chain stage).
struct Expected {
  std::uint64_t requests = 0;
  std::uint64_t min_events = 0;
};

Expected expected_of(const FleetConfig& config) {
  Expected e;
  std::map<std::string, std::uint64_t> chain;
  for (const TenantSpec& t : config.tenants) {
    auto it = chain.find(t.workload);
    if (it == chain.end()) {
      it = chain.emplace(t.workload,
                         workload_by_name(t.workload).chain_models().size())
               .first;
    }
    const auto req = static_cast<std::uint64_t>(t.requests);
    e.requests += req;
    e.min_events += req * (1 + it->second);
  }
  return e;
}

/// Correctness checks on one fleet result; failures are appended.
void check_result(const FleetResult& r, const Expected& e,
                  std::vector<std::string>& failures) {
  if (r.total_requests != e.requests) {
    failures.push_back("served " + std::to_string(r.total_requests) +
                       " of " + std::to_string(e.requests) + " requests");
  }
  if (!(r.fleet_violation_rate >= 0.0 && r.fleet_violation_rate <= 1.0)) {
    failures.push_back("violation rate outside [0, 1]");
  }
  if (r.obs.events_executed < e.min_events) {
    failures.push_back("fewer events than 1 + chain length per request");
  }
}

/// Requests attempted and failed over a run's run_fleet calls, and the
/// checks that failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
};

/// Runs run_fleet and checks its result; a throw counts every configured
/// request as failed.
bool guarded_run(const FleetConfig& config, const Expected& e, Tally& tally,
                 FleetRun& out) {
  tally.attempted += e.requests;
  try {
    out = timed_run_fleet(config);
  } catch (const std::exception& ex) {
    tally.failed += e.requests;
    tally.failures.push_back(std::string("run_fleet threw: ") + ex.what());
    return false;
  }
  tally.failed += e.requests - std::min(e.requests,
                                        static_cast<std::uint64_t>(
                                            out.result.total_requests));
  check_result(out.result, e, tally.failures);
  return true;
}

double peak_rss_mb() {
  struct rusage self {};
  struct rusage children {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

struct Report {
  std::vector<Metric> metrics;
  std::vector<double> samples;      // uncalibrated sim_req_per_s per call
  std::vector<double> setup_s;      // uncalibrated set-up times
  std::vector<double> reference_s;  // reference-task times of the run
  Tally tally;
};

Report run_untraced(const Args& args, const FleetConfig& base,
                    const std::vector<PolicyClass>& classes) {
  Report rep;
  const Expected e = expected_of(base);
  // One plain run first, as a user's one-shot run would go: it fixes
  // peak_rss_mb before the reference task has allocated anything, and it
  // is the discarded warm-up (first touch of the heap) for what follows.
  PolicyCatalog catalog(base.policy_catalog);
  warm_catalog(catalog, classes);
  FleetConfig config = base;
  config.catalog = &catalog;
  std::vector<Modelled> modelled;
  FleetRun first_run;
  if (guarded_run(config, e, rep.tally, first_run)) {
    modelled.push_back(modelled_of(first_run.result));
  }
  const double rss_mb = peak_rss_mb();

  // Host speed on a shared machine drifts by tens of percent between runs.
  // The reference task runs before every timed interval and once after the
  // last; the run's host times are scaled by kReferenceNominalS over the
  // median reference time, which cancels the drift the program and the
  // reference share.
  for (int i = 0; i < kSetupReps; ++i) {
    rep.reference_s.push_back(reference_task_s());
    PolicyCatalog fresh(base.policy_catalog);
    const auto t0 = Clock::now();
    warm_catalog(fresh, classes);
    rep.setup_s.push_back(seconds_since(t0));
  }
  const auto start = Clock::now();
  for (int r = 0;; ++r) {
    const double elapsed = seconds_since(start);
    if (r >= kMinReps && elapsed >= args.seconds) break;
    if (elapsed >= kMaxMeasureS) break;
    rep.reference_s.push_back(reference_task_s());
    FleetRun run;
    if (!guarded_run(config, e, rep.tally, run)) continue;
    rep.samples.push_back(static_cast<double>(e.requests) / run.run_s);
    modelled.push_back(modelled_of(run.result));
    if (!modelled.front().same_bits(modelled.back())) {
      rep.tally.failures.push_back(
          "modelled metrics differ between repetitions of one seed");
    }
  }
  rep.reference_s.push_back(reference_task_s());
  const double slowdown = median(rep.reference_s) / kReferenceNominalS;
  const Modelled first = modelled.empty() ? Modelled{} : modelled.front();
  const double attempted = static_cast<double>(rep.tally.attempted);
  rep.metrics = {
      {"setup_s", "s", median(rep.setup_s) / slowdown},
      {"sim_req_per_s", "req/s", median(rep.samples) * slowdown},
      {"peak_rss_mb", "MiB", rss_mb},
      {"served_pct", "%",
       100.0 * (attempted - static_cast<double>(rep.tally.failed)) /
           attempted},
      {"cpu_mc_mean", "mc", first.cpu_mc},
      {"slo_met_pct", "%", 100.0 * (1.0 - first.violation)},
      {"e2e_p50_s", "s", first.p50},
      {"e2e_p99_s", "s", first.p99},
  };
  if (modelled.empty()) rep.tally.failures.push_back("no repetition finished");
  return rep;
}

Report run_traced(const Args& args, const Workload& w, const FleetConfig& base,
                  const std::vector<PolicyClass>& classes) {
  Report rep;
  const Expected e = expected_of(base);
  SpanLog spans;
  const int root = spans.begin("bench " + w.name);

  PolicyCatalog catalog(base.policy_catalog);
  const int setup = spans.begin("setup", root);
  rep.metrics = probe_setup(catalog, classes, spans, setup);
  spans.end(setup);
  FleetConfig config = base;
  config.catalog = &catalog;

  ProbeInputs in;
  in.config = &config;
  in.classes = &classes;
  in.catalog = &catalog;
  // A discarded warm-up call, then the untraced and the traced call.
  FleetRun plain;
  FleetRun traced;
  const bool ok_plain = guarded_run(config, e, rep.tally, plain) &&
                        guarded_run(config, e, rep.tally, plain);
  const int fleet_span = spans.begin("fleet.run_fleet", root);
  const bool ok_traced = guarded_run(config, e, rep.tally, traced);
  spans.end(fleet_span);
  if (ok_plain && ok_traced &&
      !modelled_of(plain.result).same_bits(modelled_of(traced.result))) {
    rep.tally.failures.push_back(
        "modelled metrics differ between repetitions of one seed");
  }
  in.plain_run_s = plain.run_s;
  in.traced = &traced;
  in.fleet_allocs = traced.allocs;
  bool ok_one = true;
  if (config.processes > 1) {
    // The same fleet in one process: its allocations are all counted
    // here, and its modelled scalars must equal the forked run's.
    FleetConfig one = config;
    one.processes = 1;
    FleetRun single;
    const int id = spans.begin("fleet.run_fleet processes=1", root);
    ok_one = guarded_run(one, e, rep.tally, single);
    spans.end(id);
    if (ok_one && ok_traced &&
        !modelled_of(single.result).same_bits(modelled_of(traced.result))) {
      rep.tally.failures.push_back(
          "modelled metrics differ between 1 and " +
          std::to_string(config.processes) + " worker processes");
    }
    in.one_process_run_s = single.run_s;
    in.fleet_allocs = single.allocs;
  }
  if (ok_plain && ok_traced && ok_one) {
    const int id = spans.begin("layers", root);
    std::vector<Metric> layers =
        probe_layers(in, spans, id, rep.tally.failures);
    spans.end(id);
    rep.metrics.insert(rep.metrics.end(), layers.begin(), layers.end());
  }
  spans.end(root);
  const std::string path = args.out_dir + "/spans-" + w.name + "-seed" +
                           std::to_string(args.seed) + ".json";
  spans.write_chrome_trace(path, "janus_bench " + w.name);
  std::printf("spans: %s\n", path.c_str());
  return rep;
}

std::string fingerprint_json(const Args& args) {
  std::ostringstream os;
  os << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"compiler\":" << json_string(JANUS_BENCH_CXX_ID)
     << ",\"build_type\":" << json_string(JANUS_BENCH_BUILD_TYPE)
     << ",\"source\":" << json_string(args.source_id) << "}";
  return os.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  if (std::string(JANUS_BENCH_BUILD_TYPE) != "Release" || kSanitizerMacro ||
      !kAssertsOff) {
    std::fprintf(stderr,
                 "janus_bench: refusing to report from a %s build%s; "
                 "configure with -DCMAKE_BUILD_TYPE=Release and no "
                 "sanitizer\n",
                 JANUS_BENCH_BUILD_TYPE,
                 kSanitizerMacro ? " with a sanitizer" : "");
    return 2;
  }
  janus::set_log_level(janus::LogLevel::Warn);
  const Workload& w = *find_workload(args.workload);
  const std::string fingerprint = fingerprint_json(args);
  std::printf("workload: %s (janus_cli fleet %s --seed %llu)\n",
              w.name.c_str(), cli_flags(w).c_str(),
              static_cast<unsigned long long>(args.seed));
  std::printf("fingerprint: %s\n", fingerprint.c_str());
  std::fflush(stdout);

  Report rep;
  try {
    const janus::FleetConfig base = make_fleet_config(w, args.seed);
    const std::vector<PolicyClass> classes = policy_classes(base);
    rep = args.trace == 0 ? run_untraced(args, base, classes)
                          : run_traced(args, w, base, classes);
  } catch (const std::exception& ex) {
    rep.tally.failures.push_back(std::string("benchmark threw: ") + ex.what());
  }
  if (rep.tally.attempted == 0) {
    rep.tally.attempted = 1;
    rep.tally.failed = 1;
  }

  std::string metrics;
  for (const Metric& m : rep.metrics) {
    std::printf("  %-28s %20.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    if (!std::isfinite(m.value)) {
      rep.tally.failures.push_back("metric " + m.name + " is not finite");
    }
    metrics += std::string(metrics.empty() ? "" : ", ") + json_string(m.name) +
               ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  for (const std::string& f : rep.tally.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = rep.tally.failures.empty();

  const auto json_list = [](const std::vector<double>& v) {
    std::string out;
    for (double x : v) {
      out += std::string(out.empty() ? "" : ",") + json_number(x);
    }
    return "[" + out + "]";
  };
  const std::string line =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(rep.tally.attempted) +
      ", \"failed\": " + std::to_string(rep.tally.failed) +
      ", \"metrics\": {" + metrics + "}}";
  const std::string record = args.out_dir + "/result-" + w.name + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             std::to_string(args.trace) + ".json";
  std::ofstream out(record);
  out << "{\"workload\": " << json_string(w.name)
      << ", \"cli\": " << json_string("janus_cli fleet " + cli_flags(w))
      << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
      << ", \"seconds\": " << json_number(args.seconds)
      << ", \"fingerprint\": " << fingerprint
      << ", \"uncalibrated_req_per_s\": " << json_list(rep.samples)
      << ", \"reference_task_s\": " << json_list(rep.reference_s)
      << ", \"uncalibrated_setup_s\": " << json_list(rep.setup_s)
      << ", \"result\": " << line << "}\n";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
