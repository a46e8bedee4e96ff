// Tests for src/exp: run-result aggregation, report rendering, and the
// paired-draw contract of the experiment driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "model/workloads.hpp"
#include "policy/policy.hpp"
#include "sim/engine.hpp"
#include "sim/platform.hpp"

namespace janus {
namespace {

RunResult synthetic_result() {
  RunResult result;
  result.policy_name = "test";
  result.slo = 2.0;
  for (int i = 1; i <= 10; ++i) {
    RequestRecord r;
    r.e2e = 0.2 * i;           // 0.2 .. 2.0
    r.cpu_mc = 1000.0 * i;
    r.violated = r.e2e > result.slo;
    result.requests.push_back(r);
  }
  return result;
}

TEST(RunResult, MeanCpu) {
  EXPECT_DOUBLE_EQ(synthetic_result().mean_cpu(), 5500.0);
}

TEST(RunResult, ViolationRate) {
  auto result = synthetic_result();
  EXPECT_DOUBLE_EQ(result.violation_rate(), 0.0);
  result.requests[9].violated = true;
  EXPECT_DOUBLE_EQ(result.violation_rate(), 0.1);
}

TEST(RunResult, PercentilesFromDistribution) {
  const auto result = synthetic_result();
  EXPECT_NEAR(result.e2e_percentile(50), 1.1, 1e-9);
  EXPECT_DOUBLE_EQ(result.e2e_distribution().max(), 2.0);
}

TEST(RunResult, EmptySafe) {
  RunResult result;
  EXPECT_DOUBLE_EQ(result.mean_cpu(), 0.0);
  EXPECT_DOUBLE_EQ(result.violation_rate(), 0.0);
}

TEST(Report, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(Report, TableAlignsColumns) {
  const std::string out =
      render_table({"a", "long-header"}, {{"xx", "1"}, {"y", "22"}});
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Each data row present.
  EXPECT_NE(out.find("xx"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(Report, TableRejectsRaggedRows) {
  EXPECT_THROW(render_table({"a", "b"}, {{"only"}}), std::invalid_argument);
}

TEST(Report, SeriesFormat) {
  const std::string out = render_series("t", {{1.0, 0.5}}, "x", "y");
  EXPECT_NE(out.find("# t"), std::string::npos);
  EXPECT_NE(out.find("1.0000 0.5000"), std::string::npos);
}

TEST(Report, BannerContainsText) {
  EXPECT_NE(banner("hello").find("hello"), std::string::npos);
}

// ------------------------------------------------------ driver contracts --
TEST(Runner, DrawsMatchChainLength) {
  RunConfig config;
  config.requests = 7;
  const auto draws = draw_requests(make_ia(), config);
  ASSERT_EQ(draws.size(), 7u);
  for (const auto& d : draws) {
    EXPECT_EQ(d.ws.size(), 3u);
    EXPECT_EQ(d.interference.size(), 3u);
    for (double i : d.interference) EXPECT_GE(i, 1.0);
    for (double w : d.ws) EXPECT_GT(w, 0.0);
  }
}

TEST(Runner, SeedChangesDraws) {
  RunConfig a, b;
  a.requests = b.requests = 3;
  b.seed = a.seed + 1;
  const auto da = draw_requests(make_ia(), a);
  const auto db = draw_requests(make_ia(), b);
  EXPECT_NE(da[0].ws, db[0].ws);
}

TEST(Runner, CustomColocationRespected) {
  RunConfig config;
  config.requests = 200;
  config.colocation.weights = {1.0};  // always alone
  config.colocation_is_default = false;
  const auto draws = draw_requests(make_ia(), config);
  for (const auto& d : draws) {
    for (double i : d.interference) EXPECT_LT(i, 1.05);  // noise only
  }
}

TEST(Runner, FixedPolicyRunProducesExactSizes) {
  FixedSizingPolicy policy("fixed", {1100, 1200, 1300});
  RunConfig config;
  config.slo = 10.0;
  config.requests = 5;
  const RunResult result = run_workload(make_ia(), policy, config);
  for (const auto& r : result.requests) {
    EXPECT_EQ(r.sizes, (std::vector<Millicores>{1100, 1200, 1300}));
    EXPECT_DOUBLE_EQ(r.cpu_mc, 3600.0);
    EXPECT_FALSE(r.violated);  // 10 s SLO is unreachable by IA
  }
}

TEST(Runner, OpenLoopDeterministicAcrossRuns) {
  // The open-loop path (overlapping Poisson arrivals) must honor the same
  // paired-request contract as the closed loop: a fixed RunConfig yields a
  // bit-identical request sequence on every run.
  RunConfig config;
  config.slo = 3.0;
  config.requests = 120;
  config.open_loop_rate = 40.0;
  const auto run_once = [&config] {
    FixedSizingPolicy policy("fixed", {1500, 1500, 1500});
    return run_workload(make_ia(), policy, config);
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  ASSERT_EQ(a.requests.size(), 120u);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.requests[i].e2e, b.requests[i].e2e);
    EXPECT_DOUBLE_EQ(a.requests[i].cpu_mc, b.requests[i].cpu_mc);
    EXPECT_EQ(a.requests[i].sizes, b.requests[i].sizes);
  }
}

TEST(Runner, OpenLoopDrawsAreArrivalIndependent) {
  // The pre-drawn randomness pairs policies *and* arrival processes: the
  // draws come from their own stream, so reshaping arrivals (or switching
  // to open loop) must not change them.
  RunConfig closed;
  closed.requests = 50;
  RunConfig open = closed;
  open.open_loop_rate = 25.0;
  RunConfig bursty = open;
  bursty.arrivals.kind = ArrivalKind::Mmpp;
  const auto a = draw_requests(make_ia(), closed);
  const auto b = draw_requests(make_ia(), open);
  const auto c = draw_requests(make_ia(), bursty);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ws, b[i].ws);
    EXPECT_EQ(a[i].interference, b[i].interference);
    EXPECT_EQ(a[i].ws, c[i].ws);
    EXPECT_EQ(a[i].interference, c[i].interference);
  }
}

TEST(Runner, OpenLoopServesAllRequestsForEveryArrivalKind) {
  for (const ArrivalKind kind :
       {ArrivalKind::Poisson, ArrivalKind::Mmpp, ArrivalKind::Diurnal}) {
    RunConfig config;
    config.slo = 3.0;
    config.requests = 80;
    config.open_loop_rate = 30.0;
    config.arrivals.kind = kind;
    FixedSizingPolicy policy("fixed", {1500, 1500, 1500});
    const RunResult result = run_workload(make_ia(), policy, config);
    EXPECT_EQ(result.requests.size(), 80u) << to_string(kind);
  }
}

TEST(Runner, OpenLoopRateOverrideKeepsMmppShape) {
  // open_loop_rate above the spec's default burst_rate (50) must not
  // throw: the override scales the burst rate to preserve the burst/base
  // ratio instead of leaving a stale absolute value behind.
  RunConfig config;
  config.slo = 3.0;
  config.requests = 60;
  config.open_loop_rate = 120.0;
  config.arrivals.kind = ArrivalKind::Mmpp;
  FixedSizingPolicy policy("fixed", {1500, 1500, 1500});
  const RunResult result = run_workload(make_ia(), policy, config);
  EXPECT_EQ(result.requests.size(), 60u);
}

TEST(Runner, PerStageColocationProviderOverridesGlobal) {
  RunConfig config;
  config.requests = 200;
  // Stage 0 always alone; stages 1-2 heavily co-located.
  const StaticCoLocation provider({CoLocationDistribution{{1.0}},
                                   CoLocationDistribution::concentrated(6.0),
                                   CoLocationDistribution::concentrated(6.0)});
  config.colocation_provider = &provider;
  const auto draws = draw_requests(make_ia(), config);
  double stage0_max = 0.0, stage1_min = 1e9;
  for (const auto& d : draws) {
    stage0_max = std::max(stage0_max, d.interference[0]);
    stage1_min = std::min(stage1_min, d.interference[1]);
  }
  EXPECT_LT(stage0_max, 1.05);  // alone: noise only
  EXPECT_GT(stage1_min, 1.3);   // contended: real slowdown

  // Wrong arity: one stage distribution for a three-stage chain.
  const StaticCoLocation narrow({CoLocationDistribution{{1.0}}});
  config.colocation_provider = &narrow;
  EXPECT_THROW(draw_requests(make_ia(), config), std::invalid_argument);
}

TEST(Runner, RejectsBadConfig) {
  FixedSizingPolicy policy("fixed", {1000, 1000, 1000});
  RunConfig config;
  config.slo = 0.0;
  EXPECT_THROW(run_workload(make_ia(), policy, config),
               std::invalid_argument);
  config.slo = 1.0;
  config.requests = 0;
  EXPECT_THROW(run_workload(make_ia(), policy, config),
               std::invalid_argument);
}

// ------------------------------------------------- shared request pool --

/// A five-stage micro-benchmark chain: longer than IA's and VA's three
/// stages, so slots recycled across tenants must regrow and then reuse
/// their per-stage vectors.
WorkloadSpec micro_chain() {
  WorkloadSpec spec;
  spec.name = "micro";
  spec.models = {make_micro_function(ResourceDim::Cpu),
                 make_micro_function(ResourceDim::Network),
                 make_micro_function(ResourceDim::Io),
                 make_micro_function(ResourceDim::Memory),
                 make_micro_function(ResourceDim::Cpu)};
  spec.workflow = Workflow::chain(
      "micro", {{"a", 0}, {"b", 1}, {"c", 2}, {"d", 3}, {"e", 4}});
  spec.slo_by_concurrency = {2.0};
  spec.max_concurrency = 1;
  return spec;
}

struct PoolTenant {
  WorkloadSpec workload;
  RunConfig config;
  Millicores size;
};

/// Open-loop IA, closed-loop VA and an open-loop micro chain: requests of
/// different stage counts overlap, so one pool's slots pass between them.
std::vector<PoolTenant> pool_tenants() {
  PoolTenant ia{make_ia(), RunConfig{}, 1500};
  ia.config.requests = 300;
  ia.config.open_loop_rate = 40.0;
  ia.config.seed = 11;
  PoolTenant va{make_va(), RunConfig{}, 2000};
  va.config.slo = 1.5;
  va.config.requests = 60;
  va.config.seed = 12;
  PoolTenant micro{micro_chain(), RunConfig{}, 1000};
  micro.config.slo = 2.0;
  micro.config.requests = 300;
  micro.config.open_loop_rate = 25.0;
  micro.config.seed = 13;
  return {ia, va, micro};
}

/// Every tenant of pool_tenants() on one engine and one pool, each with
/// its own platform and policy (built exactly as run_workload builds them).
struct SharedPoolRun {
  RequestPool pool;  // outlives the engine's pending closures
  SimEngine engine;
  std::vector<std::unique_ptr<Platform>> platforms;
  std::vector<std::unique_ptr<FixedSizingPolicy>> policies;
  std::vector<RunResult> results;

  explicit SharedPoolRun(const std::vector<PoolTenant>& tenants)
      : results(tenants.size()) {
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const PoolTenant& t = tenants[i];
      PlatformConfig pc = t.config.platform;
      pc.seed = t.config.seed ^ 0x9e3779b97f4a7c15ULL;
      platforms.push_back(std::make_unique<Platform>(
          engine, pc, t.workload.chain_models(), t.config.interference));
      policies.push_back(std::make_unique<FixedSizingPolicy>(
          "fixed", std::vector<Millicores>(t.workload.models.size(), t.size)));
      serve_workload(engine, pool, *platforms[i], t.workload, *policies[i],
                     t.config, results[i]);
    }
  }
};

TEST(RequestPool, SharedPoolKeepsEveryTenantBitIdentical) {
  const std::vector<PoolTenant> tenants = pool_tenants();
  SharedPoolRun shared(tenants);
  EXPECT_EQ(shared.pool.live_tenants(), tenants.size());
  shared.engine.run();
  EXPECT_EQ(shared.pool.in_flight(), 0u);
  EXPECT_EQ(shared.pool.live_tenants(), 0u);  // freed at last completion
  // The pool held the live set, not the 660-request stream.
  EXPECT_LT(shared.pool.capacity(), 660u);

  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const PoolTenant& t = tenants[i];
    FixedSizingPolicy policy(
        "fixed", std::vector<Millicores>(t.workload.models.size(), t.size));
    const RunResult alone = run_workload(t.workload, policy, t.config);
    const RequestLog& got = shared.results[i].requests;
    const RequestLog& want = alone.requests;
    ASSERT_EQ(got.size(), want.size()) << t.workload.name;
    ASSERT_EQ(got.size(), static_cast<std::size_t>(t.config.requests));
    for (std::size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(got[r].e2e, want[r].e2e) << t.workload.name << " #" << r;
      EXPECT_EQ(got[r].cpu_mc, want[r].cpu_mc) << t.workload.name;
      EXPECT_EQ(got[r].violated, want[r].violated) << t.workload.name;
      EXPECT_EQ(got[r].sizes, want[r].sizes) << t.workload.name;
      EXPECT_EQ(got[r].stage_total, want[r].stage_total) << t.workload.name;
    }
  }
}

TEST(RequestPool, DestroyedWithRequestsStillPending) {
  // Stop mid-run: requests are on the platforms, arrivals are still
  // queued, and every tenant's state is live.  Tearing down the engine,
  // platforms and pool must free all of it (the ASan build checks for
  // leaks and use-after-free).
  const std::vector<PoolTenant> tenants = pool_tenants();
  SharedPoolRun shared(tenants);
  shared.engine.run_until(2.0);
  EXPECT_GT(shared.engine.pending(), 0u);
  EXPECT_GT(shared.pool.in_flight(), 0u);
  EXPECT_EQ(shared.pool.live_tenants(), tenants.size());
}

}  // namespace
}  // namespace janus
