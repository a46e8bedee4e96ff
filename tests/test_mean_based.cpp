// Tests for the mean-based late-binding baseline (the Kraken/Xanadu family
// the paper excludes) — including the quantitative version of the paper's
// exclusion argument: mean-based adaptation under skewed distributions
// under-provisions and violates SLOs far more often than Janus.
#include <gtest/gtest.h>

#include "exp/runner.hpp"
#include "model/workloads.hpp"
#include "policy/janus_policy.hpp"
#include "policy/mean_based.hpp"
#include "profiler/profiler.hpp"

namespace janus {
namespace {

class MeanBasedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ProfilerConfig config;
    config.grid.kstep = 250;
    config.samples_per_point = 1500;
    config.interference = InterferenceModel(workload_interference_params());
    profiles_ = new std::vector<LatencyProfile>(
        profile_workload(make_ia(), config));
  }
  static void TearDownTestSuite() {
    delete profiles_;
    profiles_ = nullptr;
  }
  static const std::vector<LatencyProfile>& profiles() { return *profiles_; }

 private:
  static std::vector<LatencyProfile>* profiles_;
};

std::vector<LatencyProfile>* MeanBasedTest::profiles_ = nullptr;

TEST_F(MeanBasedTest, SharedTableDecidesLikeOwnTable) {
  MeanBasedPolicy own(profiles(), 3.0, 1, 1000, 3000, 250);
  const auto table = std::make_shared<const MeanTailTable>(
      MeanTailTable::build(profiles(), 1, 1000, 3000, 250));
  MeanBasedPolicy shared(table, 3.0);
  const RequestDraw draw;
  for (std::size_t stage = 0; stage < profiles().size(); ++stage) {
    for (Seconds elapsed : {0.0, 0.4, 1.1, 2.0, 2.9, 3.5}) {
      EXPECT_EQ(own.size_for_stage(stage, elapsed, draw),
                shared.size_for_stage(stage, elapsed, draw))
          << stage << " @" << elapsed;
    }
  }
  EXPECT_THROW(MeanBasedPolicy(nullptr, 3.0), std::invalid_argument);
  EXPECT_THROW(MeanBasedPolicy(table, 0.0), std::invalid_argument);
}

TEST_F(MeanBasedTest, IsLateBinding) {
  auto policy = make_mean_based(profiles(), 3.0, 1, 1000, 3000, 250);
  EXPECT_TRUE(policy->late_binding());
  EXPECT_EQ(policy->name(), "MeanAdapt");
}

TEST_F(MeanBasedTest, TighterBudgetLargerSize) {
  auto policy = make_mean_based(profiles(), 3.0, 1, 1000, 3000, 250);
  RequestDraw draw;
  const Millicores relaxed = policy->size_for_stage(1, 0.3, draw);
  const Millicores tight = policy->size_for_stage(1, 2.4, draw);
  EXPECT_GE(tight, relaxed);
}

TEST_F(MeanBasedTest, ExhaustedBudgetAllocatesKmax) {
  auto policy = make_mean_based(profiles(), 3.0, 1, 1000, 3000, 250);
  RequestDraw draw;
  EXPECT_EQ(policy->size_for_stage(0, 5.0, draw), 3000);
}

TEST_F(MeanBasedTest, MeanSizingCheaperThanJanus) {
  // Under-provisioning shows up as lower CPU...
  auto mean_policy = make_mean_based(profiles(), 3.0, 1, 1000, 3000, 250);
  SynthesisConfig synth;
  synth.kstep = 250;
  synth.budget_step = 5;
  auto janus_policy = make_janus(profiles(), synth, 3.0);
  RunConfig config;
  config.slo = 3.0;
  config.requests = 400;
  const auto ia = make_ia();
  EXPECT_LT(run_workload(ia, *mean_policy, config).mean_cpu(),
            run_workload(ia, *janus_policy, config).mean_cpu());
}

TEST_F(MeanBasedTest, MeanSizingViolatesSloMuchMore) {
  // ...and as the severe SLO violations the paper warns about (§V-A).
  auto mean_policy = make_mean_based(profiles(), 3.0, 1, 1000, 3000, 250);
  SynthesisConfig synth;
  synth.kstep = 250;
  synth.budget_step = 5;
  auto janus_policy = make_janus(profiles(), synth, 3.0);
  RunConfig config;
  config.slo = 3.0;
  config.requests = 500;
  const auto ia = make_ia();
  const double mean_violations =
      run_workload(ia, *mean_policy, config).violation_rate();
  const double janus_violations =
      run_workload(ia, *janus_policy, config).violation_rate();
  EXPECT_GT(mean_violations, 0.10);  // an order of magnitude over target
  EXPECT_GT(mean_violations, 5.0 * janus_violations);
}

TEST_F(MeanBasedTest, RejectsBadInputs) {
  EXPECT_THROW(MeanBasedPolicy(profiles(), 0.0, 1, 1000, 3000, 250),
               std::invalid_argument);
  std::vector<LatencyProfile> empty;
  EXPECT_THROW(MeanBasedPolicy(empty, 3.0, 1, 1000, 3000, 250),
               std::invalid_argument);
}

}  // namespace
}  // namespace janus
