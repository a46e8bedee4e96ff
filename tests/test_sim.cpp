// Tests for src/sim: event engine ordering (including the differential
// ladder-vs-heap replay and the allocation-free steady-state contract),
// platform pod lifecycle, warm pools, co-location packing, invoke outcomes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "exp/runner.hpp"
#include "model/workloads.hpp"
#include "policy/policy.hpp"
#include "sim/engine.hpp"
#include "sim/platform.hpp"

// ---- Allocation-counting hook -------------------------------------------
// Replaces this binary's global operator new/delete with counting
// forwarders.  The ladder engine promises zero per-event heap allocations
// once its pools are warm; SteadyStateEventPathDoesNotAllocate measures a
// churn window against this counter to hold it to that.
namespace {
std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace janus {
namespace {

// ----------------------------------------------------------------- engine --
TEST(SimEngine, RunsEventsInTimeOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(SimEngine, TiesBreakByInsertionOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(1.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimEngine, ScheduleAfterUsesCurrentTime) {
  SimEngine engine;
  double fired_at = -1.0;
  engine.schedule_at(5.0, [&] {
    engine.schedule_after(2.5, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(SimEngine, PastSchedulingClampsToNow) {
  // Contract: schedule_at with t < now() clamps to now() — the event fires
  // as soon as possible instead of throwing (negative *delays* still do).
  SimEngine engine;
  engine.schedule_at(1.0, [] {});
  engine.run();
  Seconds fired_at = -1.0;
  engine.schedule_at(0.5, [&] { fired_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 1.0);
  EXPECT_THROW(engine.schedule_after(-1.0, [] {}), std::invalid_argument);
}

TEST(SimEngine, ClampedEventRunsAfterAlreadyQueuedPeers) {
  // A clamped event lands *behind* events already queued at now(): the
  // clamp changes its time, not its insertion sequence.
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(5.0, [&] {
    engine.schedule_at(engine.now(), [&] { order.push_back(1); });
    engine.schedule_at(2.0, [&] { order.push_back(2); });  // past -> 5.0
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
}

TEST(SimEngine, RunUntilStopsAtBoundary) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] { ++fired; });
  engine.schedule_at(5.0, [&] { ++fired; });
  engine.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(SimEngine, StepReturnsFalseWhenEmpty) {
  SimEngine engine;
  EXPECT_FALSE(engine.step());
  engine.schedule_at(0.0, [] {});
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(engine.executed(), 1u);
}

TEST(SimEngine, EventsCanCascade) {
  SimEngine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) engine.schedule_after(0.1, recurse);
  };
  engine.schedule_at(0.0, recurse);
  engine.run();
  EXPECT_EQ(depth, 10);
}

// ---- run_until boundary semantics (contract locked before the ladder
// swap; these pin exactly what serve_workload and the fleet rely on) ------

TEST(SimEngine, RunUntilFiresEventExactlyAtBoundary) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_at(3.0, [&] { ++fired; });
  engine.schedule_at(3.0 + 1e-9, [&] { ++fired; });
  engine.run_until(3.0);  // <= t fires; the epsilon-later event stays
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(SimEngine, RunUntilOnEmptyCalendarAdvancesNow) {
  SimEngine engine;
  engine.run_until(7.5);
  EXPECT_DOUBLE_EQ(engine.now(), 7.5);
  EXPECT_EQ(engine.executed(), 0u);
  // And never moves time backwards.
  engine.run_until(2.0);
  EXPECT_DOUBLE_EQ(engine.now(), 7.5);
}

TEST(SimEngine, RunUntilPicksUpReentrantSchedules) {
  // An event firing inside run_until(t) may schedule more events; those at
  // or before t run in the same call (including clamped past times), those
  // after t stay pending.
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(1.0, [&] {
    order.push_back(1);
    engine.schedule_at(0.5, [&] { order.push_back(2); });   // clamps to 1.0
    engine.schedule_at(2.0, [&] { order.push_back(3); });   // within t
    engine.schedule_at(10.0, [&] { order.push_back(4); });  // beyond t
  });
  engine.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SimEngine, RunUntilThenRunDrainsInOrder) {
  SimEngine engine;
  std::vector<double> times;
  for (double t : {5.0, 1.0, 3.0, 2.0, 4.0}) {
    engine.schedule_at(t, [&times, &engine] { times.push_back(engine.now()); });
  }
  engine.run_until(2.5);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
  engine.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
}

// ---- differential ordering: ladder engine vs reference binary heap ------

/// The seed implementation SimEngine replaced: one binary heap of
/// (time, seq, closure).  Kept here as the ordering oracle.
class ReferenceHeapEngine {
 public:
  Seconds now() const noexcept { return now_; }

  void schedule_at(Seconds t, std::function<void()> fn) {
    if (t < now_) t = now_;
    queue_.push(Event{t, next_seq_++, std::move(fn)});
  }

  bool step() {
    if (queue_.empty()) return false;
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    ev.fn();
    return true;
  }

  void run() {
    while (step()) {
    }
  }

 private:
  struct Event {
    Seconds time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

/// Replays one randomized schedule through `Engine` and logs the execution
/// order.  Event ids, spawn times, and cascade fan-out all come from a
/// deterministic Rng that advances *during execution*, so the log (and the
/// RNG stream itself) diverges at the first ordering difference.  Times are
/// quantized to a coarse grid to force plenty of exact (time, seq) ties,
/// and offsets dip negative to exercise the t < now() clamp.
template <typename Engine>
std::vector<std::pair<int, double>> replay_script(std::uint64_t seed,
                                                  int roots, int budget) {
  struct Script {
    Engine engine;
    Rng rng;
    std::vector<std::pair<int, double>> log;
    int budget;
    int next_id = 0;

    explicit Script(std::uint64_t s, int b) : rng(s), budget(b) {}

    double quantize(double t) { return std::floor(t * 4.0) / 4.0; }

    void spawn(double t) {
      const int id = next_id++;
      engine.schedule_at(t, [this, id] { fire(id); });
    }

    void fire(int id) {
      log.emplace_back(id, engine.now());
      const int kids = static_cast<int>(rng.uniform_int(0, 2));
      for (int k = 0; k < kids; ++k) {
        if (budget-- <= 0) return;
        // Negative offsets exercise the clamp; the quantized grid makes
        // same-time collisions (seq tie-breaks) common.
        spawn(engine.now() + quantize(rng.uniform(-2.0, 8.0)));
      }
    }
  };

  Script script(seed, budget);
  for (int i = 0; i < roots; ++i) {
    script.spawn(script.quantize(script.rng.uniform(0.0, 50.0)));
  }
  script.engine.run();
  return script.log;
}

TEST(SimEngine, DifferentialOrderingMatchesReferenceHeap) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 2026ULL, 0xdeadbeefULL}) {
    const auto ladder = replay_script<SimEngine>(seed, 200, 4000);
    const auto heap = replay_script<ReferenceHeapEngine>(seed, 200, 4000);
    ASSERT_EQ(ladder.size(), heap.size()) << "seed " << seed;
    ASSERT_EQ(ladder, heap) << "seed " << seed;
  }
}

TEST(SimEngine, DifferentialOrderingAcrossEpochRebuckets) {
  // Wide time range + few events per epoch forces many far-list re-bucket
  // cycles; dense bursts force big near buckets.  Both must keep exact
  // (time, seq) order.
  for (std::uint64_t seed : {3ULL, 99ULL}) {
    const auto ladder = replay_script<SimEngine>(seed, 1500, 12000);
    const auto heap = replay_script<ReferenceHeapEngine>(seed, 1500, 12000);
    ASSERT_EQ(ladder, heap) << "seed " << seed;
  }
}

TEST(SimEngine, DrainRefillDrainStaysOrdered) {
  // Re-using one engine across drains exercises the epoch reset path.
  SimEngine engine;
  std::vector<double> times;
  Rng rng(11);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 500; ++i) {
      engine.schedule_after(rng.uniform(0.0, 100.0),
                            [&] { times.push_back(engine.now()); });
    }
    engine.run();
  }
  EXPECT_EQ(times.size(), 2500u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
}

// ---- allocation-free steady state ---------------------------------------

TEST(SimEngine, SteadyStateEventPathDoesNotAllocate) {
  // Self-perpetuating churn with a platform-completion-sized capture: each
  // firing event schedules its successor, holding the pending population
  // constant.
  struct Churn {
    SimEngine* engine;
    Rng* rng;
    int* remaining;
    double payload[9] = {};  // 96 capture bytes, like Platform's closure

    void operator()() {
      if ((*remaining)-- > 0) {
        engine->schedule_at(engine->now() + rng->uniform(0.0, 3.0),
                            Churn(*this));
      }
    }
  };

  // Identical passes over one engine: the warm-up passes establish every
  // pool and bucket capacity high-water mark (random bucket densities keep
  // setting new records for a while, so a time-based warm-up cannot; and
  // the absolute-time shift between passes nudges FP bucket splits, so
  // capacities reach their fixpoint on the second pass).  The measured
  // pass replays the same relative schedule and must take the pure
  // steady-state path — zero heap allocations across 20k events.
  SimEngine engine;
  const auto run_pass = [&engine] {
    Rng rng(5);
    int remaining = 20000;
    for (int i = 0; i < 512; ++i) {
      engine.schedule_at(engine.now() + rng.uniform(0.0, 3.0),
                         Churn{&engine, &rng, &remaining});
    }
    engine.run();
  };
  run_pass();
  run_pass();
  ASSERT_EQ(engine.pending(), 0u);

  const std::size_t allocs_before = g_alloc_count.load();
  run_pass();
  const std::size_t allocs_after = g_alloc_count.load();
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "steady-state event path allocated";
}

TEST(SimEngine, SteadyStateRequestPathDoesNotAllocate) {
  // The whole request path — arrival, draw, sizing, platform invoke,
  // engine dispatch, completion, record — on one engine, platform and
  // request pool.  Each pass serves a fresh long open-loop tenant; the
  // warm-up passes establish the pool's slot count, the recycled slots'
  // vector capacities, the platform's pods and the engine's buckets (the
  // SteadyStateEventPathDoesNotAllocate pattern).  The measured pass's
  // engine.run() must then allocate nothing at all: no per-request
  // InFlight, no draw regrowth, no refcounted closure.
  RequestPool pool;
  SimEngine engine;
  const WorkloadSpec workload = make_ia();
  RunConfig config;
  config.slo = 3.0;
  config.requests = 4000;
  config.open_loop_rate = 40.0;
  config.record_stage_detail = false;
  PlatformConfig pc = config.platform;
  pc.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
  Platform platform(engine, pc, workload.chain_models(),
                    config.interference);
  FixedSizingPolicy policy("fixed", {1500, 1500, 1500});

  for (int pass = 0; pass < 2; ++pass) {
    RunResult warm;
    serve_workload(engine, pool, platform, workload, policy, config, warm);
    engine.run();
    ASSERT_EQ(warm.requests.size(), 4000u);
  }
  ASSERT_EQ(engine.pending(), 0u);
  ASSERT_EQ(pool.in_flight(), 0u);
  ASSERT_EQ(pool.live_tenants(), 0u);

  RunResult out;
  serve_workload(engine, pool, platform, workload, policy, config, out);
  const std::size_t allocs_before = g_alloc_count.load();
  engine.run();
  const std::size_t allocs_after = g_alloc_count.load();
  ASSERT_EQ(out.requests.size(), 4000u);
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "steady-state request path allocated";
  // The pool holds the live set, not the request stream.
  EXPECT_LT(pool.capacity(), 4000u);
}

// --------------------------------------------------------------- platform --
PlatformConfig small_platform() {
  PlatformConfig config;
  config.nodes = 2;
  config.pool.prewarm_per_function = 2;
  return config;
}

/// Platforms borrow their models, so the list lives for the whole run.
const std::vector<FunctionModel>& two_models() {
  static const std::vector<FunctionModel> models{
      make_micro_function(ResourceDim::Cpu),
      make_micro_function(ResourceDim::Network)};
  return models;
}

TEST(Platform, InvokeCompletesWithExecTime) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  InvocationOutcome got;
  platform.invoke(0, 2000, 1, 1.0, 1.0,
                  [&](const InvocationOutcome& o) { got = o; });
  engine.run();
  const double expected =
      two_models()[0].exec_time(2000, 1, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(got.exec_s, expected);
  EXPECT_DOUBLE_EQ(got.interference, 1.0);
  EXPECT_EQ(platform.invocations(), 1u);
}

TEST(Platform, WarmPodReusedNoColdStart) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  int cold = 0;
  for (int i = 0; i < 3; ++i) {
    platform.invoke(0, 1000, 1, 1.0, 1.0, [&](const InvocationOutcome& o) {
      cold += o.cold_start ? 1 : 0;
    });
    engine.run();
  }
  EXPECT_EQ(cold, 0);
  EXPECT_EQ(platform.cold_starts(), 0u);
}

TEST(Platform, ColdStartWhenPoolExhausted) {
  SimEngine engine;
  PlatformConfig config = small_platform();
  config.pool.prewarm_per_function = 0;  // no generic pods at all
  Platform platform(engine, config, two_models());
  bool cold = false;
  platform.invoke(0, 1000, 1, 1.0, 1.0,
                  [&](const InvocationOutcome& o) { cold = o.cold_start; });
  engine.run();
  EXPECT_TRUE(cold);
  EXPECT_EQ(platform.cold_starts(), 1u);
}

TEST(Platform, ColdStartSlowerThanWarm) {
  const PoolConfig pool;
  EXPECT_GT(pool.cold_start_s, pool.warm_start_s);
  SimEngine engine;
  PlatformConfig config = small_platform();
  config.pool.prewarm_per_function = 0;
  Platform platform(engine, config, two_models());
  Seconds cold_total = 0.0;
  platform.invoke(0, 1000, 1, 1.0, 1.0, [&](const InvocationOutcome& o) {
    cold_total = o.total();
  });
  engine.run();
  Seconds warm_total = 0.0;
  platform.invoke(0, 1000, 1, 1.0, 1.0, [&](const InvocationOutcome& o) {
    warm_total = o.total();
  });
  engine.run();
  EXPECT_GT(cold_total, warm_total);
}

TEST(Platform, ConcurrentInvocationsColocate) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  std::vector<int> coloc;
  for (int i = 0; i < 4; ++i) {
    platform.invoke(1, 1000, 1, 1.0, std::nullopt,
                    [&](const InvocationOutcome& o) {
                      coloc.push_back(o.colocated);
                    });
  }
  EXPECT_GE(platform.peak_colocation(1), 2);  // packed on one node
  engine.run();
  // Later invocations observed earlier busy pods of the same function.
  EXPECT_GT(*std::max_element(coloc.begin(), coloc.end()), 1);
}

TEST(Platform, PeakBusyCountersTrackEpochDemand) {
  // The fleet control plane's demand signal: busy pods now, and the
  // high-water mark since the last reset.
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  EXPECT_EQ(platform.pods_for_function(0), 0);
  EXPECT_EQ(platform.busy_pods_for(0), 0);
  EXPECT_EQ(platform.peak_busy_for(0), 0);
  for (int i = 0; i < 3; ++i) {
    platform.invoke(0, 1000, 1, 1.0, 1.0, [](const InvocationOutcome&) {});
  }
  EXPECT_EQ(platform.busy_pods_for(0), 3);
  EXPECT_EQ(platform.peak_busy_for(0), 3);
  EXPECT_EQ(platform.pods_for_function(0), 3);  // specialized on demand
  engine.run();
  // All done: busy drains, the peak survives until the epoch barrier
  // resets it...
  EXPECT_EQ(platform.busy_pods_for(0), 0);
  EXPECT_EQ(platform.peak_busy_for(0), 3);
  std::vector<int> peaks(2, -1);
  platform.take_peak_busy(peaks);
  EXPECT_EQ(peaks, (std::vector<int>{3, 0}));
  // ...and the new window starts from the current busy level.
  EXPECT_EQ(platform.peak_busy_for(0), 0);
  EXPECT_EQ(platform.pods_for_function(0), 3);  // footprint persists
  platform.invoke(0, 1000, 1, 1.0, 1.0, [](const InvocationOutcome&) {});
  EXPECT_EQ(platform.peak_busy_for(0), 1);
  engine.run();
  EXPECT_THROW(platform.busy_pods_for(7), std::invalid_argument);
  std::vector<int> short_buffer(1);
  EXPECT_THROW(platform.take_peak_busy(short_buffer), std::invalid_argument);
}

TEST(Platform, PrewarmedCompletionsDoNotAllocate) {
  // A fresh platform allocates each container once, at construction: with
  // at most prewarm_per_function invocations of a function in flight,
  // every pod comes from the generic pool and every completion returns it
  // to a warm list that was reserved for it.
  const PlatformConfig config = small_platform();
  const int share = config.pool.prewarm_per_function;
  SimEngine engine;
  const auto invoke_all = [&](Platform& platform) {
    for (int fn = 0; fn < 2; ++fn) {
      for (int i = 0; i < share; ++i) {
        platform.invoke(fn, 1000, 1, 1.0, 1.0,
                        [](const InvocationOutcome&) {});
      }
    }
  };
  // Warm-up: the same invocation pattern on throwaway platforms grows the
  // engine's slot pool and calendar buckets to this run's high-water mark.
  for (int pass = 0; pass < 2; ++pass) {
    Platform warm(engine, config, two_models());
    invoke_all(warm);
    engine.run();
  }
  Platform platform(engine, config, two_models());
  invoke_all(platform);
  ASSERT_EQ(platform.cold_starts(), 0u);
  const std::size_t allocs_before = g_alloc_count.load();
  engine.run();
  const std::size_t allocs_after = g_alloc_count.load();
  EXPECT_EQ(platform.busy_pods_for(0), 0);
  EXPECT_EQ(platform.busy_pods_for(1), 0);
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "pre-warmed completions allocated";
}

TEST(Platform, EndogenousInterferenceGrowsWithColocation) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  std::vector<InvocationOutcome> outs;
  for (int i = 0; i < 5; ++i) {
    platform.invoke(1, 1000, 1, 1.0, std::nullopt,
                    [&](const InvocationOutcome& o) { outs.push_back(o); });
  }
  engine.run();
  double max_interf = 0.0;
  for (const auto& o : outs) max_interf = std::max(max_interf, o.interference);
  EXPECT_GT(max_interf, 1.2);  // network-bound contention kicked in
}

TEST(Platform, ExogenousMultiplierAppliedVerbatim) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  InvocationOutcome got;
  platform.invoke(0, 1500, 1, 2.0, 3.0,
                  [&](const InvocationOutcome& o) { got = o; });
  engine.run();
  EXPECT_DOUBLE_EQ(got.interference, 3.0);
  EXPECT_DOUBLE_EQ(got.exec_s, two_models()[0].exec_time(1500, 1, 2.0, 3.0));
}

TEST(Platform, BusyMillicoresTracksInFlight) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  platform.invoke(0, 2500, 1, 1.0, 1.0, [](const InvocationOutcome&) {});
  EXPECT_EQ(platform.busy_millicores(), 2500);
  engine.run();
  EXPECT_EQ(platform.busy_millicores(), 0);
}

TEST(Platform, NonBatchableRejectsBatch) {
  SimEngine engine;
  const auto va = make_va();
  Platform platform(engine, small_platform(), va.chain_models());
  EXPECT_THROW(
      platform.invoke(0, 1000, 2, 1.0, 1.0, [](const InvocationOutcome&) {}),
      std::invalid_argument);
}

TEST(Platform, InvalidInvokeArgsThrow) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  EXPECT_THROW(
      platform.invoke(9, 1000, 1, 1.0, 1.0, [](const InvocationOutcome&) {}),
      std::invalid_argument);
  EXPECT_THROW(
      platform.invoke(0, 0, 1, 1.0, 1.0, [](const InvocationOutcome&) {}),
      std::invalid_argument);
}

TEST(Platform, ResizeOnWarmReuse) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  // First at 1000, then at 3000: warm pod is resized, not cold-started.
  platform.invoke(0, 1000, 1, 1.0, 1.0, [](const InvocationOutcome&) {});
  engine.run();
  bool cold = true;
  platform.invoke(0, 3000, 1, 1.0, 1.0,
                  [&](const InvocationOutcome& o) { cold = o.cold_start; });
  EXPECT_EQ(platform.busy_millicores(), 3000);
  engine.run();
  EXPECT_FALSE(cold);
}

TEST(Platform, DeterministicAcrossRuns) {
  auto run_once = [] {
    SimEngine engine;
    Platform platform(engine, small_platform(), two_models());
    std::vector<double> times;
    for (int i = 0; i < 5; ++i) {
      platform.invoke(1, 1200, 1, 1.0, std::nullopt,
                      [&](const InvocationOutcome& o) {
                        times.push_back(o.exec_s);
                      });
    }
    engine.run();
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}


TEST(Platform, ScaleOutLimitQueuesInvocations) {
  SimEngine engine;
  PlatformConfig config = small_platform();
  config.pool.max_pods_per_function = 2;
  Platform platform(engine, config, two_models());
  std::vector<InvocationOutcome> outs;
  for (int i = 0; i < 5; ++i) {
    platform.invoke(0, 1000, 1, 1.0, 1.0,
                    [&](const InvocationOutcome& o) { outs.push_back(o); });
  }
  // Only two pods may exist: three invocations wait in the queue.
  EXPECT_EQ(platform.queued_invocations(), 3u);
  engine.run();
  ASSERT_EQ(outs.size(), 5u);
  EXPECT_EQ(platform.queued_invocations(), 0u);
  // The queued ones record a positive wait.
  std::size_t waited = 0;
  for (const auto& o : outs) waited += o.queued_s > 0.0 ? 1 : 0;
  EXPECT_EQ(waited, 3u);
}

TEST(Platform, QueueDrainsInFifoOrder) {
  SimEngine engine;
  PlatformConfig config = small_platform();
  config.pool.max_pods_per_function = 1;
  Platform platform(engine, config, two_models());
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    platform.invoke(0, 1000, 1, 1.0, 1.0,
                    [&order, i](const InvocationOutcome&) {
                      order.push_back(i);
                    });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Platform, UnlimitedPodsNeverQueue) {
  SimEngine engine;
  Platform platform(engine, small_platform(), two_models());
  for (int i = 0; i < 10; ++i) {
    platform.invoke(0, 1000, 1, 1.0, 1.0, [](const InvocationOutcome&) {});
  }
  EXPECT_EQ(platform.queued_invocations(), 0u);
  engine.run();
}

}  // namespace
}  // namespace janus
