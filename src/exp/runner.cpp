#include "exp/runner.hpp"

#include <cstdint>
#include <memory>

#include "sim/engine.hpp"

namespace janus {

EmpiricalDistribution RunResult::e2e_distribution() const {
  std::vector<double> samples;
  samples.reserve(requests.size());
  for (const auto& r : requests) samples.push_back(r.e2e);
  return EmpiricalDistribution(std::move(samples));
}

double RunResult::mean_cpu() const {
  if (requests.empty()) return 0.0;
  double total = 0.0;
  for (const auto& r : requests) total += r.cpu_mc;
  return total / static_cast<double>(requests.size());
}

double RunResult::violation_rate() const {
  if (requests.empty()) return 0.0;
  std::size_t v = 0;
  for (const auto& r : requests) v += r.violated ? 1 : 0;
  return static_cast<double>(v) / static_cast<double>(requests.size());
}

double RunResult::e2e_percentile(double p) const {
  return e2e_distribution().percentile(p);
}

namespace {

/// The request-randomness stream, factored so the lazy per-request path in
/// serve_workload and the eager draw_requests() helper consume *the same*
/// rng in the same order — a draw is a pure function of (seed, index).
struct DrawContext {
  /// Borrowed from the workload spec (which outlives every run on it).
  const std::vector<FunctionModel>* models = nullptr;
  /// Stage s draws its co-location count from *per_stage[s]: the frozen
  /// provider's own distributions, or entries of `owned`.
  std::vector<const CoLocationDistribution*> per_stage;
  /// The config's single distribution (no provider) or a live provider's
  /// snapshot.  Moving the context moves this buffer, so the pointers
  /// above stay valid.
  std::vector<CoLocationDistribution> owned;
  Concurrency concurrency = 1;
  InterferenceModel interference;
  Rng rng{0};

  static DrawContext make(const WorkloadSpec& workload,
                          const RunConfig& config) {
    DrawContext ctx;
    ctx.models = &workload.chain_models();
    const std::size_t stages = ctx.models->size();
    const CoLocationProvider* provider = config.colocation_provider;
    require(provider == nullptr || provider->stages() == stages,
            "co-location provider needs one distribution per chain stage");
    // A live provider is snapshotted once: the draw stream must be
    // consumed identically on every run (paired requests), even when the
    // provider shifts under it mid-run.  A frozen one never shifts, so it
    // is read in place.
    if (provider == nullptr) {
      ctx.owned.push_back(
          config.colocation_is_default
              ? CoLocationDistribution::for_concurrency(config.concurrency)
              : config.colocation);
    } else if (provider->live()) {
      ctx.owned.reserve(stages);
      for (std::size_t s = 0; s < stages; ++s) {
        ctx.owned.push_back(provider->stage_distribution(s));
      }
    }
    ctx.per_stage.reserve(stages);
    for (std::size_t s = 0; s < stages; ++s) {
      const CoLocationDistribution* dist =
          provider == nullptr ? &ctx.owned[0]
          : provider->live()  ? &ctx.owned[s]
                              : &provider->stage_distribution(s);
      ctx.per_stage.push_back(dist);
    }
    ctx.concurrency = config.concurrency;
    ctx.interference = config.interference;
    ctx.rng = Rng(config.seed).split(0x5eedULL);
    return ctx;
  }

  /// Refills `draw` with the next request's randomness.  Clearing (not
  /// reassigning) keeps the vectors' capacity, so a recycled pool slot
  /// redraws without allocating.
  void next_into(RequestDraw& draw) {
    draw.ws.clear();
    draw.interference.clear();
    // A fresh slot sizes its vectors once instead of growing them.
    draw.ws.reserve(models->size());
    draw.interference.reserve(models->size());
    for (std::size_t s = 0; s < models->size(); ++s) {
      const auto& model = (*models)[s];
      draw.ws.push_back(model.sample_ws(concurrency, rng));
      const int n = per_stage[s]->sample(rng);
      draw.interference.push_back(
          interference.sample_multiplier(model.dim(), n, rng));
    }
  }

  RequestDraw next() {
    RequestDraw draw;
    next_into(draw);
    return draw;
  }
};

}  // namespace

std::vector<RequestDraw> draw_requests(const WorkloadSpec& workload,
                                       const RunConfig& config) {
  require(config.requests > 0, "run needs >= 1 request");
  DrawContext ctx = DrawContext::make(workload, config);
  std::vector<RequestDraw> draws;
  draws.reserve(static_cast<std::size_t>(config.requests));
  for (int r = 0; r < config.requests; ++r) draws.push_back(ctx.next());
  return draws;
}

namespace detail {

/// One in-flight request: a pool slot, recycled LIFO.  A recycled slot
/// keeps the capacity of its draw and record vectors, so refilling it
/// allocates nothing once the pool has seen the longest chain it serves.
struct InFlight {
  RequestDraw draw;
  RequestRecord record;
  Seconds elapsed = 0.0;
  std::uint32_t index = 0;  // request index (live interference rng stream)
  std::uint32_t stage = 0;

  /// Resets the slot for request `i` of a `stages`-stage chain; the detail
  /// columns are sized (not grown) so completions write them by stage.
  void reset(std::uint32_t i, std::size_t stages, bool detail) {
    record.e2e = 0.0;
    record.cpu_mc = 0.0;
    record.violated = false;
    record.sizes.resize(detail ? stages : 0);
    record.stage_total.resize(detail ? stages : 0);
    elapsed = 0.0;
    index = i;
    stage = 0;
  }
};

/// Everything one serve_workload call needs while its events drain.  Owned
/// by the RequestPool and freed when the tenant's last request completes;
/// the scheduled closures hold a raw pointer to it.
struct ServeState {
  RequestPool* pool = nullptr;
  std::size_t pool_index = 0;  // position in pool->states_
  DrawContext draws;             // lazy stream; consumed in index order
  std::size_t total_requests = 0;
  std::size_t completed = 0;
  Platform* platform = nullptr;
  SizingPolicy* policy = nullptr;
  RunResult* out = nullptr;
  std::size_t stages = 0;
  Seconds slo = 0.0;
  Concurrency concurrency = 1;
  bool endogenous_interference = false;
  bool record_detail = true;
  bool closed_loop = false;
  std::size_t next_request = 0;  // closed-loop cursor
  // Open-loop arrivals as a chained event ladder: arrival i schedules
  // arrival i+1 when it fires, so the calendar holds O(1) arrival events
  // per tenant instead of the whole stream.  The rng consumption (and so
  // every arrival time) is identical to the historical pre-scheduled loop.
  SimEngine* engine = nullptr;
  std::unique_ptr<ArrivalProcess> process;
  Rng arrivals_rng{0};
  Seconds arrival_time = 0.0;
  std::size_t next_arrival = 0;
  // Live co-location feed (epoch-driven): the multiplier is drawn at
  // stage-launch time from the distribution in effect *now*.  The rng for
  // request r / stage s is derived from (seed, r, s) alone, so neither
  // event interleaving nor the shard count can shift any draw — only the
  // epoch's distribution can.
  const CoLocationProvider* live_feed = nullptr;
  Rng live_rng_base{0};
  std::vector<ResourceDim> dims;
  InterferenceModel interference;
  // Span tracing (null = off): sampled by request index, so the recorded
  // set is a pure function of the config, never of event interleaving.
  TraceRing* trace_ring = nullptr;
  std::size_t trace_sample_every = 1;
  std::uint32_t trace_tenant = 0;

  std::uint32_t make_request(std::size_t index);
  void start_request(std::uint32_t slot);
  void launch_stage(std::uint32_t slot);
  void finish_stage(std::uint32_t slot, Millicores size,
                    const InvocationOutcome& outcome);
  void schedule_next_arrival();
  void record_span(const InFlight& req, Millicores size,
                   const InvocationOutcome& outcome) const;
};

}  // namespace detail

RequestPool::RequestPool() = default;
RequestPool::~RequestPool() = default;

JANUS_HOT std::uint32_t RequestPool::acquire() {
  if (free_.empty()) grow();
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  return slot;
}

void RequestPool::grow() {
  // Cold path: one more chunk of slots, once per kChunkSlots of new live
  // high-water mark.  Chunks never move, so slot addresses stay stable
  // while the chunk table grows.
  require(capacity() + kChunkSlots <= UINT32_MAX, "request pool exhausted");
  const auto base = static_cast<std::uint32_t>(capacity());
  chunks_.push_back(std::make_unique<detail::InFlight[]>(kChunkSlots));
  free_.reserve(capacity());
  // Pushed in reverse so the chunk hands out its slots in address order.
  for (std::size_t k = kChunkSlots; k-- > 0;) {
    free_.push_back(base + static_cast<std::uint32_t>(k));
  }
}

JANUS_HOT void RequestPool::release(std::uint32_t slot) noexcept {
  // janus-lint: allow(hot-path-growth) free list capacity is reserved in
  // grow() for every slot that exists; push_back never reallocates.
  free_.push_back(slot);
}

JANUS_HOT detail::InFlight& RequestPool::at(std::uint32_t slot) noexcept {
  return chunks_[slot / kChunkSlots][slot % kChunkSlots];
}

void RequestPool::adopt(std::unique_ptr<detail::ServeState> state) {
  state->pool = this;
  state->pool_index = states_.size();
  states_.push_back(std::move(state));
}

void RequestPool::retire(detail::ServeState& state) noexcept {
  // Swap-and-pop: O(1), and the moved neighbour learns its new position.
  const std::size_t i = state.pool_index;
  std::swap(states_[i], states_.back());
  states_[i]->pool_index = i;
  states_.pop_back();  // frees `state`
}

namespace detail {

/// Fixed-width span from one completed stage invocation.  The span start
/// is reconstructed as now() - total: the completion event fires exactly
/// queued+startup+exec simulated seconds after the invocation entered the
/// platform, so the subtraction is exact in the same sense the simulation
/// is — identical doubles at any shard count.
void ServeState::record_span(const InFlight& req, Millicores size,
                             const InvocationOutcome& outcome) const {
  SpanRecord span;
  span.tenant = trace_tenant;
  span.request = req.index;
  span.stage = static_cast<std::uint16_t>(req.stage);
  span.cold = outcome.cold_start ? 1 : 0;
  span.queued = outcome.queued_s > 0.0 ? 1 : 0;
  span.pod = outcome.pod;
  span.node = outcome.node;
  span.colocated = outcome.colocated;
  span.size_mc = size;
  span.start_s = platform->now() - outcome.total();
  span.queued_s = outcome.queued_s;
  span.startup_s = outcome.startup_s;
  span.exec_s = outcome.exec_s;
  span.interference = outcome.interference;
  trace_ring->record(span);
}

JANUS_HOT void ServeState::launch_stage(std::uint32_t slot) {
  InFlight& req = pool->at(slot);
  const Millicores size =
      policy->size_for_stage(req.stage, req.elapsed, req.draw);
  std::optional<double> exo;
  if (!endogenous_interference) {
    if (live_feed != nullptr) {
      const std::size_t stream = std::size_t{req.index} * stages + req.stage;
      Rng rng = live_rng_base.split(stream);
      const int n = live_feed->stage_distribution(req.stage).sample(rng);
      exo = interference.sample_multiplier(dims[req.stage], n, rng);
    } else {
      exo = req.draw.interference[req.stage];
    }
  }
  platform->invoke(static_cast<int>(req.stage), size, concurrency,
                   req.draw.ws[req.stage], exo,
                   [this, slot, size](const InvocationOutcome& outcome) {
                     finish_stage(slot, size, outcome);
                   });
}

/// The completion-callback body: folds the stage outcome into the slot,
/// launches the next stage or completes the request.  Completing the
/// tenant's last request frees this state, so that is the final statement.
JANUS_HOT void ServeState::finish_stage(std::uint32_t slot, Millicores size,
                                        const InvocationOutcome& outcome) {
  InFlight& req = pool->at(slot);
  if (trace_ring != nullptr && req.index % trace_sample_every == 0) {
    record_span(req, size, outcome);
  }
  req.elapsed += outcome.total();
  req.record.cpu_mc += static_cast<double>(size);
  if (record_detail) {
    req.record.sizes[req.stage] = size;
    req.record.stage_total[req.stage] = outcome.total();
  }
  ++req.stage;
  if (req.stage < stages) {
    launch_stage(slot);
    return;
  }
  req.record.e2e = req.elapsed;
  req.record.violated = req.elapsed > slo;
  // janus-lint: allow(hot-path-growth) serve_workload reserved the log for
  // every request up front, so this writes into a preallocated arena chunk.
  out->requests.push_back(req.record);
  pool->release(slot);
  if (closed_loop && next_request < total_requests) {
    // Next request enters the moment this one finished — the paper's
    // sequential measurement loop, expressed as an event chain so the
    // engine can be shared.
    start_request(make_request(next_request++));
  }
  if (++completed == total_requests) pool->retire(*this);
}

JANUS_HOT std::uint32_t ServeState::make_request(std::size_t index) {
  // Requests start in index order (sequential closed loop, chained
  // open-loop arrivals), so drawing here consumes the 0x5eed stream
  // exactly as the eager draw_requests() table did.
  const std::uint32_t slot = pool->acquire();
  InFlight& req = pool->at(slot);
  req.reset(static_cast<std::uint32_t>(index), stages, record_detail);
  draws.next_into(req.draw);
  return slot;
}

JANUS_HOT void ServeState::start_request(std::uint32_t slot) {
  policy->on_request_start(pool->at(slot).draw);
  launch_stage(slot);
}

/// Schedules arrival `next_arrival` and, when it fires, the one after it.
JANUS_HOT void ServeState::schedule_next_arrival() {
  if (next_arrival >= total_requests) return;
  const std::size_t i = next_arrival++;
  arrival_time = process->next(arrival_time, arrivals_rng);
  engine->schedule_at(arrival_time, [this, i] {
    schedule_next_arrival();
    start_request(make_request(i));
  });
}

}  // namespace detail

void serve_workload(SimEngine& engine, RequestPool& pool, Platform& platform,
                    const WorkloadSpec& workload, SizingPolicy& policy,
                    const RunConfig& config, RunResult& out) {
  require(config.slo > 0.0, "SLO must be > 0");
  require(config.requests > 0, "run needs >= 1 request");
  auto owned = std::make_unique<detail::ServeState>();
  detail::ServeState* st = owned.get();
  st->draws = DrawContext::make(workload, config);
  st->total_requests = static_cast<std::size_t>(config.requests);
  st->platform = &platform;
  st->policy = &policy;
  st->out = &out;
  st->stages = st->draws.models->size();
  st->slo = config.slo;
  st->concurrency = config.concurrency;
  st->endogenous_interference = config.endogenous_interference;
  st->record_detail = config.record_stage_detail;
  if (config.trace_ring != nullptr) {
    require(config.trace_sample_every >= 1,
            "trace sampling stride must be >= 1");
    st->trace_ring = config.trace_ring;
    st->trace_sample_every =
        static_cast<std::size_t>(config.trace_sample_every);
    st->trace_tenant = config.trace_tenant;
  }
  if (config.colocation_provider != nullptr &&
      config.colocation_provider->live()) {
    st->live_feed = config.colocation_provider;
    st->live_rng_base = Rng(config.seed).split(0x11feULL);
    st->interference = config.interference;
    for (const auto& model : *st->draws.models) {
      st->dims.push_back(model.dim());
    }
  }

  out.policy_name = policy.name();
  out.slo = config.slo;
  out.requests.configure(st->stages, config.record_stage_detail);
  out.requests.reserve(out.requests.size() + st->total_requests);

  if (config.open_loop_rate > 0.0) {
    // Open loop: pluggable arrival process; requests overlap on the
    // platform.  The base rate stays the legacy open_loop_rate knob; the
    // MMPP burst rate scales with it so the spec's burst/base ratio — the
    // process's *shape* — survives the override.
    ArrivalSpec spec = config.arrivals;
    if (spec.rate > 0.0) {
      spec.burst_rate *= config.open_loop_rate / spec.rate;
    }
    spec.rate = config.open_loop_rate;
    st->engine = &engine;
    st->process = make_arrivals(spec);
    st->arrivals_rng = Rng(config.seed).split(0xa11aULL);
    st->arrival_time = engine.now();
  } else {
    // Closed loop: one request at a time (the paper's 1000-request runs).
    st->closed_loop = true;
    st->next_request = 1;
  }
  // The pool owns the state from here until its last request completes.
  pool.adopt(std::move(owned));
  if (st->closed_loop) {
    st->start_request(st->make_request(0));
  } else {
    st->schedule_next_arrival();
  }
}

RunResult run_workload(const WorkloadSpec& workload, SizingPolicy& policy,
                       const RunConfig& config) {
  RequestPool pool;  // outlives the engine's pending closures
  SimEngine engine;
  PlatformConfig platform_config = config.platform;
  platform_config.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
  Platform platform(engine, platform_config, workload.chain_models(),
                    config.interference);
  RunResult result;
  serve_workload(engine, pool, platform, workload, policy, config, result);
  engine.run();
  return result;
}

}  // namespace janus
