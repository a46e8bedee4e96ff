#include "exp/runner.hpp"

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
  std::vector<FunctionModel> models;
  CoLocationDistribution coloc;
  std::vector<CoLocationDistribution> per_stage;  // provider snapshot
  Concurrency concurrency = 1;
  InterferenceModel interference;
  Rng rng{0};

  static DrawContext make(const WorkloadSpec& workload,
                          const RunConfig& config) {
    DrawContext ctx;
    ctx.models = workload.chain_models();
    require(config.colocation_provider == nullptr ||
                config.colocation_provider->stages() == ctx.models.size(),
            "co-location provider needs one distribution per chain stage");
    ctx.coloc =
        config.colocation_is_default
            ? CoLocationDistribution::for_concurrency(config.concurrency)
            : config.colocation;
    // Snapshot the provider's distributions once: the draw stream must be
    // consumed identically on every run (paired requests), even when a
    // live provider shifts under it mid-run.
    if (config.colocation_provider != nullptr) {
      ctx.per_stage.reserve(ctx.models.size());
      for (std::size_t s = 0; s < ctx.models.size(); ++s) {
        ctx.per_stage.push_back(
            config.colocation_provider->stage_distribution(s));
      }
    }
    ctx.concurrency = config.concurrency;
    ctx.interference = config.interference;
    ctx.rng = Rng(config.seed).split(0x5eedULL);
    return ctx;
  }

  RequestDraw next() {
    RequestDraw draw;
    for (std::size_t s = 0; s < models.size(); ++s) {
      const auto& model = models[s];
      draw.ws.push_back(model.sample_ws(concurrency, rng));
      const CoLocationDistribution& dist =
          per_stage.empty() ? coloc : per_stage[s];
      const int n = dist.sample(rng);
      draw.interference.push_back(
          interference.sample_multiplier(model.dim(), n, rng));
    }
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

namespace {

/// Per-request execution state machine driven by platform callbacks.  Owns
/// its draw by value — nothing keeps a 100k-tenant fleet's full draw table
/// alive, only the O(in-flight) requests actually on the platform.
struct InFlight {
  RequestDraw draw;
  std::size_t index = 0;  // request index (live interference rng stream)
  std::size_t stage = 0;
  Seconds elapsed = 0.0;
  RequestRecord record;
};

/// Everything one serve_workload call needs while its events drain.  Owned
/// by shared_ptr from the scheduled closures; freed when the last request
/// completes and the closures are destroyed.
struct ServeState {
  DrawContext draws;              // lazy stream; consumed in index order
  std::size_t total_requests = 0;
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
};

/// Fixed-width span from one completed stage invocation.  The span start
/// is reconstructed as now() - total: the completion event fires exactly
/// queued+startup+exec simulated seconds after the invocation entered the
/// platform, so the subtraction is exact in the same sense the simulation
/// is — identical doubles at any shard count.
void record_span(const ServeState& st, const InFlight& req,
                 Millicores size, const InvocationOutcome& outcome) {
  SpanRecord span;
  span.tenant = st.trace_tenant;
  span.request = static_cast<std::uint32_t>(req.index);
  span.stage = static_cast<std::uint16_t>(req.stage);
  span.cold = outcome.cold_start ? 1 : 0;
  span.queued = outcome.queued_s > 0.0 ? 1 : 0;
  span.pod = outcome.pod;
  span.node = outcome.node;
  span.colocated = outcome.colocated;
  span.size_mc = size;
  span.start_s = st.platform->now() - outcome.total();
  span.queued_s = outcome.queued_s;
  span.startup_s = outcome.startup_s;
  span.exec_s = outcome.exec_s;
  span.interference = outcome.interference;
  st.trace_ring->record(span);
}

void start_request(const std::shared_ptr<ServeState>& st,
                   const std::shared_ptr<InFlight>& req);
std::shared_ptr<InFlight> make_request(const std::shared_ptr<ServeState>& st,
                                       std::size_t index);

void launch_stage(const std::shared_ptr<ServeState>& st,
                  const std::shared_ptr<InFlight>& req) {
  const Millicores size =
      st->policy->size_for_stage(req->stage, req->elapsed, req->draw);
  std::optional<double> exo;
  if (!st->endogenous_interference) {
    if (st->live_feed != nullptr) {
      Rng rng =
          st->live_rng_base.split(req->index * st->stages + req->stage);
      const int n =
          st->live_feed->stage_distribution(req->stage).sample(rng);
      exo = st->interference.sample_multiplier(st->dims[req->stage], n, rng);
    } else {
      exo = req->draw.interference[req->stage];
    }
  }
  st->platform->invoke(
      static_cast<int>(req->stage), size, st->concurrency,
      req->draw.ws[req->stage], exo,
      [st, req, size](const InvocationOutcome& outcome) {
        if (st->trace_ring != nullptr &&
            req->index % st->trace_sample_every == 0) {
          record_span(*st, *req, size, outcome);
        }
        req->elapsed += outcome.total();
        req->record.cpu_mc += static_cast<double>(size);
        if (st->record_detail) {
          req->record.sizes.push_back(size);
          req->record.stage_total.push_back(outcome.total());
        }
        ++req->stage;
        if (req->stage < st->stages) {
          launch_stage(st, req);
          return;
        }
        req->record.e2e = req->elapsed;
        req->record.violated = req->elapsed > st->slo;
        st->out->requests.push_back(req->record);
        if (st->closed_loop && st->next_request < st->total_requests) {
          // Next request enters the moment this one finished — the
          // paper's sequential measurement loop, expressed as an event
          // chain so the engine can be shared.
          start_request(st, make_request(st, st->next_request++));
        }
      });
}

std::shared_ptr<InFlight> make_request(const std::shared_ptr<ServeState>& st,
                                       std::size_t index) {
  // Requests start in index order (sequential closed loop, chained
  // open-loop arrivals), so drawing here consumes the 0x5eed stream
  // exactly as the eager draw_requests() table did.
  auto req = std::make_shared<InFlight>();
  req->draw = st->draws.next();
  req->index = index;
  return req;
}

void start_request(const std::shared_ptr<ServeState>& st,
                   const std::shared_ptr<InFlight>& req) {
  st->policy->on_request_start(req->draw);
  launch_stage(st, req);
}

/// Schedules arrival `next_arrival` and, when it fires, the one after it.
void schedule_next_arrival(const std::shared_ptr<ServeState>& st) {
  if (st->next_arrival >= st->total_requests) return;
  const std::size_t i = st->next_arrival++;
  st->arrival_time = st->process->next(st->arrival_time, st->arrivals_rng);
  st->engine->schedule_at(st->arrival_time, [st, i] {
    schedule_next_arrival(st);
    start_request(st, make_request(st, i));
  });
}

}  // namespace

void serve_workload(SimEngine& engine, Platform& platform,
                    const WorkloadSpec& workload, SizingPolicy& policy,
                    const RunConfig& config, RunResult& out) {
  require(config.slo > 0.0, "SLO must be > 0");
  require(config.requests > 0, "run needs >= 1 request");
  auto st = std::make_shared<ServeState>();
  st->draws = DrawContext::make(workload, config);
  st->total_requests = static_cast<std::size_t>(config.requests);
  st->platform = &platform;
  st->policy = &policy;
  st->out = &out;
  st->stages = st->draws.models.size();
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
    for (const auto& model : workload.chain_models()) {
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
    schedule_next_arrival(st);
  } else {
    // Closed loop: one request at a time (the paper's 1000-request runs).
    st->closed_loop = true;
    st->next_request = 1;
    start_request(st, make_request(st, 0));
  }
}

RunResult run_workload(const WorkloadSpec& workload, SizingPolicy& policy,
                       const RunConfig& config) {
  SimEngine engine;
  PlatformConfig platform_config = config.platform;
  platform_config.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
  Platform platform(engine, platform_config, workload.chain_models(),
                    config.interference);
  RunResult result;
  serve_workload(engine, platform, workload, policy, config, result);
  engine.run();
  return result;
}

}  // namespace janus
