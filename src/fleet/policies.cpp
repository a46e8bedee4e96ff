#include "fleet/policies.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <utility>

#include "adapter/adapter.hpp"
#include "common/log.hpp"
#include "policy/early_binding.hpp"
#include "policy/janus_policy.hpp"
#include "policy/mean_based.hpp"
#include "policy/optimal.hpp"
#include "policy/orion.hpp"
#include "profiler/profiler.hpp"

namespace janus {

namespace {

/// Catalog names in the order error messages list them.
const char* const kPolicyNames[] = {"fixed",      "janus",     "janus-",
                                    "janus+",     "orion",     "grandslam",
                                    "grandslam+", "mean_based", "optimal"};

/// Policy label of the families that run at fixed per-stage sizes (their
/// plan sizes); nullptr for the late-binding families.
const char* fixed_label(const std::string& name) {
  if (name == "fixed") return "fixed";
  if (name == "orion") return "ORION";
  if (name == "grandslam") return "GrandSLAM";
  if (name == "grandslam+") return "GrandSLAM+";
  return nullptr;
}

Exploration exploration_of(const std::string& name) {
  if (name == "janus-") return Exploration::FixedP99;
  if (name == "janus+") return Exploration::HeadAndNext;
  return Exploration::HeadOnly;
}

/// Neutral request draw (ws = 1, interference = 1) for plan-time probing
/// of late-binding policies.
RequestDraw neutral_draw(std::size_t stages) {
  RequestDraw draw;
  draw.ws.assign(stages, 1.0);
  draw.interference.assign(stages, 1.0);
  return draw;
}

}  // namespace

const std::vector<std::string>& fleet_policy_names() {
  static const std::vector<std::string> names(std::begin(kPolicyNames),
                                              std::end(kPolicyNames));
  return names;
}

bool is_fleet_policy(const std::string& name) noexcept {
  for (const auto& known : fleet_policy_names()) {
    if (known == name) return true;
  }
  return false;
}

std::string fleet_policy_list() {
  std::string out;
  for (const auto& name : fleet_policy_names()) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

void require_fleet_policy(const std::string& name) {
  if (!is_fleet_policy(name)) {
    throw_invalid("unknown sizing policy '" + name +
                  "' (valid: " + fleet_policy_list() + ")");
  }
}

PolicyCatalog::PolicyCatalog(PolicyCatalogConfig config) : config_(config) {
  require(config_.profile_samples > 0, "catalog needs >= 1 profile sample");
  require(config_.budget_step > 0, "catalog budget step must be > 0");
  require(config_.kmin > 0 && config_.kmax >= config_.kmin &&
              config_.kstep > 0,
          "catalog millicore grid is degenerate");
}

const std::vector<LatencyProfile>& PolicyCatalog::profiles(
    const WorkloadSpec& workload, Concurrency conc) {
  const auto key = std::make_pair(workload.name, conc);
  auto it = profiles_.find(key);
  if (it != profiles_.end()) return it->second;
  ProfilerConfig prof = default_profiler_config(workload);
  prof.grid.kmin = config_.kmin;
  prof.grid.kmax = config_.kmax;
  prof.grid.kstep = config_.kstep;
  prof.grid.concurrencies = {conc};
  prof.samples_per_point = config_.profile_samples;
  ++stats_.profiles_built;
  log_info("catalog: profiling workload '", workload.name, "' @conc=", conc,
           " (", config_.profile_samples, " samples/point)");
  return profiles_
      .emplace(key, profile_workload(workload, prof))
      .first->second;
}

std::string hints_bundle_filename(const std::string& workload,
                                  Concurrency conc, Exploration exploration,
                                  std::size_t suffix) {
  return workload + "_c" + std::to_string(conc) + "_" +
         to_string(exploration) + "_suffix" + std::to_string(suffix) +
         ".csv";
}

std::shared_ptr<const HintsBundle> PolicyCatalog::bundle(
    const WorkloadSpec& workload, Concurrency conc, Exploration exploration) {
  const auto key =
      std::make_tuple(workload.name, conc, static_cast<int>(exploration));
  auto it = bundles_.find(key);
  if (it != bundles_.end()) return it->second;
  if (!config_.hints_dir.empty()) {
    // Cross-process reuse: committed tables (canonical filenames) replace
    // synthesis.  The CSV round trip is exact, so a loaded bundle is the
    // synthesized bundle bit-for-bit.
    std::vector<HintsTable> tables;
    for (std::size_t j = 0;; ++j) {
      std::ifstream in(config_.hints_dir + "/" +
                           hints_bundle_filename(workload.name, conc,
                                                 exploration, j),
                       std::ios::binary);
      if (!in) break;
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      tables.push_back(HintsTable::from_csv(text));
    }
    if (!tables.empty()) {
      if (tables.size() != workload.chain_models().size()) {
        throw_invalid("hints dir holds a partial bundle for workload '" +
                      workload.name + "' (one CSV per suffix required)");
      }
      ++stats_.bundles_loaded;
      log_info("catalog: loaded hints for workload '", workload.name,
               "' @conc=", conc, " from ", config_.hints_dir);
      // janus-lint: allow(mutable-hints-bundle) construction staging only —
      // frozen into a shared_ptr<const HintsBundle> two lines down.
      HintsBundle loaded;
      loaded.suffix_tables = std::move(tables);
      loaded.concurrency = conc;
      auto built = std::make_shared<const HintsBundle>(std::move(loaded));
      return bundles_.emplace(key, std::move(built)).first->second;
    }
  }
  SynthesisConfig synth;
  synth.kmin = config_.kmin;
  synth.kmax = config_.kmax;
  synth.kstep = config_.kstep;
  synth.concurrency = conc;
  synth.exploration = exploration;
  // Janus+ sweeps (p, k) x (p, k); a coarser budget grid keeps it
  // tractable (same trade bench_util.hpp makes for the paper benches).
  synth.budget_step = exploration == Exploration::HeadAndNext
                          ? std::max<BudgetMs>(config_.budget_step, 5)
                          : config_.budget_step;
  ++stats_.bundles_built;
  log_info("catalog: synthesizing hints for workload '", workload.name,
           "' @conc=", conc, " exploration=", static_cast<int>(exploration));
  auto built = std::make_shared<const HintsBundle>(
      synthesize_bundle(profiles(workload, conc), synth));
  return bundles_.emplace(key, std::move(built)).first->second;
}

EarlyBindingInputs PolicyCatalog::early_inputs(const WorkloadSpec& workload,
                                               Seconds slo, Concurrency conc) {
  EarlyBindingInputs in;
  in.profiles = &profiles(workload, conc);
  in.slo = slo;
  in.concurrency = conc;
  in.kmin = config_.kmin;
  in.kmax = config_.kmax;
  in.kstep = config_.kstep;
  return in;
}

const std::vector<Millicores>& PolicyCatalog::early_sizes(
    const std::string& family, const WorkloadSpec& workload, Seconds slo,
    Concurrency conc) {
  const auto key = std::make_tuple(family, workload.name, conc, slo);
  auto it = early_.find(key);
  if (it != early_.end()) return it->second;
  ++stats_.early_solved;
  const EarlyBindingInputs in = early_inputs(workload, slo, conc);
  std::vector<Millicores> sizes;
  if (family == "orion") {
    ++stats_.orion_solved;
    sizes = orion_sizes(in);
  } else if (family == "grandslam") {
    sizes = grandslam_sizes(in);
  } else {
    sizes = grandslam_plus_sizes(in);
  }
  return early_.emplace(key, std::move(sizes)).first->second;
}

std::shared_ptr<const MeanTailTable> PolicyCatalog::mean_tail(
    const WorkloadSpec& workload, Concurrency conc) {
  const auto key = std::make_pair(workload.name, conc);
  auto it = mean_tails_.find(key);
  if (it != mean_tails_.end()) return it->second;
  auto built = std::make_shared<const MeanTailTable>(MeanTailTable::build(
      profiles(workload, conc), conc, config_.kmin, config_.kmax,
      config_.kstep));
  return mean_tails_.emplace(key, std::move(built)).first->second;
}

std::unique_ptr<SizingPolicy> PolicyCatalog::make_policy(
    const std::string& name, const WorkloadSpec& workload, Seconds slo,
    Concurrency conc, Millicores fixed_mc) {
  // Fixed and early-binding families run at their plan sizes.
  if (const char* label = fixed_label(name)) {
    return std::make_unique<FixedSizingPolicy>(
        label, plan_sizes(name, workload, slo, conc, fixed_mc));
  }
  if (name == "janus" || name == "janus-" || name == "janus+") {
    AdapterConfig adapter_config;
    adapter_config.kmax = config_.kmax;
    return std::make_unique<JanusPolicy>(
        janus_variant_name(exploration_of(name)),
        Adapter(bundle(workload, conc, exploration_of(name)), adapter_config),
        slo, config_.janus_safety_margin);
  }
  if (name == "mean_based") {
    return std::make_unique<MeanBasedPolicy>(mean_tail(workload, conc), slo);
  }
  if (name == "optimal") {
    OptimalInputs in;
    in.models = workload.chain_models();
    in.slo = slo;
    in.concurrency = conc;
    in.kmin = config_.kmin;
    in.kmax = config_.kmax;
    return make_optimal(std::move(in));
  }
  require_fleet_policy(name);
  // Registered but without a construction branch above: a catalog bug,
  // not a caller error.
  throw_invalid("sizing policy '" + name + "' is registered but has no "
                "constructor in PolicyCatalog::make_policy");
}

const std::vector<Millicores>& PolicyCatalog::plan_sizes(
    const std::string& name, const WorkloadSpec& workload, Seconds slo,
    Concurrency conc, Millicores fixed_mc) {
  if (name == "orion" || name == "grandslam" || name == "grandslam+") {
    return early_sizes(name, workload, slo, conc);
  }
  const bool fixed = name == "fixed";
  if (fixed) require(fixed_mc > 0, "fixed policy needs a positive allocation");
  const auto key =
      std::make_tuple(name, workload.name, slo, conc, fixed ? fixed_mc : 0);
  auto it = plans_.find(key);
  if (it != plans_.end()) return it->second;
  const auto& models = workload.chain_models();
  const std::size_t stages = models.size();
  std::vector<Millicores> sizes;
  if (fixed) {
    sizes.assign(stages, fixed_mc);
  } else {
    // Late-binding policies: walk the chain once at mean conditions
    // (ws = 1, interference = 1), advancing elapsed time with the model's
    // mean latency at each chosen size.  Pure function of the catalog
    // artifacts, so packing stays shard-independent.
    auto policy = make_policy(name, workload, slo, conc, fixed_mc);
    const RequestDraw draw = neutral_draw(stages);
    sizes.reserve(stages);
    Seconds elapsed = 0.0;
    for (std::size_t s = 0; s < stages; ++s) {
      const Millicores k = policy->size_for_stage(s, elapsed, draw);
      sizes.push_back(k);
      elapsed += models[s].exec_time(k, conc, 1.0, 1.0);
    }
  }
  return plans_.emplace(key, std::move(sizes)).first->second;
}

ContentionAwarePolicy::ContentionAwarePolicy(
    std::unique_ptr<SizingPolicy> base, const CoLocationProvider& feed,
    double alpha, Millicores kmax)
    : base_(std::move(base)), feed_(&feed), alpha_(alpha), kmax_(kmax) {
  require(base_ != nullptr, "contention-aware policy needs a base policy");
  require(alpha_ >= 0.0, "contention alpha must be >= 0");
  require(kmax_ > 0, "kmax must be > 0");
}

Millicores ContentionAwarePolicy::size_for_stage(std::size_t stage,
                                                 Seconds elapsed,
                                                 const RequestDraw& draw) {
  const Millicores base = base_->size_for_stage(stage, elapsed, draw);
  const double coresidency =
      std::max(1.0, feed_->stage_distribution(stage).mean());
  const double scaled =
      static_cast<double>(base) * (1.0 + alpha_ * (coresidency - 1.0));
  const auto bumped = static_cast<Millicores>(std::lround(scaled));
  // Growth saturates at kmax, but the decorator never *shrinks* the base
  // policy's allocation — a base already past kmax stays as-is (zero
  // contention must be a no-op for any base).
  return std::max(base, std::min(kmax_, bumped));
}

}  // namespace janus
