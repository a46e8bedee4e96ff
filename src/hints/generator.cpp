#include "hints/generator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/thread_pool.hpp"
#include "hints/condense.hpp"
#include "hints/metrics.hpp"

namespace janus {

const char* to_string(Exploration e) noexcept {
  switch (e) {
    case Exploration::FixedP99: return "FixedP99";
    case Exploration::HeadOnly: return "HeadOnly";
    case Exploration::HeadAndNext: return "HeadAndNext";
  }
  return "?";
}

void SynthesisConfig::validate() const {
  require(kmin > 0 && kmax >= kmin && kstep > 0, "bad millicore grid");
  require(weight >= 1.0, "head weight must be >= 1");
  require(concurrency >= 1, "concurrency must be >= 1");
  require(budget_step >= 1, "budget step must be >= 1 ms");
  for (Percentile p : head_percentiles) {
    require(p >= 1 && p <= 99, "head percentile outside [1,99]");
  }
}

std::vector<Millicores> SynthesisConfig::cores() const {
  std::vector<Millicores> out;
  for (Millicores k = kmin; k <= kmax; k += kstep) out.push_back(k);
  return out;
}

namespace {
std::vector<const LatencyProfile*> as_pointers(
    const std::vector<LatencyProfile>& profiles) {
  std::vector<const LatencyProfile*> out;
  out.reserve(profiles.size());
  for (const auto& p : profiles) out.push_back(&p);
  return out;
}

BudgetMs horizon_for(const std::vector<const LatencyProfile*>& chain,
                     const SynthesisConfig& config) {
  // Upper end of Eq. (3) for the full workflow: Σ L(99, Kmin).
  BudgetMs sum = 0;
  for (const auto* p : chain) {
    sum += p->latency_ms(99, config.kmin, config.concurrency);
  }
  return std::max(sum, config.tmax);
}
}  // namespace

HintsGenerator::HintsGenerator(const std::vector<LatencyProfile>& profiles,
                               SynthesisConfig config)
    : chain_(as_pointers(profiles)),
      config_(std::move(config)),
      cores_(config_.cores()),
      tail_(chain_, config_.concurrency, config_.kmin, config_.kmax,
            config_.kstep, horizon_for(chain_, config_),
            config_.stage_widths) {
  require(!chain_.empty(), "generator needs >= 1 profile");
  config_.validate();
  widths_ = config_.stage_widths;
  if (widths_.empty()) widths_.assign(chain_.size(), 1);
  require(widths_.size() == chain_.size(), "stage_widths size mismatch");
  suffix_width_.assign(chain_.size() + 1, 0);
  for (std::size_t j = chain_.size(); j-- > 0;) {
    suffix_width_[j] = suffix_width_[j + 1] + widths_[j];
  }
  if (config_.head_percentiles.empty()) {
    config_.head_percentiles = default_percentiles();
  }
  if (config_.exploration == Exploration::FixedP99) {
    config_.head_percentiles = {99};
  }

  // Flatten the profile tables once; the search loops below probe them
  // millions of times.
  lat_cache_.resize(chain_.size());
  for (std::size_t j = 0; j < chain_.size(); ++j) {
    lat_cache_[j].resize(cores_.size() * 99);
    for (std::size_t ki = 0; ki < cores_.size(); ++ki) {
      for (Percentile p = 1; p <= 99; ++p) {
        lat_cache_[j][ki * 99 + static_cast<std::size_t>(p - 1)] =
            chain_[j]->latency_ms(p, cores_[ki], config_.concurrency);
      }
    }
  }
  tail_floor_.assign(chain_.size(), 0);
  for (std::size_t j = chain_.size(); j-- > 0;) {
    if (j + 1 < chain_.size()) {
      tail_floor_[j] =
          tail_floor_[j + 1] + lat(j + 1, 99, cores_.size() - 1);
    }
  }
}

std::pair<BudgetMs, BudgetMs> HintsGenerator::budget_range(
    std::size_t j) const {
  require(j < chain_.size(), "suffix index out of range");
  if (config_.tmin > 0 && config_.tmax > 0 && j == 0) {
    return {config_.tmin, config_.tmax};
  }
  BudgetMs tmin = 0, tmax = 0;
  for (std::size_t i = j; i < chain_.size(); ++i) {
    tmin += chain_[i]->latency_ms(1, config_.kmax, config_.concurrency);
    tmax += chain_[i]->latency_ms(99, config_.kmin, config_.concurrency);
  }
  return {tmin, tmax};
}

std::vector<Percentile> HintsGenerator::explore_percentile(std::size_t j,
                                                           BudgetMs t) const {
  // Tail at Kmax and P99 — the cheapest time the rest can promise.
  const std::size_t kmax_i = cores_.size() - 1;
  std::vector<Percentile> out;
  for (Percentile p : config_.head_percentiles) {
    if (lat(j, p, kmax_i) + tail_floor_[j] <= t) out.push_back(p);
  }
  return out;
}

RawHint HintsGenerator::solve_single(std::size_t j, BudgetMs t) const {
  // min_resource(f, t): the last function runs at P99 (no downstream
  // resilience left to absorb a timeout).
  RawHint hint;
  hint.budget = t;
  for (std::size_t ki = 0; ki < cores_.size(); ++ki) {
    if (lat(j, 99, ki) <= t) {
      probes_.fetch_add(ki + 1, std::memory_order_relaxed);
      hint.sizes = {cores_[ki]};
      hint.head_percentile = 99;
      hint.expected_cost = config_.weight * widths_[j] * cores_[ki];
      return hint;
    }
  }
  probes_.fetch_add(cores_.size(), std::memory_order_relaxed);
  return hint;  // infeasible: empty sizes
}

RawHint HintsGenerator::solve_head_only(
    std::size_t j, BudgetMs t, const std::vector<Percentile>& candidates) const {
  RawHint best;
  best.budget = t;
  double best_cost = -1.0;
  Percentile best_p = 0;
  std::size_t best_ki = 0;
  BudgetMs best_rem = 0;
  std::uint64_t probes = 0;

  for (Percentile p : candidates) {
    const double prob = static_cast<double>(p) / 100.0;
    for (std::size_t ki = 0; ki < cores_.size(); ++ki) {
      ++probes;
      const BudgetMs rem = t - lat(j, p, ki);
      if (rem < 0 || !tail_.feasible(j + 1, rem)) continue;
      const BudgetMs d = lat(j, 99, ki) - lat(j, p, ki);
      if (config_.enforce_resilience && d > tail_.resilience(j + 1, rem)) {
        continue;  // Eq. (6)
      }
      const double tail_cost = tail_.total_cost(j + 1, rem);
      const double s =
          config_.weight * widths_[j] * cores_[ki] + prob * tail_cost +
          (1.0 - prob) * static_cast<double>(suffix_width_[j + 1]) *
              config_.kmax;  // Eq. (4), widths generalize (N-1)
      // Strictly better cost wins; ties prefer the higher percentile
      // (less timeout risk for the same expected spend).
      if (best_cost < 0.0 || s < best_cost ||
          (s == best_cost && p > best_p)) {
        best_cost = s;
        best_p = p;
        best_ki = ki;
        best_rem = rem;
      }
    }
  }
  probes_.fetch_add(probes, std::memory_order_relaxed);
  if (best_cost >= 0.0) {
    best.sizes.push_back(cores_[best_ki]);
    const auto z = tail_.allocation(j + 1, best_rem);
    best.sizes.insert(best.sizes.end(), z.begin(), z.end());
    best.head_percentile = best_p;
    best.expected_cost = best_cost;
  }
  return best;
}

RawHint HintsGenerator::solve_head_and_next(
    std::size_t j, BudgetMs t, const std::vector<Percentile>& candidates) const {
  const auto n_sub = chain_.size() - j;
  const std::size_t kmax_i = cores_.size() - 1;
  RawHint best;
  best.budget = t;
  double best_cost = -1.0;
  Percentile best_p1 = 99, best_p2 = 99;
  std::size_t best_k1 = 0, best_k2 = 0;
  BudgetMs best_rem2 = 0;
  std::uint64_t probes = 0;

  const bool has_deep_tail = n_sub > 2;
  for (Percentile p1 : candidates) {
    const double prob1 = static_cast<double>(p1) / 100.0;
    for (std::size_t k1 = 0; k1 < cores_.size(); ++k1) {
      const BudgetMs rem1 = t - lat(j, p1, k1);
      if (rem1 < 0) continue;
      const BudgetMs d1 = lat(j, 99, k1) - lat(j, p1, k1);
      for (Percentile p2 : config_.head_percentiles) {
        const double prob2 = static_cast<double>(p2) / 100.0;
        if (!has_deep_tail && p2 != 99) continue;
        for (std::size_t k2 = 0; k2 < cores_.size(); ++k2) {
          ++probes;
          const BudgetMs rem2 = rem1 - lat(j + 1, p2, k2);
          if (rem2 < 0) continue;
          const BudgetMs d2 = lat(j + 1, 99, k2) - lat(j + 1, p2, k2);
          double s;
          if (has_deep_tail) {
            if (!tail_.feasible(j + 2, rem2)) continue;
            // Both explored timeouts must fit in the remaining resilience.
            if (d1 + d2 > tail_.resilience(j + 2, rem2)) continue;
            const double tail_cost = tail_.total_cost(j + 2, rem2);
            s = config_.weight * widths_[j] * cores_[k1] +
                prob1 * (widths_[j + 1] * cores_[k2] + prob2 * tail_cost +
                         (1.0 - prob2) *
                             static_cast<double>(suffix_width_[j + 2]) *
                             config_.kmax) +
                (1.0 - prob1) * static_cast<double>(suffix_width_[j + 1]) *
                    config_.kmax;
          } else {
            // Two-function suffix: the "next" function is last, so it has
            // no downstream resilience; only P99 keeps Eq. (6) satisfiable.
            const BudgetMs r2 = lat(j + 1, 99, k2) - lat(j + 1, 99, kmax_i);
            if (d1 > r2) continue;
            s = config_.weight * widths_[j] * cores_[k1] +
                prob1 * widths_[j + 1] * cores_[k2] +
                (1.0 - prob1) * static_cast<double>(suffix_width_[j + 1]) *
                    config_.kmax;
          }
          if (best_cost < 0.0 || s < best_cost) {
            best_cost = s;
            best_p1 = p1;
            best_p2 = p2;
            best_k1 = k1;
            best_k2 = k2;
            best_rem2 = rem2;
          }
        }
      }
    }
  }
  probes_.fetch_add(probes, std::memory_order_relaxed);
  if (best_cost >= 0.0) {
    best.sizes = {cores_[best_k1], cores_[best_k2]};
    if (has_deep_tail) {
      const auto z = tail_.allocation(j + 2, best_rem2);
      best.sizes.insert(best.sizes.end(), z.begin(), z.end());
    }
    best.head_percentile = best_p1;
    best.expected_cost = best_cost;
    (void)best_p2;
  }
  return best;
}

RawHint HintsGenerator::solve_budget(std::size_t j, BudgetMs t) const {
  require(j < chain_.size(), "suffix index out of range");
  require(t >= 0, "budget must be >= 0");
  if (chain_.size() - j == 1) return solve_single(j, t);
  const auto candidates = explore_percentile(j, t);
  if (candidates.empty()) {
    RawHint infeasible;
    infeasible.budget = t;
    return infeasible;
  }
  if (config_.exploration == Exploration::HeadAndNext) {
    return solve_head_and_next(j, t, candidates);
  }
  return solve_head_only(j, t, candidates);
}

SuffixHints HintsGenerator::generate_suffix(std::size_t j) const {
  const auto [tmin, tmax] = budget_range(j);
  SuffixHints out;
  out.tmin = tmin;
  out.tmax = tmax;
  auto count = static_cast<std::size_t>(
      (tmax - tmin) / config_.budget_step + 1);
  // Always include the exact Tmax endpoint even when the step does not
  // divide the range (lookups clamp above it, so it must carry a hint).
  const bool needs_endpoint =
      tmin + static_cast<BudgetMs>(count - 1) * config_.budget_step < tmax;
  if (needs_endpoint) ++count;
  std::vector<RawHint> slots(count);

  // Parallel budget sweep ("the synthesizer explores different percentiles
  // concurrently"): each worker solves a disjoint set of budgets.
  ThreadPool pool(config_.threads);
  pool.parallel_for(count, [&](std::size_t i) {
    const BudgetMs t =
        (needs_endpoint && i == count - 1)
            ? tmax
            : tmin + static_cast<BudgetMs>(i) * config_.budget_step;
    slots[i] = solve_budget(j, t);
  });

  for (auto& hint : slots) {
    if (hint.sizes.empty()) continue;  // infeasible budget
    if (out.hints.empty()) out.feasible_from = hint.budget;
    out.hints.push_back(std::move(hint));
  }
  return out;
}

std::size_t HintsBundle::total_entries() const {
  std::size_t n = 0;
  for (const auto& t : suffix_tables) n += t.size();
  return n;
}

std::size_t HintsBundle::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  for (const auto& t : suffix_tables) bytes += t.memory_bytes();
  return bytes;
}

HintsBundle synthesize_bundle(const std::vector<LatencyProfile>& profiles,
                              const SynthesisConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  HintsGenerator generator(profiles, config);
  HintsBundle bundle;
  bundle.concurrency = config.concurrency;
  bundle.weight = config.weight;
  for (std::size_t j = 0; j < generator.chain_length(); ++j) {
    const SuffixHints raw = generator.generate_suffix(j);
    bundle.stats.raw_hints += raw.hints.size();
    bundle.suffix_tables.push_back(condense_hints(raw));
  }
  bundle.stats.condensed_hints = bundle.total_entries();
  bundle.stats.probes = generator.probes();
  bundle.stats.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return bundle;
}

}  // namespace janus
