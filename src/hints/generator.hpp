// Hints generation — Algorithm 1 (§IV-A).
//
// For every candidate time budget t on a 1 ms grid (Insight-1: the broad
// range of Eq. 3), the synthesizer picks the head function's percentile p
// and size k plus a P99 allocation Z for the tail, minimizing the expected
// resource consumption of Eq. (4)
//
//     s = W·k + (p/100)·ΣZ + (1 − p/100)·(N−1)·Kmax
//
// subject to the budget (Eq. 5) and to the resilience guard (Eq. 6):
// the head's timeout D(p,k) must not exceed the tail's total resilience.
// Only the head explores percentiles below P99 (Insight-2, "moderate
// percentile exploration"); W > 1 magnifies the head's weight (Insight-4).
//
// Variants (§V-A baselines):
//   FixedP99    — Janus−: the head is pinned to P99.
//   HeadOnly    — Janus: head explores the percentile list.
//   HeadAndNext — Janus+: head *and* the next function explore percentiles;
//                 richer but with a multiplicatively larger search space
//                 (the paper reports up to 107.2× synthesis time).
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "hints/table.hpp"
#include "hints/tail_plan.hpp"
#include "profiler/profile.hpp"

namespace janus {

enum class Exploration { FixedP99, HeadOnly, HeadAndNext };

const char* to_string(Exploration e) noexcept;

struct SynthesisConfig {
  Millicores kmin = kDefaultKmin;
  Millicores kmax = kDefaultKmax;
  Millicores kstep = kDefaultKstep;
  /// Head-function objective weight W (Insight-4).
  double weight = 1.0;
  /// Candidate percentiles for exploring heads (default P1..P96 step 5 ∪ P99).
  std::vector<Percentile> head_percentiles;
  Exploration exploration = Exploration::HeadOnly;
  Concurrency concurrency = 1;
  /// Budget grid step (ms); the paper uses 1 ms.
  BudgetMs budget_step = 1;
  /// Optional explicit budget range (ms); 0 → derive per Eq. (3).
  BudgetMs tmin = 0;
  BudgetMs tmax = 0;
  /// Workers for the parallel budget sweep; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Ablation switch: when false, Eq. (6)'s resilience guard is skipped and
  /// head timeouts may exceed what the tail can absorb.  Only exists so the
  /// ablation bench can demonstrate why Insight-3 is load-bearing.
  bool enforce_resilience = true;
  /// Parallel instances per stage (fork-join levels); empty = all 1.  A
  /// stage of width w provisions w same-sized instances, so it contributes
  /// w * k to every cost term.
  std::vector<int> stage_widths;

  void validate() const;
  std::vector<Millicores> cores() const;
};

/// Synthesis statistics (drives the Fig 6b / Fig 8 benches).
struct SynthesisStats {
  std::size_t raw_hints = 0;        // rows before condensing
  std::size_t condensed_hints = 0;  // rows after condensing
  std::uint64_t probes = 0;         // (p, k) combinations evaluated
  double elapsed_s = 0.0;           // wall time of generate+condense
};

class HintsGenerator {
 public:
  /// `profiles` in chain execution order.  The generator keeps pointers
  /// into `profiles`; the caller owns their lifetime.
  HintsGenerator(const std::vector<LatencyProfile>& profiles,
                 SynthesisConfig config);

  std::size_t chain_length() const noexcept { return chain_.size(); }
  const SynthesisConfig& config() const noexcept { return config_; }

  /// Eq. (3) budget range for the suffix starting at function j.
  std::pair<BudgetMs, BudgetMs> budget_range(std::size_t j) const;

  /// Generates the raw hints table for suffix j (the outer loop of
  /// Algorithm 1), sweeping budgets in parallel.
  SuffixHints generate_suffix(std::size_t j) const;

  /// Solves one budget (the `generate` function of Algorithm 1).  Returns
  /// a hint with empty `sizes` when the budget is infeasible.
  RawHint solve_budget(std::size_t j, BudgetMs t) const;

  std::uint64_t probes() const noexcept {
    return probes_.load(std::memory_order_relaxed);
  }

 private:
  /// Line 8-9 of Algorithm 1: percentiles able to finish within t at Kmax.
  std::vector<Percentile> explore_percentile(std::size_t j, BudgetMs t) const;

  RawHint solve_head_only(std::size_t j, BudgetMs t,
                          const std::vector<Percentile>& candidates) const;
  RawHint solve_head_and_next(std::size_t j, BudgetMs t,
                              const std::vector<Percentile>& candidates) const;
  /// |F| = 1: min_resource(f, t).
  RawHint solve_single(std::size_t j, BudgetMs t) const;

  /// Flattened L(p, k) cache for the hot search loops (profile lookups
  /// carry bounds checks that dominate the quadratic Janus+ sweep).
  BudgetMs lat(std::size_t j, Percentile p, std::size_t ki) const noexcept {
    return lat_cache_[j][ki * 99 + static_cast<std::size_t>(p - 1)];
  }

  std::vector<const LatencyProfile*> chain_;
  SynthesisConfig config_;
  std::vector<Millicores> cores_;
  TailPlan tail_;
  /// lat_cache_[j][ki * 99 + (p-1)] = L_j(p, cores_[ki]) in ms.
  std::vector<std::vector<BudgetMs>> lat_cache_;
  /// Per-suffix floor: Σ_{i>j} L_i(99, Kmax) in ms (explore_percentile).
  std::vector<BudgetMs> tail_floor_;
  /// widths_[j]: instances stage j provisions; suffix_width_[j]: Σ_{i>=j}.
  std::vector<int> widths_;
  std::vector<int> suffix_width_;
  /// Probe counter shared by the parallel budget sweep.  Each solve counts
  /// locally and adds once: a per-probe atomic increment made the workers
  /// contend for this line (and the hot members beside it), at a cost
  /// that swung with the generator's stack alignment.
  mutable std::atomic<std::uint64_t> probes_{0};
};

/// The shippable bundle: one condensed table per sub-workflow suffix.
struct HintsBundle {
  std::vector<HintsTable> suffix_tables;
  Concurrency concurrency = 1;
  double weight = 1.0;
  SynthesisStats stats;

  std::size_t total_entries() const;
  std::size_t memory_bytes() const;
};

/// End-to-end synthesis: generate every suffix (Algorithm 1), condense
/// (Algorithm 2), collect stats.
HintsBundle synthesize_bundle(const std::vector<LatencyProfile>& profiles,
                              const SynthesisConfig& config);

}  // namespace janus
