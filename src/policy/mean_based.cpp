#include "policy/mean_based.hpp"

namespace janus {

MeanTailTable MeanTailTable::build(const std::vector<LatencyProfile>& profiles,
                                   Concurrency concurrency, Millicores kmin,
                                   Millicores kmax, Millicores kstep) {
  require(!profiles.empty(), "mean-based policy needs profiles");
  MeanTailTable table;
  table.stages = profiles.size();
  for (Millicores k = kmin; k <= kmax; k += kstep) table.cores.push_back(k);
  const std::size_t cores = table.cores.size();
  table.tail_mean.resize(table.stages * cores);
  for (std::size_t stage = 0; stage < table.stages; ++stage) {
    for (std::size_t ki = 0; ki < cores; ++ki) {
      Seconds total = 0.0;
      for (std::size_t j = stage; j < table.stages; ++j) {
        total += profiles[j].latency(50, table.cores[ki], concurrency);
      }
      table.tail_mean[stage * cores + ki] = total;
    }
  }
  return table;
}

MeanBasedPolicy::MeanBasedPolicy(const std::vector<LatencyProfile>& profiles,
                                 Seconds slo, Concurrency concurrency,
                                 Millicores kmin, Millicores kmax,
                                 Millicores kstep)
    : MeanBasedPolicy(std::make_shared<const MeanTailTable>(
                          MeanTailTable::build(profiles, concurrency, kmin,
                                               kmax, kstep)),
                      slo) {}

MeanBasedPolicy::MeanBasedPolicy(std::shared_ptr<const MeanTailTable> table,
                                 Seconds slo)
    : table_(std::move(table)), slo_(slo) {
  require(table_ != nullptr, "mean-based policy needs a suffix table");
  require(slo > 0.0, "SLO must be > 0");
}

Millicores MeanBasedPolicy::size_for_stage(std::size_t stage, Seconds elapsed,
                                           const RequestDraw& /*draw*/) {
  require(stage < table_->stages, "stage out of range");
  const Seconds remaining = slo_ - elapsed;
  // Smallest size such that this stage's mean plus the downstream means at
  // the same size fit the remaining budget — the proportional-slack rule
  // Kraken/Xanadu-class systems apply per stage.
  const std::vector<Millicores>& cores = table_->cores;
  for (std::size_t ki = 0; ki < cores.size(); ++ki) {
    if (table_->tail_mean[stage * cores.size() + ki] <= remaining) {
      return cores[ki];
    }
  }
  return cores.back();  // even Kmax means overrun: allocate everything
}

std::unique_ptr<MeanBasedPolicy> make_mean_based(
    const std::vector<LatencyProfile>& profiles, Seconds slo,
    Concurrency concurrency, Millicores kmin, Millicores kmax,
    Millicores kstep) {
  return std::make_unique<MeanBasedPolicy>(profiles, slo, concurrency, kmin,
                                           kmax, kstep);
}

}  // namespace janus
