#include "model/workloads.hpp"

#include "stats/distributions.hpp"

namespace janus {

const FunctionModel& WorkloadSpec::model_of(FunctionId id) const {
  const auto& spec = workflow.function(id);
  require(spec.model_index >= 0 &&
              static_cast<std::size_t>(spec.model_index) < models.size(),
          "model index out of range");
  return models[static_cast<std::size_t>(spec.model_index)];
}

const std::vector<FunctionModel>& WorkloadSpec::chain_models() const {
  // Checked without allocating: fleets call this for every tenant.
  const std::size_t n = workflow.size();
  bool ordered = n > 0 && models.size() == n;
  for (std::size_t i = 0; ordered && i < n; ++i) {
    const auto id = static_cast<FunctionId>(i);
    const std::vector<FunctionId>& next = workflow.successors(id);
    ordered = workflow.function(id).model_index == id &&
              (i + 1 == n ? next.empty()
                          : next.size() == 1 && next.front() == id + 1);
  }
  require(ordered,
          "workload is not a chain whose models are listed in execution "
          "order");
  return models;
}

Seconds WorkloadSpec::slo(Concurrency c) const {
  require(c >= 1 && static_cast<std::size_t>(c) <= slo_by_concurrency.size(),
          "no SLO configured for this concurrency");
  return slo_by_concurrency[static_cast<std::size_t>(c - 1)];
}

namespace {

FunctionModel ia_od() {
  FunctionModelParams p;
  p.name = "OD";
  p.serial_s = 0.12;
  p.work_s = 0.85;
  // Object detection latency tracks objects-per-image (1..15 in COCO2014);
  // Fig 1b shows P99/P1 variance up to ~3.8x at a fixed size.
  p.ws_sigma = LogNormal::sigma_for_p99_over_p50(2.10);
  p.dim = ResourceDim::Cpu;
  return FunctionModel(p);
}

FunctionModel ia_qa() {
  FunctionModelParams p;
  p.name = "QA";
  p.serial_s = 0.10;
  p.work_s = 0.80;
  // Calibrated to the published dispersion: P99/P50 = 2.17 at conc 1,
  // growing to 2.32 at conc 2 (ws_sigma_batch_growth default).
  p.ws_sigma = LogNormal::sigma_for_p99_over_p50(2.17);
  p.dim = ResourceDim::Memory;
  return FunctionModel(p);
}

FunctionModel ia_ts() {
  FunctionModelParams p;
  p.name = "TS";
  p.serial_s = 0.08;
  p.work_s = 0.65;
  p.ws_sigma = LogNormal::sigma_for_p99_over_p50(1.95);
  p.dim = ResourceDim::Cpu;
  return FunctionModel(p);
}

FunctionModel va_fe() {
  FunctionModelParams p;
  p.name = "FE";
  p.serial_s = 0.06;
  p.work_s = 0.60;
  p.ws_sigma = LogNormal::sigma_for_p99_over_p50(1.46);
  p.dim = ResourceDim::Io;
  p.batchable = false;  // cannot process frames in batch form
  return FunctionModel(p);
}

FunctionModel va_icl() {
  FunctionModelParams p;
  p.name = "ICL";
  p.serial_s = 0.07;
  p.work_s = 0.75;
  p.ws_sigma = LogNormal::sigma_for_p99_over_p50(1.56);
  p.dim = ResourceDim::Cpu;
  return FunctionModel(p);
}

FunctionModel va_ico() {
  FunctionModelParams p;
  p.name = "ICO";
  p.serial_s = 0.05;
  p.work_s = 0.55;
  p.ws_sigma = LogNormal::sigma_for_p99_over_p50(1.37);
  p.dim = ResourceDim::Io;
  p.batchable = false;
  return FunctionModel(p);
}

}  // namespace

WorkloadSpec make_ia() {
  WorkloadSpec spec;
  spec.name = "IA";
  spec.models = {ia_od(), ia_qa(), ia_ts()};
  spec.workflow = Workflow::chain(
      "IA", {{"OD", 0}, {"QA", 1}, {"TS", 2}});
  // SLOs from §V-A (3 s) and §V-B ("we increase SLOs to 4 s and 5 s" for
  // concurrency 2 and 3).
  spec.slo_by_concurrency = {3.0, 4.0, 5.0};
  spec.max_concurrency = 3;
  return spec;
}

WorkloadSpec make_va() {
  WorkloadSpec spec;
  spec.name = "VA";
  spec.models = {va_fe(), va_icl(), va_ico()};
  spec.workflow = Workflow::chain(
      "VA", {{"FE", 0}, {"ICL", 1}, {"ICO", 2}});
  spec.slo_by_concurrency = {1.5};
  spec.max_concurrency = 1;  // FE and ICO are non-batchable
  return spec;
}

FunctionModel make_micro_function(ResourceDim dim) {
  FunctionModelParams p;
  p.dim = dim;
  p.ws_sigma = 0.08;  // micro benchmarks use fixed inputs; little ws spread
  switch (dim) {
    case ResourceDim::Cpu:
      p.name = "aes-encrypt";
      p.serial_s = 0.02;
      p.work_s = 0.30;
      break;
    case ResourceDim::Memory:
      p.name = "redis-read";
      p.serial_s = 0.03;
      p.work_s = 0.22;
      break;
    case ResourceDim::Io:
      p.name = "disk-write";
      p.serial_s = 0.04;
      p.work_s = 0.20;
      break;
    case ResourceDim::Network:
      p.name = "socket-comm";
      p.serial_s = 0.03;
      p.work_s = 0.18;
      break;
  }
  return FunctionModel(p);
}

const WorkloadSpec& workload_by_name(const std::string& name) {
  // Built on first use (thread-safe static initialization) and never
  // mutated afterwards, so every tenant and thread can share one spec.
  static const WorkloadSpec ia = make_ia();
  static const WorkloadSpec va = make_va();
  if (name == "ia" || name == "IA") return ia;
  if (name == "va" || name == "VA") return va;
  throw_invalid("unknown workload (expected ia or va): " + name);
}

}  // namespace janus
