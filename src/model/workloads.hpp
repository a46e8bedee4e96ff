// Workload catalog: the paper's two evaluation workflows and the §II-B
// micro-benchmark functions, calibrated to the published dispersion numbers.
//
//   IA (Intelligent Assistant): object detection (OD) -> question answering
//     (QA) -> text-to-speech (TS).  SLO 3 s at concurrency 1 (4 s / 5 s at
//     concurrency 2 / 3).  QA's P99/P50 = 2.17 at conc 1 and 2.32 at conc 2.
//   VA (Video Analyze): frame extraction (FE) -> image classification (ICL)
//     -> image compression (ICO).  SLO 1.5 s.  P99/P50 per function:
//     1.46 / 1.56 / 1.37.  FE and ICO are not batchable.
//   Micro functions (Fig 1c): CPU-, memory-, IO-, network-intensive.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "dag/workflow.hpp"
#include "model/function_model.hpp"
#include "model/interference.hpp"

namespace janus {

/// A fully described workload: the DAG plus per-function latency models and
/// evaluation defaults.
struct WorkloadSpec {
  std::string name;
  Workflow workflow;
  /// models[i] is the latency model of workflow function with
  /// FunctionSpec::model_index == i.
  std::vector<FunctionModel> models;
  /// Default end-to-end latency SLO per concurrency level (index c-1).
  std::vector<Seconds> slo_by_concurrency;
  /// Highest batch size the workload supports.
  Concurrency max_concurrency = 1;

  const FunctionModel& model_of(FunctionId id) const;
  /// Models in chain order: `models` itself, borrowed rather than copied.
  /// Throws unless the workflow is the chain 0 -> 1 -> ... -> n-1 and
  /// function i uses models[i] (how every chain workload is listed).
  const std::vector<FunctionModel>& chain_models() const;
  Seconds slo(Concurrency c) const;
};

/// Intelligent Assistant chain (OD -> QA -> TS).
WorkloadSpec make_ia();

/// Video Analyze chain (FE -> ICL -> ICO).
WorkloadSpec make_va();

/// Catalog lookup by name ("ia"/"IA" or "va"/"VA"; throws otherwise).
/// Single source of truth for every front end that names workloads
/// (janus_cli, fleet tenant specs).  Returns a process-lifetime immutable
/// spec, so a fleet shares one per workload instead of one per tenant.
const WorkloadSpec& workload_by_name(const std::string& name);

/// §II-B micro-benchmark function dominated by `dim` (AES encryption,
/// Redis read, local-disk write, socket communication).
FunctionModel make_micro_function(ResourceDim dim);

}  // namespace janus
