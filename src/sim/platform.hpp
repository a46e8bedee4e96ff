// Serverless platform simulator (the Fission-on-Kubernetes substitute).
//
// Models the pieces of the provider stack that Janus's adapter touches:
//  * cluster nodes with millicore capacity,
//  * function pods with a Fission-PoolManager-style warm pool (pre-warmed
//    generic pods are specialized on first use; warm reuse is cheap, cold
//    starts pay a penalty),
//  * same-function co-location on nodes (the placement policy packs
//    instances of one function together, as commercial platforms do, which
//    is what creates the interference of Fig 1c),
//  * a resize API: each invocation carries the millicore size decided by
//    the active sizing policy — the late-binding hook.
//
// Interference can be *exogenous* (the caller pre-draws the multiplier, so
// clairvoyant baselines can see it — mirrors replaying a recorded run) or
// *endogenous* (derived from the actual number of busy co-located pods).
#pragma once

#include <optional>
#include <vector>

#include "common/annotations.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "model/function_model.hpp"
#include "model/interference.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"

namespace janus {

struct NodeConfig {
  Millicores capacity_mc = 52000;  // testbed: 52 physical cores
};

struct PoolConfig {
  /// Pods kept warm per function (Fission PoolManager poolsize).
  int prewarm_per_function = 8;
  /// Specializing a generic warm pod (package load) — cheap.
  Seconds warm_start_s = 0.005;
  /// Full cold start when the warm pool is exhausted.
  Seconds cold_start_s = 0.450;
  /// Upper bound on pods per function (scale-out limit); 0 = unlimited.
  int max_pods_per_function = 0;
};

struct PlatformConfig {
  int nodes = 4;
  NodeConfig node;
  PoolConfig pool;
  std::uint64_t seed = 1;
};

/// Outcome handed to the invocation's completion callback.  Field order
/// packs pod/node/colocated into what used to be padding: the struct must
/// stay 48 bytes because it is embedded (with the caller's InvokeFn) in
/// Platform's completion closure, which sits exactly at the engine's
/// 96-byte event capture budget.
struct InvocationOutcome {
  Seconds queued_s = 0.0;     // wait for pod capacity (summed over retries)
  Seconds startup_s = 0.0;    // warm specialize or cold start (summed)
  Seconds exec_s = 0.0;       // model execution time (re-paid per retry)
  double interference = 1.0;  // multiplier actually applied
  int colocated = 1;          // same-function busy pods on the node
  int pod = -1;               // pod the invocation (last) ran on
  int node = -1;              // node hosting that pod
  bool cold_start = false;    // true if any attempt cold-started
  /// Times this invocation's pod was preempted mid-flight (chaos): each
  /// preemption loses the work in progress and re-pays startup + exec on a
  /// freshly acquired pod.  Saturates at 255 (packed into what used to be
  /// padding, keeping the struct at 48 bytes).
  std::uint8_t preempted = 0;

  Seconds total() const noexcept { return queued_s + startup_s + exec_s; }
};
static_assert(sizeof(InvocationOutcome) == 48,
              "InvocationOutcome must stay 48 bytes: it is embedded (with "
              "the caller's 32-byte InvokeFn) in the 96-byte completion "
              "closure that sets the engine's event capture budget");

/// Completion callback for one invocation.  Inline (no heap fallback) so
/// the platform's completion closure — which embeds one of these — fits a
/// single EventFn slot and the steady-state event path never allocates.
/// The budget is exactly exp/runner's launch_stage capture: a tenant-state
/// pointer, a request-pool slot index and the stage size (16 bytes, no
/// refcounted handles); an oversized capture fails to compile.  Kept tight
/// deliberately: this type is embedded in every scheduled completion
/// event, so its size sets the event slot pool's cache footprint.
inline constexpr std::size_t kInvokeCaptureBytes = 16;
using InvokeFn =
    InlineFunction<void(const InvocationOutcome&), kInvokeCaptureBytes>;

class Platform {
 public:
  /// `functions` is borrowed, not copied: it must outlive the platform
  /// (workload specs are immutable catalog entries), so temporaries are
  /// rejected at compile time.
  Platform(SimEngine& engine, PlatformConfig config,
           const std::vector<FunctionModel>& functions,
           InterferenceModel interference = InterferenceModel{});
  Platform(SimEngine&, PlatformConfig, std::vector<FunctionModel>&&,
           InterferenceModel = InterferenceModel{}) = delete;

  /// Returns the platform to the state the constructor leaves, for another
  /// tenant on the same engine, reusing every container's storage.  Only
  /// valid once no event of the engine refers to this platform (its
  /// invocations have all completed).
  void reset(PlatformConfig config,
             const std::vector<FunctionModel>& functions,
             InterferenceModel interference = InterferenceModel{});
  void reset(PlatformConfig, std::vector<FunctionModel>&&,
             InterferenceModel = InterferenceModel{}) = delete;

  /// Number of registered functions.
  std::size_t function_count() const noexcept { return functions_->size(); }
  const FunctionModel& function(int fn_index) const;

  /// Invokes function `fn_index` with `size` millicores and batch size `c`.
  /// `ws_factor` is the invocation's working-set draw (the caller owns the
  /// randomness so clairvoyant policies can share it).  When
  /// `exogenous_interference` is set it is applied verbatim; otherwise the
  /// multiplier is sampled from the co-location actually present.
  /// `done` fires at completion with the outcome.
  void invoke(int fn_index, Millicores size, Concurrency c, double ws_factor,
              std::optional<double> exogenous_interference, InvokeFn done);

  /// Busy same-function pods currently on the node hosting most instances
  /// of `fn_index` (diagnostic; used by tests and the fig1c bench).
  int peak_colocation(int fn_index) const;

  /// Invocations currently waiting for a pod (scale-out limit reached).
  std::size_t queued_invocations() const noexcept;

  /// Pods currently specialized for `fn_index` (the function's actual
  /// footprint — what the fleet control plane publishes at each epoch
  /// barrier instead of a Little's-law estimate).
  int pods_for_function(int fn_index) const;

  /// Busy pods of `fn_index` right now.
  int busy_pods_for(int fn_index) const;

  /// High-water mark of concurrently busy pods of `fn_index` since the
  /// last take_peak_busy() — the per-epoch demand signal.
  int peak_busy_for(int fn_index) const;

  /// Copies every function's high-water mark into `peaks` (one entry per
  /// function, already sized) and restarts the tracking window at the
  /// current busy level (pods still running carry their demand into the
  /// next window).  The fleet's epoch barrier calls it once per tenant.
  void take_peak_busy(std::vector<int>& peaks);

  /// Total millicores currently allocated to busy pods (diagnostic).
  Millicores busy_millicores() const;

  std::uint64_t cold_starts() const noexcept { return cold_starts_; }
  std::uint64_t invocations() const noexcept { return invocations_; }
  /// Pods killed by preempt_busy so far.
  std::uint64_t preempted_pods() const noexcept { return preempted_pods_; }
  /// Invocations that lost a pod mid-flight and re-entered the acquire
  /// path (each re-pays startup and the full execution).
  std::uint64_t requeued() const noexcept { return requeued_; }
  /// Invocations that ever waited for a pod (scale-out limit), cumulative.
  /// Unlike ObsCounters::queued this plain tally is always on, so the
  /// chaos scorecard can report queueing without arming observability.
  std::uint64_t queued_total() const noexcept { return queued_total_; }

  /// Chaos injection: kills up to `max_pods` busy pods of `fn_index`, in
  /// ascending pod-index order (deterministic).  A killed pod leaves the
  /// placement accounting immediately and never returns to the idle pool;
  /// its in-flight invocation, when its completion event fires, re-enters
  /// the acquire path — re-paying startup (possibly a cold start, possibly
  /// queueing at the scale-out limit) plus the full execution.  Returns
  /// the number of pods actually killed.  Cold path: called at epoch
  /// barriers, never from the event loop.
  int preempt_busy(int fn_index, int max_pods);

  /// Chaos injection: multiplies warm and cold startup delays for every
  /// acquisition from now on (cold-start storm windows; 1 = normal).
  void set_startup_multiplier(double m);
  double startup_multiplier() const noexcept { return startup_mult_; }

  /// Current simulated time of the owning engine (spans are reconstructed
  /// from completion callbacks as now() - outcome.total()).
  Seconds now() const noexcept { return engine_.now(); }

  /// Arms the observability hooks on this platform's event path; null
  /// (the default) keeps them a single never-taken branch.  The sink must
  /// outlive the run and is written only from this platform's shard.
  void set_obs(ObsCounters* obs) noexcept { obs_ = obs; }

 private:
  struct Pod {
    int fn_index = -1;  // -1 while generic (not yet specialized)
    int node = 0;
    Millicores size = 0;
    bool busy = false;
    /// Killed by preempt_busy while its invocation was in flight; the
    /// pending completion event consumes the flag, retries the invocation
    /// elsewhere, and tombstones the pod (it never returns to idle).
    bool preempted = false;
    /// Single-execution service time of the in-flight invocation, written
    /// when it starts.  Lives here (not in the completion closure, which
    /// sits exactly at the engine's capture budget) so a preemption retry
    /// can re-pay the execution verbatim.
    Seconds exec_single = 0.0;
  };
  struct Node {
    Millicores capacity = 0;
    Millicores used = 0;
  };

  /// Chooses a node for a new pod of `fn_index`: prefer the node already
  /// hosting the most pods of that function (co-location packing), subject
  /// to capacity.
  int place(int fn_index, Millicores size);

  /// Finds an idle pod of the function or specializes/creates one.
  /// Returns pod index and the startup delay + cold flag; pod == -1 means
  /// the per-function scale-out limit is reached and the caller must queue.
  struct Acquired {
    int pod;
    Seconds startup;
    bool cold;
  };
  Acquired acquire(int fn_index, Millicores size);

  /// A queued invocation waiting for a pod of its function to free up.
  struct PendingInvocation {
    Millicores size;
    Concurrency concurrency;
    double ws_factor;
    std::optional<double> exogenous_interference;
    InvokeFn done;
    Seconds enqueued_at;
    /// Retry state for a preempted invocation re-entering the queue: when
    /// retry_exec_s >= 0 the entry resumes with `prior` already
    /// accumulated and the execution re-paid verbatim instead of being
    /// re-derived from the model.
    Seconds retry_exec_s = -1.0;
    InvocationOutcome prior{};
  };

  /// Runs an invocation on an acquired pod (after any startup delay).
  void start_on_pod(int fn_index, const Acquired& got, Millicores size,
                    Concurrency c, double ws_factor,
                    std::optional<double> exogenous_interference,
                    Seconds queued_s, InvokeFn done);

  /// Completion-event body shared by first runs and retries: frees the pod
  /// and delivers the outcome — or, if the pod was preempted mid-flight,
  /// tombstones it and re-runs the invocation (re-paying the pod's
  /// recorded exec_single in full; the accumulated outcome.exec_s cannot
  /// recover it once a retry happened).
  void finish_invocation(int pod_index, int fn_index,
                         InvocationOutcome outcome, InvokeFn done);

  /// Re-runs a preempted invocation: re-enters the standard acquire path
  /// (warm, generic, cold, or the pending queue at the scale-out limit),
  /// accumulating times into `prior`.  The interference multiplier — and
  /// hence the execution time — stays the original draw: same work, drawn
  /// once, so preemption perturbs no other tenant's rng stream.
  void retry_invocation(int fn_index, Millicores size, Seconds exec_single,
                        InvocationOutcome prior, InvokeFn done);

  /// Starts a retry on an acquired pod, accumulating into `prior`.
  void resume_retry(int fn_index, const Acquired& got, Millicores size,
                    Seconds exec_single, InvocationOutcome prior,
                    Seconds queued_s, InvokeFn done);

  /// Schedules the completion event for a running invocation, `delay` from
  /// now.  The delay is explicit because outcome times are accumulated
  /// across retries and cannot recover the current attempt's duration.
  void schedule_completion(Seconds delay, int pod_index, int fn_index,
                           const InvocationOutcome& outcome, InvokeFn done);

  /// Flat (node, function) cell index for the incremental counters.
  JANUS_HOT std::size_t cell(int node, int fn) const noexcept {
    return static_cast<std::size_t>(node) * functions_->size() +
           static_cast<std::size_t>(fn);
  }

  SimEngine& engine_;
  PlatformConfig config_;
  const std::vector<FunctionModel>* functions_ = nullptr;
  InterferenceModel interference_;
  Rng rng_;
  std::vector<Node> nodes_;
  std::vector<Pod> pods_;
  // Idle pod indices: slot 0 is the generic pool, slot fn+1 the warm pods
  // of function fn.  Flat vectors (not a map) — this is touched on every
  // invocation and completion.
  std::vector<std::vector<int>> idle_;
  // FIFO of invocations blocked on the scale-out limit, per function.
  std::vector<std::vector<PendingInvocation>> pending_;
  std::vector<int> pods_per_function_;
  // Incremental per-(node, function) counters replacing the O(pods) scans
  // the old code did on every invocation: busy pods (co-location seen by
  // an invocation) and specialized pods (placement packing preference).
  std::vector<int> busy_per_cell_;
  std::vector<int> pods_per_cell_;
  // Per-function busy count and its high-water mark since the last
  // take_peak_busy() — the epoch demand signal for the fleet control
  // plane.
  std::vector<int> busy_per_function_;
  std::vector<int> peak_busy_per_function_;
  std::uint64_t cold_starts_ = 0;
  std::uint64_t invocations_ = 0;
  std::uint64_t preempted_pods_ = 0;
  std::uint64_t requeued_ = 0;
  std::uint64_t queued_total_ = 0;
  /// Cold-start-storm multiplier applied to startup delays (1 = calm).
  double startup_mult_ = 1.0;
  ObsCounters* obs_ = nullptr;
};

}  // namespace janus
