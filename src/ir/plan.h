// Captured, replayable execution plans over the typed graph IR.
//
// A GraphCapture records every tape node created while one training (or
// inference) step is traced eagerly. Finish() freezes the recording into an
// ExecutionPlan:
//
//   * the forward schedule is the recorded op nodes in creation order —
//     which IS the eager execution order — frozen as recorded: one step
//     per traced op, replayed serially (kernels parallelise internally
//     through runtime/parallel.h);
//   * the backward schedule is the reversed depth-first post-order of the
//     requires-grad subgraph (ag::detail::TopoSortGradGraph — the same
//     routine Var::Backward uses), pruned to nodes that actually carry a
//     backward kernel, so replayed gradient accumulation is ordered
//     bit-identically to traced Backward();
//   * liveness analysis computes, once, the last step at which every
//     intermediate value/gradient can be read; replays release buffers at
//     those points, recycling them through the tensor pool instead of
//     re-growing a fresh tape every step.
//
// Replaying swaps new input data into the captured feed leaves (located by
// buffer identity at capture time) and re-executes the schedules — no node
// allocation, no shared_ptr churn, no topological sort, no closure
// dispatch. Traced and replayed steps are bit-identical by construction:
// same kernels in the same order, same gradient accumulation paths.
//
// One mode gate: STWA_NO_PLAN=1 / SetPlanMode(false) turns capture/replay
// off. Consumers read PlanModeEnabled() once at setup (trainer, step
// engine, serving session), so a mid-run toggle can never produce a
// half-planned epoch or session.

#ifndef STWA_IR_PLAN_H_
#define STWA_IR_PLAN_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "autograd/var.h"
#include "ir/op_kind.h"

namespace stwa {
namespace ir {

/// Structural summary of a captured plan.
struct PlanStats {
  /// Every node recorded during capture (leaves + ops).
  int64_t captured_nodes = 0;
  /// Op nodes re-executed per forward replay.
  int64_t forward_ops = 0;
  /// Backward kernel invocations per replay (after pruning subgraphs whose
  /// gradients cannot reach a parameter).
  int64_t backward_ops = 0;
  /// Forward ops whose backward never runs (pruned from the grad graph).
  int64_t pruned_ops = 0;
  /// Sum of all op-node value bytes — what a traced step keeps alive in
  /// its tape until the step ends. Baseline for peak_live_bytes.
  int64_t tape_value_bytes = 0;
  /// Analytic peak of live intermediate value + gradient bytes across one
  /// serial replay, per the liveness schedule. Upper bound: aliased buffers
  /// (reshape/detach) are counted once per node.
  int64_t peak_live_bytes = 0;
  /// Intermediate buffers released (and pool-recycled) per replay.
  int64_t released_buffers = 0;
};

/// Per-OpKind timing / allocation accumulators (EnableProfiling).
struct OpProfile {
  OpKind kind = OpKind::kLeaf;
  const char* name = nullptr;
  int64_t forward_calls = 0;
  int64_t backward_calls = 0;
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;
  /// Tensor-buffer acquisitions attributed to this kind (pool or heap).
  uint64_t buffer_requests = 0;
  /// Acquisitions that had to heap-allocate (pool misses).
  uint64_t heap_allocs = 0;
};

/// A frozen forward(+backward) schedule over a captured graph. Created by
/// GraphCapture::Finish; replayed many times with swapped feed data.
class ExecutionPlan {
 public:
  /// Copies `feeds` into the captured feed leaves (same shapes as at
  /// capture), re-executes the forward schedule, seeds the root gradient
  /// and re-executes the backward schedule. Returns the loss (root value).
  /// Parameter gradients are accumulated exactly as a traced
  /// loss.Backward() would; the caller still runs ZeroGrad/clip/step.
  float ReplayTrainStep(const std::vector<Tensor>& feeds);

  /// Forward-only replay (plans captured with with_backward=false);
  /// returns the root's recomputed value.
  const Tensor& ReplayForward(const std::vector<Tensor>& feeds);

  /// True when the plan carries a backward schedule.
  bool with_backward() const { return with_backward_; }

  /// Structural summary (computed once at capture).
  const PlanStats& stats() const { return stats_; }

  /// Toggles per-op timing/allocation accounting on replays (off by
  /// default — the hooks cost two clock reads and two pool snapshots per
  /// op).
  void EnableProfiling(bool on) { profiling_ = on; }

  /// Accumulated per-kind profile. Only kinds that appear in this plan's
  /// schedules have rows, and rows with zero recorded calls are omitted.
  std::vector<OpProfile> Profile() const;

  /// Read-only view of the forward schedule (the benchmark harness walks
  /// it).
  const std::vector<ag::Node*>& forward_steps() const { return forward_; }

 private:
  friend class GraphCapture;
  ExecutionPlan() = default;

  void BindFeeds(const std::vector<Tensor>& feeds);
  void RunForward();
  void RunBackward();

  /// Keeps every captured node alive (schedules hold raw pointers).
  std::vector<ag::NodePtr> nodes_;
  ag::NodePtr root_;
  std::vector<ag::Node*> feed_nodes_;
  bool with_backward_ = false;

  /// Op nodes in creation (= eager execution) order.
  std::vector<ag::Node*> forward_;
  /// Reversed topo order over the requires-grad subgraph, pruned to nodes
  /// with backward kernels.
  std::vector<ag::Node*> backward_;

  /// release_after_forward_[i]: nodes whose buffers are dead once
  /// forward_[i] has executed (likewise for backward steps). Releasing
  /// clears value and grad; leaves, feeds and the root are never listed.
  std::vector<std::vector<ag::Node*>> release_after_forward_;
  std::vector<std::vector<ag::Node*>> release_after_backward_;

  PlanStats stats_;
  bool profiling_ = false;
  /// Compact profile: one row per kind present in the schedules;
  /// profile_slot_[kind] maps to the row (-1 when absent).
  std::vector<OpProfile> profile_;
  std::array<int16_t, kNumOpKinds> profile_slot_{};
};

/// RAII recording scope. Construct, trace one step eagerly (build the loss
/// or prediction as usual), then Finish() to freeze a plan. If the scope
/// dies without Finish(), the recording is discarded.
class GraphCapture {
 public:
  GraphCapture();
  ~GraphCapture();

  GraphCapture(const GraphCapture&) = delete;
  GraphCapture& operator=(const GraphCapture&) = delete;

  /// Freezes the recording into a plan. `root` is the traced step's output
  /// (scalar loss for with_backward, prediction otherwise); `feeds` are
  /// the input tensors whose data will be swapped on replay, matched to
  /// captured leaves by buffer identity. Returns nullptr when the capture
  /// cannot be planned (a feed's buffer was copied rather than wrapped, or
  /// the root was created outside the capture) — callers fall back to
  /// eager tracing.
  std::unique_ptr<ExecutionPlan> Finish(const ag::Var& root,
                                        const std::vector<Tensor>& feeds,
                                        bool with_backward);

 private:
  bool finished_ = false;
};

/// True when plan capture/replay is globally enabled: the default, unless
/// the STWA_NO_PLAN environment variable is set to a non-zero value or
/// SetPlanMode(false) was called.
bool PlanModeEnabled();

/// Runtime override of the STWA_NO_PLAN gate (used by A/B tests and bench).
void SetPlanMode(bool enabled);

}  // namespace ir
}  // namespace stwa

#endif  // STWA_IR_PLAN_H_
