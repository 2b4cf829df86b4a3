#include "ir/time_slice.h"

#include <cstring>
#include <unordered_map>

#include "common/check.h"
#include "ir/registry.h"
#include "tensor/ops.h"

namespace stwa {
namespace ir {
namespace {

using ag::Node;
using ag::NodePtr;

/// Working classification of one node during the dataflow walk.
struct NodeTime {
  TimeClass cls = TimeClass::kGlobal;
  int64_t axis = -1;  // output time axis when cls == kSliced
};

int64_t Prod(const Shape& s, size_t begin, size_t end) {
  int64_t p = 1;
  for (size_t i = begin; i < end && i < s.size(); ++i) p *= s[i];
  return p;
}

bool IsElementwiseBinary(OpKind k) {
  return k == OpKind::kAdd || k == OpKind::kSub || k == OpKind::kMul ||
         k == OpKind::kDiv;
}

bool IsElementwiseUnary(OpKind k) {
  switch (k) {
    case OpKind::kAddScalar:
    case OpKind::kMulScalar:
    case OpKind::kExp:
    case OpKind::kLog:
    case OpKind::kSqrt:
    case OpKind::kSquare:
    case OpKind::kAbs:
    case OpKind::kTanh:
    case OpKind::kSigmoid:
    case OpKind::kRelu:
    case OpKind::kHuberElem:
    case OpKind::kDetach:
      return true;
    default:
      return false;
  }
}

/// Per-kind transfer function: given the parents' classifications, decide
/// the node's own. Every rule proves "output column t reads only input
/// column t (of sliced parents) plus invariant data"; anything unproven
/// falls through to kGlobal, which is always sound. Node values are still
/// live from the capture trace, so shapes are read directly.
NodeTime Transfer(const Node* n,
                  const std::unordered_map<const Node*, NodeTime>& cls,
                  int64_t window) {
  NodeTime global;  // default result
  // Gather parents. Any unknown or global parent ends the analysis here.
  // Model parameters are leaves owned by the model, not by plan.nodes();
  // an out-of-map kLeaf parent is a fixed captured value for the plan's
  // whole lifetime (weight changes arrive as a new plan), so it is
  // window-invariant by construction.
  std::vector<const Node*> parents;
  std::vector<NodeTime> ptime;
  parents.reserve(n->parents.size());
  ptime.reserve(n->parents.size());
  bool any_sliced = false;
  for (const NodePtr& p : n->parents) {
    auto it = cls.find(p.get());
    NodeTime t;
    if (it != cls.end()) {
      t = it->second;
    } else if (p->kind == OpKind::kLeaf) {
      t = {TimeClass::kInvariant, -1};
    } else {
      return global;
    }
    if (t.cls == TimeClass::kGlobal) return global;
    if (t.cls == TimeClass::kSliced) any_sliced = true;
    parents.push_back(p.get());
    ptime.push_back(t);
  }
  if (!any_sliced) {
    // Every input is window-invariant, so the (deterministic) output is
    // too. Sampling kinds never reach here: they make the plan infeasible.
    return {TimeClass::kInvariant, -1};
  }
  auto at = [&](size_t i) -> const NodeTime& { return ptime[i]; };
  auto sliced = [](int64_t axis) { return NodeTime{TimeClass::kSliced, axis}; };
  // A sliced value's time extent is the full window by construction (the
  // rules below never shrink it); verify against the live capture shapes
  // as a belt-and-suspenders guard.
  auto check_extent = [&](const Node* p, int64_t axis) {
    const Shape& s = p->value.shape();
    return axis >= 0 && axis < static_cast<int64_t>(s.size()) &&
           s[static_cast<size_t>(axis)] == window;
  };
  for (size_t i = 0; i < parents.size(); ++i) {
    if (at(i).cls == TimeClass::kSliced &&
        !check_extent(parents[i], at(i).axis)) {
      return global;
    }
  }

  const OpKind k = n->kind;
  if (IsElementwiseUnary(k)) {
    return sliced(at(0).axis);
  }
  if (IsElementwiseBinary(k)) {
    // NumPy right-aligned broadcast: parent axis a of a rank-r operand maps
    // to output axis a + (R - r). All sliced operands must land on one
    // output axis; invariant operands must broadcast across it (dim absent
    // or extent 1), else each output column would read a different slice
    // of a time-spanning constant.
    const int64_t out_rank =
        static_cast<int64_t>(n->value.shape().size());
    int64_t out_axis = -1;
    for (size_t i = 0; i < parents.size(); ++i) {
      const int64_t r = static_cast<int64_t>(parents[i]->value.shape().size());
      if (at(i).cls == TimeClass::kSliced) {
        const int64_t oa = at(i).axis + (out_rank - r);
        if (out_axis >= 0 && oa != out_axis) return global;
        out_axis = oa;
      }
    }
    if (out_axis < 0) return global;
    for (size_t i = 0; i < parents.size(); ++i) {
      if (at(i).cls != TimeClass::kInvariant) continue;
      const Shape& s = parents[i]->value.shape();
      const int64_t r = static_cast<int64_t>(s.size());
      const int64_t pos = out_axis - (out_rank - r);
      if (pos >= 0 && s[static_cast<size_t>(pos)] != 1) return global;
    }
    return sliced(out_axis);
  }

  switch (k) {
    case OpKind::kMatMul: {
      // Column independence needs the time axis on the M side of a GEMM
      // against an invariant weight: every output row (= time column) is
      // its own dot-product row, and gemm.h guarantees row bits do not
      // depend on M. Time on the K axis mixes columns; a sliced right
      // operand would transpose time into N with per-column weights.
      if (at(0).cls != TimeClass::kSliced ||
          at(1).cls != TimeClass::kInvariant) {
        return global;
      }
      const int64_t ra = static_cast<int64_t>(parents[0]->value.shape().size());
      const int64_t rb = static_cast<int64_t>(parents[1]->value.shape().size());
      const int64_t ta = at(0).axis;
      if (ta == ra - 1) return global;  // time on K
      if (ta == ra - 2) {
        // Time on M: output keeps [..., time, n].
        if (rb == 2 || rb == ra) return sliced(ta);
        return global;
      }
      // Time on a batch dim: sound only when the weight is rank-2 (shared
      // across the batch); an equal-rank invariant operand would carry a
      // window-sized batch extent of its own.
      if (rb == 2) return sliced(ta);
      return global;
    }
    case OpKind::kTransposeLast2: {
      const int64_t r = static_cast<int64_t>(parents[0]->value.shape().size());
      const int64_t a = at(0).axis;
      if (a == r - 1) return sliced(r - 2);
      if (a == r - 2) return sliced(r - 1);
      return sliced(a);
    }
    case OpKind::kPermute: {
      const std::vector<int64_t>& perm = n->attrs.ints;
      for (size_t j = 0; j < perm.size(); ++j) {
        if (perm[j] == at(0).axis) return sliced(static_cast<int64_t>(j));
      }
      return global;
    }
    case OpKind::kReshape: {
      // The time axis survives a reshape when some output dim of extent
      // `window` has the same element counts before and after it as the
      // input's time axis — then the flat layout keeps whole time blocks
      // intact. Folding time into a fused dim (e.g. [B,N,H*F]) fails the
      // test and is global, as it must be.
      const Shape& in = parents[0]->value.shape();
      const Shape& out = n->value.shape();
      const size_t a = static_cast<size_t>(at(0).axis);
      const int64_t prefix = Prod(in, 0, a);
      const int64_t suffix = Prod(in, a + 1, in.size());
      for (size_t j = 0; j < out.size(); ++j) {
        if (out[j] == window && Prod(out, 0, j) == prefix &&
            Prod(out, j + 1, out.size()) == suffix) {
          return sliced(static_cast<int64_t>(j));
        }
      }
      return global;
    }
    case OpKind::kConcat: {
      // Concat extents must match on every non-concat axis, so an
      // invariant operand would necessarily span the window — global.
      int64_t axis = -1;
      for (size_t i = 0; i < parents.size(); ++i) {
        if (at(i).cls != TimeClass::kSliced) return global;
        if (axis >= 0 && at(i).axis != axis) return global;
        axis = at(i).axis;
      }
      if (axis == n->attrs.axis) return global;
      return sliced(axis);
    }
    case OpKind::kSlice: {
      if (n->attrs.axis == at(0).axis) return global;
      return sliced(at(0).axis);
    }
    case OpKind::kSum: {
      const int64_t a = at(0).axis;
      if (n->attrs.axis == a) return global;
      if (!n->attrs.keepdims && n->attrs.axis < a) return sliced(a - 1);
      return sliced(a);
    }
    case OpKind::kSoftmaxLast: {
      const int64_t r = static_cast<int64_t>(parents[0]->value.shape().size());
      if (at(0).axis == r - 1) return global;
      return sliced(at(0).axis);
    }
    case OpKind::kIndexSelect0: {
      if (at(0).axis == 0) return global;
      return sliced(at(0).axis);
    }
    default:
      // kSumAll / kMeanAll / anything new: global.
      return global;
  }
}

}  // namespace

TimeSliceInfo AnalyzeTimeSlice(const ExecutionPlan& plan, size_t feed_index,
                               int64_t time_axis) {
  TimeSliceInfo info;
  const std::vector<Node*>& steps = plan.forward_steps();
  info.step_class.assign(steps.size(), TimeClass::kGlobal);
  info.step_axis.assign(steps.size(), -1);
  info.global_mask.assign(steps.size(), 1);
  info.non_invariant_mask.assign(steps.size(), 1);

  if (plan.with_backward()) return info;
  if (feed_index >= plan.feed_nodes().size()) return info;
  // A second feed would need its own axis story; serving plans have one.
  if (plan.feed_nodes().size() != 1) return info;
  const Node* feed = plan.feed_nodes()[feed_index];
  const Shape& fs = feed->value.shape();
  if (time_axis < 0 || time_axis >= static_cast<int64_t>(fs.size())) {
    return info;
  }
  info.window = fs[static_cast<size_t>(time_axis)];
  if (info.window < 2) return info;  // nothing to shift

  for (Node* n : steps) {
    if (n->kind == OpKind::kRandn || n->kind == OpKind::kDropoutMask) {
      info.has_rng = true;
      return info;
    }
    // Analysis reads capture-time shapes; a released value means the plan
    // has already replayed and the walk would be blind.
    if (n->value.empty()) return info;
  }

  std::unordered_map<const Node*, NodeTime> cls;
  cls.reserve(plan.nodes().size());
  for (const NodePtr& n : plan.nodes()) {
    if (n->kind == OpKind::kLeaf) {
      cls[n.get()] = {TimeClass::kInvariant, -1};
    }
  }
  cls[feed] = {TimeClass::kSliced, time_axis};

  for (size_t i = 0; i < steps.size(); ++i) {
    const NodeTime t = Transfer(steps[i], cls, info.window);
    cls[steps[i]] = t;
    info.step_class[i] = t.cls;
    info.step_axis[i] = t.axis;
    switch (t.cls) {
      case TimeClass::kInvariant:
        info.invariant_steps.push_back(i);
        ++info.invariant_count;
        info.global_mask[i] = 0;
        info.non_invariant_mask[i] = 0;
        break;
      case TimeClass::kSliced:
        info.sliced_steps.push_back(i);
        ++info.sliced_count;
        info.global_mask[i] = 0;
        break;
      case TimeClass::kGlobal:
        ++info.global_count;
        break;
    }
  }

  // Frontier: sliced steps whose full window value is read outside the
  // sliced segment — by a global step, or as the plan's root.
  std::unordered_map<const Node*, size_t> step_of;
  step_of.reserve(steps.size());
  for (size_t i = 0; i < steps.size(); ++i) step_of[steps[i]] = i;
  std::vector<uint8_t> is_frontier(steps.size(), 0);
  for (size_t i = 0; i < steps.size(); ++i) {
    if (info.step_class[i] != TimeClass::kGlobal) continue;
    for (const NodePtr& p : steps[i]->parents) {
      auto it = step_of.find(p.get());
      if (it != step_of.end() &&
          info.step_class[it->second] == TimeClass::kSliced) {
        is_frontier[it->second] = 1;
      }
    }
  }
  {
    auto it = step_of.find(plan.root_node());
    if (it != step_of.end() &&
        info.step_class[it->second] == TimeClass::kSliced) {
      is_frontier[it->second] = 1;
    }
  }
  for (size_t i = 0; i < steps.size(); ++i) {
    if (is_frontier[i]) info.frontier_steps.push_back(i);
  }

  for (size_t i : info.invariant_steps) info.retain_nodes.push_back(steps[i]);
  for (size_t i : info.frontier_steps) info.retain_nodes.push_back(steps[i]);

  info.feasible = true;
  return info;
}

// --- ColumnProgram --------------------------------------------------------

ColumnProgram::ColumnProgram(const ExecutionPlan& plan,
                             const TimeSliceInfo& info, size_t feed_index) {
  if (!info.feasible) return;
  const std::vector<Node*>& steps = plan.forward_steps();
  const Node* feed = plan.feed_nodes()[feed_index];

  feed_shadow_ = std::make_shared<Node>();
  feed_shadow_->kind = OpKind::kLeaf;

  std::unordered_map<const Node*, NodePtr> shadow;
  shadow.reserve(info.sliced_steps.size() + 1);
  shadow[feed] = feed_shadow_;

  for (size_t i : info.sliced_steps) {
    Node* real = steps[i];
    NodePtr s = std::make_shared<Node>();
    s->kind = real->kind;
    s->attrs = real->attrs;
    if (real->kind == OpKind::kReshape) {
      // The reshape target must name the single-column time extent; every
      // other sliced kind is shape-agnostic (kernels read parent shapes).
      const size_t a = static_cast<size_t>(info.step_axis[i]);
      if (a >= s->attrs.shape.size() ||
          s->attrs.shape[a] != info.window) {
        return;  // surgery target mismatch — leave ok_ false
      }
      s->attrs.shape[a] = 1;
    }
    s->parents.reserve(real->parents.size());
    for (const NodePtr& p : real->parents) {
      auto sh = shadow.find(p.get());
      // Parents that stay on the real plan (params, invariant steps) are
      // shared NodePtrs, so the shadow graph can never outlive them, and
      // Run() reads their current (retained) values.
      s->parents.push_back(sh != shadow.end() ? sh->second : p);
    }
    shadow[real] = s;
    order_.push_back(std::move(s));
  }

  frontier_shadow_.reserve(info.frontier_steps.size());
  for (size_t i : info.frontier_steps) {
    auto it = shadow.find(steps[i]);
    if (it == shadow.end()) return;
    frontier_shadow_.push_back(it->second);
  }
  ok_ = true;
}

void ColumnProgram::Run(const Tensor& feed_column) {
  STWA_CHECK(ok_, "ColumnProgram::Run on a failed build");
  feed_shadow_->value = feed_column;
  for (const NodePtr& n : order_) {
    n->value = Kernel(n->kind).forward(*n);
  }
}

// --- Column splicing ------------------------------------------------------

Tensor SliceTimeColumn(const Tensor& t, int64_t axis, int64_t index) {
  return ops::Slice(t, axis, index, 1);
}

Tensor ShiftAppendColumn(const Tensor& full, const Tensor& column,
                         int64_t axis) {
  const Shape& s = full.shape();
  const size_t a = static_cast<size_t>(axis);
  STWA_CHECK(a < s.size(), "ShiftAppendColumn axis ", axis, " out of rank ",
             s.size());
  const int64_t steps = s[a];
  const int64_t outer = Prod(s, 0, a);
  const int64_t inner = Prod(s, a + 1, s.size());
  STWA_CHECK(column.size() == outer * inner,
             "ShiftAppendColumn column size ", column.size(),
             " != outer*inner ", outer * inner);
  Tensor out = Tensor::Uninit(s);
  const float* src = full.data();
  const float* col = column.data();
  float* dst = out.data();
  const int64_t block = steps * inner;
  for (int64_t o = 0; o < outer; ++o) {
    std::memcpy(dst + o * block, src + o * block + inner,
                static_cast<size_t>((steps - 1) * inner) * sizeof(float));
    std::memcpy(dst + o * block + (steps - 1) * inner, col + o * inner,
                static_cast<size_t>(inner) * sizeof(float));
  }
  return out;
}

}  // namespace ir
}  // namespace stwa
