// Fixed metric name lists of the per-layer probes.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>
#include <vector>

#include "ir/plan.h"
#include "report.h"

namespace perfbench {

/// OpKinds reported as ir.op.<kind>.self_us (forward plan) and
/// ir.train_op.<kind>.self_us (train plan): the twelve with the largest
/// self time on the former pems08_city workload (forward) and on
/// train_pems08 (train) at the seed commit. The lists are fixed so every
/// run reports the same metric names; a kind a plan does not contain
/// reports 0.
extern const char* const kForwardOpKinds[];
extern const size_t kNumForwardOpKinds;
extern const char* const kTrainOpKinds[];
extern const size_t kNumTrainOpKinds;

/// GEMM shapes reported, largest first (simd.gemm.rank<i>.*).
constexpr int kGemmRanks = 6;

/// Adds <prefix><kind>.self_us for every kind in `kinds` from a plan
/// profile accumulated over `reps` replays, and logs every kind present.
void AddOpProfile(const std::vector<stwa::ir::OpProfile>& profile, int reps,
                  const char* prefix, const char* const* kinds, size_t count,
                  Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
