// Approximate multi-server MVA — the style of solver the paper's
// references [19]/[20] build and MAQ-PRO adopts: Schweitzer's fixed point
// with a multi-server correction derived from the stationary M/M/C
// queue-length distribution at the station's current utilization.
//
// Cheaper than the exact recursion (O(K) state, no per-population sweep)
// but, as the paper argues, its error compounds with demand-variation
// error at high concurrency.  Provided as the quantitative baseline for
// that argument, and as a practical solver for very large N.
//
// Demands come from a DemandModel, so the same fixed point is the
// "approximate MVASD" over splined demands and the constant-demand solver
// over DemandModel::constant.  Reached through core::solve
// (SolverKind::kApproxMultiserver); not part of the public API.
#pragma once

#include "core/demand_model.hpp"
#include "core/network.hpp"
#include "core/result.hpp"
#include "core/solve.hpp"

namespace mtperf::core::detail {

/// Solve populations 1..max_population with demands evaluated per
/// population from the DemandModel (concurrency or throughput axis).
/// `rows` picks the stored station rows (StationRows::kUtilization skips
/// the queue and residence rows).
MvaResult approx_mvasd(const ClosedNetwork& network, const DemandModel& demands,
                       unsigned max_population,
                       const ApproxMultiserverOptions& options = {},
                       StationRows rows = StationRows::kAll);

}  // namespace mtperf::core::detail
