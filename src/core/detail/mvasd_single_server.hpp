// The Fig. 8 baseline for MVASD (Algorithm 3): the same concurrency- or
// throughput-varying demands, but with multi-core CPUs handled by dividing
// demands by the core count and running the single-server recursion.  The
// paper shows this normalization is distinctly worse than the exact
// multi-server model (kMvasd).  Reached through core::solve
// (SolverKind::kMvasdSingleServer); not part of the public API.
#pragma once

#include "core/demand_model.hpp"
#include "core/network.hpp"
#include "core/result.hpp"

namespace mtperf::core::detail {

/// Varying demands, but every C_k-server station replaced by a single
/// server with demand SS_k^n / C_k (the classic heuristic).
/// `rows` picks the stored station rows (StationRows::kUtilization skips
/// the queue and residence rows).
MvaResult mvasd_single_server(const ClosedNetwork& network,
                              const DemandModel& demands,
                              unsigned max_population,
                              StationRows rows = StationRows::kAll);

}  // namespace mtperf::core::detail
