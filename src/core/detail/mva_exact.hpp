// Exact single-server Mean Value Analysis — the paper's Algorithm 1
// (Reiser & Lavenberg).  Starts from an empty network and adds one customer
// per iteration:
//   R_k = S_k (1 + Q_k)            per queueing station
//   R_k = S_k                      per delay station
//   X_n = n / (Z + sum_k V_k R_k)  (Little's law)
//   Q_k = X_n V_k R_k              (Little's law per queue)
// Reached through core::solve (SolverKind::kExactSingleServer); not part of
// the public API.
#pragma once

#include <span>

#include "core/network.hpp"
#include "core/result.hpp"

namespace mtperf::core::detail {

/// Solve the closed network for populations 1..max_population with constant
/// per-visit service times `service_times` (S_k, one per station).  Station
/// server counts are ignored — this is the single-server algorithm; use
/// SolverKind::kMvasd or normalize demands for multi-core stations.
/// `rows` picks the stored station rows (StationRows::kUtilization skips
/// the queue and residence rows).
MvaResult exact_mva(const ClosedNetwork& network,
                    std::span<const double> service_times,
                    unsigned max_population,
                    StationRows rows = StationRows::kAll);

}  // namespace mtperf::core::detail
