// Schweitzer's approximate MVA (paper Eq. 9): replaces the exact recursion
// over populations with a fixed point at each target population, using the
// proportional estimate
//   Q_k(n-1) ~= (n-1)/n * Q_k(n).
// O(K) memory and typically a handful of iterations per population — the
// standard choice when N is large.  The paper's point is that prior
// multi-server extensions ([19], [20], MAQ-PRO) build on *this*
// approximation, which compounds with demand-variation error; MVASD instead
// builds on the exact recursion.
// Reached through core::solve (SolverKind::kSchweitzer); not part of the
// public API.
#pragma once

#include <span>

#include "core/network.hpp"
#include "core/result.hpp"
#include "core/solve.hpp"

namespace mtperf::core::detail {

/// Approximate single-server MVA at populations 1..max_population.
/// `rows` picks the stored station rows (StationRows::kUtilization skips
/// the queue and residence rows).
MvaResult schweitzer_mva(const ClosedNetwork& network,
                         std::span<const double> service_times,
                         unsigned max_population,
                         const SchweitzerOptions& options = {},
                         StationRows rows = StationRows::kAll);

}  // namespace mtperf::core::detail
