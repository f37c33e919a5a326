// Seidmann's approximation for multi-server queues (see core/seidmann.hpp
// for the transform): each C-server station becomes a single-server queue
// plus a delay leg, and a single-server recursion solves the result.
// Reached through core::solve (SolverKind::kSeidmann and
// kSeidmannSchweitzer); not part of the public API.
#pragma once

#include <span>

#include "core/network.hpp"
#include "core/result.hpp"
#include "core/solve.hpp"

namespace mtperf::core::detail {

/// Approximate multi-server MVA: Seidmann transform + exact single-server
/// recursion (so the only approximation is the transform itself).
/// `rows` picks the stored station rows (StationRows::kUtilization skips
/// the queue and residence rows).
MvaResult seidmann_mva(const ClosedNetwork& network,
                       std::span<const double> service_times,
                       unsigned max_population,
                       StationRows rows = StationRows::kAll);

/// The [19]-style combination: Seidmann transform + Schweitzer approximate
/// MVA — the baseline whose compounding error MVASD avoids.
MvaResult seidmann_schweitzer_mva(const ClosedNetwork& network,
                                  std::span<const double> service_times,
                                  unsigned max_population,
                                  const SchweitzerOptions& options = {},
                                  StationRows rows = StationRows::kAll);

}  // namespace mtperf::core::detail
