// Internal engine shared by Algorithm 2 (exact multi-server MVA, constant
// demands) and Algorithm 3 (MVASD, concurrency- or throughput-varying
// demands).  core::solve reaches it as SolverKind::kMvasd; not part of the
// public API.
//
// MVASD is the paper's contribution: exact multi-server MVA in which each
// station's service demand is not a constant but an *array* SS_k^n indexed
// by concurrency, produced by spline interpolation of demands measured at a
// few load-test points (Service Demand Law).  At every population n the
// recursion re-evaluates the splines (Eq. 11), so the predicted
// throughput/response-time slopes track the measured demand variation —
// the effect plain MVA misses (paper Figs. 4-7).  A throughput-axis
// DemandModel gives Section 7's variant: demands interpolated against
// throughput and looked up with the previous iteration's X.
#pragma once

#include <cstddef>
#include <vector>

#include "core/demand_model.hpp"
#include "core/network.hpp"
#include "core/result.hpp"

namespace mtperf::core::detail {

/// Optional per-population capture of one station's marginal queue-size
/// probabilities P_k(j), j = 0..C_k-1 (paper Fig. 3 plots these for a
/// 4-core CPU).
struct MarginalTrace {
  std::size_t station = 0;
  /// rows[n-1][j] = P_station(j | n) after the population-n update.
  std::vector<std::vector<double>> rows;
};

/// Run the multi-server exact MVA recursion for populations 1..N.
/// `demands` supplies the per-station service demand at each population —
/// constant for Algorithm 2, interpolated for Algorithm 3.  When `trace` is
/// non-null its `station` field selects which station to capture.
///
/// `grid` optionally supplies an already-tabulated DemandGrid for `demands`
/// (content-identical, tabulated to at least `max_population`); the solver
/// then skips its own tabulation.  The scenario engine uses this to re-solve
/// deepened cache entries without re-tabulating from population 1.
///
/// `rows` picks the stored station rows (StationRows::kUtilization skips
/// the queue and residence rows).
MvaResult run_multiserver_mva(const ClosedNetwork& network,
                              const DemandModel& demands,
                              unsigned max_population,
                              MarginalTrace* trace = nullptr,
                              const DemandGrid* grid = nullptr,
                              StationRows rows = StationRows::kAll);

}  // namespace mtperf::core::detail
