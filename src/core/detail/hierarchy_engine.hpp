// Hierarchical flow-equivalent-server (FES) decomposition — the
// Chandy–Herzog–Woo / Norton aggregation behind SolverKind::kHierarchical.
//
// The method: partition the network into tiers, solve each tier's
// subnetwork in isolation (think time 0) across populations 1..j* to
// extract its throughput profile X_sub(j), replace the subnetwork by one
// load-dependent station with rate multipliers alpha(j) = X_sub(j) /
// X_sub(1) and service time 1 / X_sub(1), and solve the reduced network
// with the full load-dependent marginal recursion.  For product-form
// networks (constant demands) the aggregation is *exact* — including
// multiple simultaneous aggregates — so a tolerance-0 hierarchical solve
// reproduces the flat exact solution up to floating-point noise.  With
// concurrency-varying demands (MVASD) the subnetwork is evaluated at its
// own population rather than the system population, which makes the
// decomposition a controlled approximation.
//
// The perf play is twofold:
//  * Truncated support.  Once a subnetwork saturates, X_sub(j) is flat;
//    the reduced recursion keeps explicit marginals only below the
//    saturation point j* and folds everything above into two running tail
//    aggregates (total mass and total jobs), so a reduced level costs
//    O(sum_t j*_t) instead of the flat solver's O(sum_k C_k).  Untouched
//    stations run through the same uniform kernel (a C-server station is
//    the load-dependent station with alpha(j) = min(j, C), support C; a
//    single server has support 1 and reduces to R = S (1 + Q)).
//  * Memoized profiles.  Profile extraction is expressed as ordinary
//    ScenarioSpecs (mvasd, think 0) routed through a pluggable
//    evaluator; the scenario engine plugs its fingerprint cache in, so a
//    batch that edits one tier recomputes one profile and reuses the rest.
//
// Truncation only affects populations beyond j*, and the extraction
// schedule caps at max_population, so a prefix of a deep hierarchical
// solve is bit-identical to a direct shallower solve — the property the
// engine's population-prefix cache reuse relies on (DESIGN.md §15).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/network.hpp"
#include "core/result.hpp"
#include "core/solve.hpp"
#include "core/sweep.hpp"

namespace mtperf::core::detail {

/// How one position of the reduced network maps back to the original.
struct HierarchyUnit {
  bool is_tier = false;
  /// Tier index (into HierarchyPlan::tiers) when is_tier, else the
  /// original station index.
  std::size_t index = 0;
};

/// A validated partition of the network into FES tiers plus untouched
/// stations, in reduced-network order (each tier sits at the position of
/// its first member station).
struct HierarchyPlan {
  std::vector<TierSpec> tiers;
  std::vector<HierarchyUnit> units;
  std::vector<std::size_t> untouched;  ///< original indices kept as-is
};

/// Resolve options.tiers against the network — or, when empty, build the
/// automatic partition (contiguous blocks of queueing stations, roughly
/// sqrt(K) blocks; single-station blocks stay untouched).  Validates that
/// tiers are nonempty, disjoint, and in range; throws
/// mtperf::invalid_argument_error naming the offending tier or station.
HierarchyPlan plan_hierarchy(const ClosedNetwork& network,
                             const HierarchyOptions& options);

/// Evaluation hook for subnetwork profile extraction.  The scenario engine
/// routes these specs through its fingerprint cache (FES profile
/// memoization; a doubled profile depth re-solves and replaces the
/// shallower entry); a null evaluator falls back to direct core::solve
/// calls.  Must return a result with at least spec.options.max_population
/// levels.
using SubnetworkEvaluator =
    std::function<std::shared_ptr<const MvaResult>(const ScenarioSpec&)>;

/// The spec whose solution yields `tier`'s FES profile at depth `depth`:
/// the tier's stations in isolation (original visits and demands, think
/// time 0), solved by the exact multiserver recursion.  The profile carries
/// the parent solve's `rows`: a utilization-only parent disaggregates only
/// utilizations, while an all-rows parent reads the member queues.
/// Exposed so tests can pin the cache key the engine memoizes profiles
/// under.
ScenarioSpec subnetwork_spec(const ClosedNetwork& network,
                             const DemandModel& demands, const TierSpec& tier,
                             unsigned depth,
                             StationRows rows = StationRows::kAll);

/// Solve `network` hierarchically per options.hierarchy (see solve.hpp),
/// storing the station rows options.station_rows asks for.  Validates like
/// core::solve; additionally requires concurrency-axis demands and a
/// positive aggregate demand per tier.
MvaResult solve_hierarchical(const ClosedNetwork& network,
                             const DemandModel* demands,
                             const SolveOptions& options,
                             const SubnetworkEvaluator& evaluator = {});

}  // namespace mtperf::core::detail
