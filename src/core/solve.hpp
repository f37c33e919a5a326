// The unified solver facade: the one public entry point to the MVA family.
//
// Capacity-planning callers — what-if sweeps, Chebyshev test plans, the
// scenario-evaluation engine — treat "which solver" as *data*, so every
// solver is reached through a single declarative call:
//
//   MvaResult r = solve(network, &demands, {SolverKind::kMvasd, 1500});
//
// solve() validates the request and dispatches to a kernel in core/detail
// (kinds that run one recursion share its kernel); solve_batch() and
// run_scenarios() (core/sweep.hpp) evaluate many specs at once, and the
// *_scenario builders (core/prediction.hpp) turn a measurement campaign
// into a spec.
#pragma once

#include <string>
#include <vector>

#include "core/demand_model.hpp"
#include "core/mva_multiclass.hpp"
#include "core/network.hpp"
#include "core/result.hpp"

namespace mtperf {
class ThreadPool;  // common/thread_pool.hpp
}  // namespace mtperf

namespace mtperf::core {

struct ScenarioSpec;  // core/sweep.hpp

/// Which member of the MVA family evaluates the scenario.
enum class SolverKind {
  kExactSingleServer,   ///< Algorithm 1: exact, servers ignored — constant
  kSchweitzer,          ///< Eq. 9 fixed point — constant demands
  kApproxMultiserver,   ///< Schweitzer + M/M/C correction — any demands
  kMvasd,               ///< Algorithms 2 and 3 — any demands
  kMvasdSingleServer,   ///< Fig. 8 baseline: exact, demands / C_k — any
  kSeidmann,            ///< Seidmann transform + Algorithm 1 — constant
  kSeidmannSchweitzer,  ///< Seidmann transform + Schweitzer — constant
  kExactMulticlass,     ///< exact population-vector recursion — small mixes
  kMomMulticlass,       ///< RECAL moment recursion — exact, large mixes
  kSchweitzerMulticlass,///< multi-class Schweitzer fixed point
  kHierarchical,        ///< FES decomposition (Chandy–Herzog–Woo / Norton)
};

/// True for the customer-class solver kinds (they read options.classes and
/// ignore the single-class demand model).
inline bool is_multiclass(SolverKind kind) noexcept {
  return kind == SolverKind::kExactMulticlass ||
         kind == SolverKind::kMomMulticlass ||
         kind == SolverKind::kSchweitzerMulticlass;
}

/// Stable lower-case identifier ("mvasd", "schweitzer", ...) used by the
/// CLI, the serve tool's JSON protocol, and error messages.
const char* solver_kind_name(SolverKind kind);

/// Inverse of solver_kind_name, plus the aliases "exact-multiserver"
/// (Algorithm 2) and "load-dependent" (the multi-server law
/// alpha_k(j) = min(j, C_k)) for kMvasd; throws
/// mtperf::invalid_argument_error for unknown names.
SolverKind parse_solver_kind(const std::string& name);

/// One aggregation unit of the hierarchical solver (kHierarchical): the
/// listed stations are solved in isolation (think time 0, populations
/// 1..j*) to extract a flow-equivalent-server throughput profile, then
/// replaced in the reduced network by a single load-dependent station.
struct TierSpec {
  /// Display name; the FES station is reported as "fes:<name>" when the
  /// solve runs at tier detail.
  std::string name;
  /// Station indices of the subnetwork (disjoint across tiers, nonempty).
  std::vector<std::size_t> stations;
};

/// How much per-station detail kHierarchical reports back.
enum class HierarchyDetail {
  /// Disaggregate every FES marginal back to the member stations: the
  /// result has the original network's station rows (default).
  kStations,
  /// Report the reduced network as-is: one row per untouched station plus
  /// one "fes:<tier>" row per tier — the cheap dashboard mode.
  kTiers,
};

/// kHierarchical controls.  Aggregate-initializable like SolveOptions.
struct HierarchyOptions {
  /// Explicit tiers.  Empty selects the automatic partition: contiguous
  /// blocks of queueing stations near sqrt(K) in size (the service-graph
  /// compiler substitutes tier labels / call depths instead — see
  /// graph::partition_tiers).
  std::vector<TierSpec> tiers{};
  /// Truncate each FES profile at the first population j whose throughput
  /// gain X(j) - X(j-1) falls below tolerance * X(j) (the subnetwork has
  /// saturated); 0 keeps the full profile — exact for constant demands.
  double saturation_tolerance = 0.0;
  /// First depth of the adaptive profile-extraction schedule; doubled
  /// until the saturation plateau is found or max_population is reached.
  unsigned initial_depth = 32;
  HierarchyDetail detail = HierarchyDetail::kStations;
};

/// Fixed-point controls of the Schweitzer kinds (kSchweitzer,
/// kSeidmannSchweitzer, kSchweitzerMulticlass).
struct SchweitzerOptions {
  double tolerance = 1e-10;     ///< max |Q_k change| convergence threshold
  unsigned max_iterations = 10000;
};

/// Fixed-point controls of kApproxMultiserver.
struct ApproxMultiserverOptions {
  double tolerance = 1e-10;
  unsigned max_iterations = 20000;
};

/// Everything a solver invocation needs beyond the network and demands.
/// Aggregate-initializable: `{SolverKind::kMvasd, 1500}`.
struct SolveOptions {
  SolverKind solver = SolverKind::kMvasd;
  /// Solve populations 1..max_population (must be >= 1).
  unsigned max_population = 1;
  /// Fixed-point controls for the approximate solvers; ignored by the exact
  /// recursions.
  SchweitzerOptions schweitzer{};
  ApproxMultiserverOptions approx{};
  /// Multiclass kinds only: the customer classes of the mix.  Must be
  /// empty for every other kind.  When set, `max_population` must equal
  /// multiclass_axis_levels(solver, classes) — the series solvers emit one
  /// result level per axis-class population, so the facade, cache, and
  /// engine treat the axis depth exactly like a single-class population.
  /// Call finalize_multiclass_options() to establish the invariant.
  std::vector<CustomerClass> classes{};
  /// kHierarchical only: partition and truncation controls.  Ignored by
  /// every other kind.
  HierarchyOptions hierarchy{};
  /// Which per-station rows the result carries.  Every kind honors it, and
  /// the values it keeps are bit-identical to a kAll solve's.  The scenario
  /// server's request parser sets kUtilization; the fingerprint keys on it.
  StationRows station_rows = StationRows::kAll;
};

/// Result depth of a multiclass solve: the axis class's population for the
/// series kinds (kExactMulticlass, kSchweitzerMulticlass), 1 for
/// kMomMulticlass (a single level at the full mix).
unsigned multiclass_axis_levels(SolverKind kind,
                                const std::vector<CustomerClass>& classes);

/// Set options.max_population to multiclass_axis_levels(...) — the
/// invariant solve() and the scenario engine's fingerprint require of every
/// class-bearing SolveOptions.
void finalize_multiclass_options(SolveOptions& options);

/// Solve the network with the solver selected by `options`.
///
/// `demands` must be non-null and match the network's station count.
/// Solvers without a varying-demand variant (kExactSingleServer,
/// kSchweitzer, kSeidmann*) require a constant model
/// (DemandModel::constant); kApproxMultiserver, kMvasd and
/// kMvasdSingleServer accept any model (Algorithm 3 *is* Algorithm 2 with
/// demand arrays).  kMvasd runs the lane kernel's one-lane path
/// (core/detail/batch_engine.hpp), the same recursion solve_batch runs in
/// wider blocks.  kExactSingleServer, kSeidmann and kMvasdSingleServer run
/// that one-lane path too, on a copy of their network with every station
/// single-server: kSeidmann after the Seidmann transform (core/seidmann.hpp),
/// kMvasdSingleServer with station k's demand read as f_k / C_k.
/// kSeidmannSchweitzer runs the transform and kSchweitzer's fixed point.
/// All validation failures throw mtperf::invalid_argument_error.
///
/// Multiclass kinds read options.classes instead of `demands` (which may
/// be null for them).  kExactMulticlass and kSchweitzerMulticlass run the
/// multiclass lane kernel's one-lane path, the same recursions solve_batch
/// runs in wider blocks.
MvaResult solve(const ClosedNetwork& network, const DemandModel* demands,
                const SolveOptions& options);

/// Reference convenience overload.
inline MvaResult solve(const ClosedNetwork& network, const DemandModel& demands,
                       const SolveOptions& options) {
  return solve(network, &demands, options);
}

/// Solve many scenarios at once, batching structure-compatible specs (same
/// solver kind, station count, per-station server counts and kinds) through
/// the lane-major lockstep kernels so the population recursion runs once
/// per group instead of once per spec (detail::plan_batch and
/// detail::solve_planned_block, which service::Engine::evaluate_batch runs
/// too).  Specs no batched kernel covers fall back to per-spec solve()
/// calls.  Results always match per-spec solve() calls bit-for-bit and are
/// returned in input order.  With a pool, lockstep blocks and scalar
/// fallbacks run as parallel tasks.  Any spec's failure throws out of the
/// whole call; the engine's evaluate_batch answers each spec on its own.
std::vector<MvaResult> solve_batch(const std::vector<ScenarioSpec>& specs,
                                   ThreadPool* pool = nullptr);

}  // namespace mtperf::core
