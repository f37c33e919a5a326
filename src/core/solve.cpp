#include "core/solve.hpp"

#include <cstddef>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/detail/batch_engine.hpp"
#include "core/detail/hierarchy_engine.hpp"
#include "core/detail/multiclass_batch_engine.hpp"
#include "core/detail/multiclass_engine.hpp"
#include "core/detail/mva_approx_multiserver.hpp"
#include "core/detail/mva_exact.hpp"
#include "core/detail/mva_schweitzer.hpp"
#include "core/detail/mva_seidmann.hpp"
#include "core/detail/mvasd_single_server.hpp"
#include "core/sweep.hpp"

namespace mtperf::core {

namespace {

struct KindName {
  SolverKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {SolverKind::kExactSingleServer, "exact"},
    {SolverKind::kSchweitzer, "schweitzer"},
    {SolverKind::kApproxMultiserver, "approx-multiserver"},
    {SolverKind::kMvasd, "mvasd"},
    {SolverKind::kMvasdSingleServer, "mvasd-single-server"},
    {SolverKind::kSeidmann, "seidmann"},
    {SolverKind::kSeidmannSchweitzer, "seidmann-schweitzer"},
    {SolverKind::kExactMulticlass, "exact-multiclass"},
    {SolverKind::kMomMulticlass, "mom-multiclass"},
    {SolverKind::kSchweitzerMulticlass, "schweitzer-multiclass"},
    {SolverKind::kHierarchical, "hierarchical"},
};

/// Constant demands as the span the fixed-demand kernels take.
std::vector<double> constant_demands(const DemandModel& demands,
                                     SolverKind kind) {
  MTPERF_REQUIRE(demands.is_constant(),
                 std::string("solver '") + solver_kind_name(kind) +
                     "' requires constant demands (DemandModel::constant)");
  return demands.all_at(1.0);
}

}  // namespace

const char* solver_kind_name(SolverKind kind) {
  for (const auto& [k, name] : kKindNames) {
    if (k == kind) return name;
  }
  MTPERF_REQUIRE(false, "unknown SolverKind value");
  return "";  // unreachable
}

SolverKind parse_solver_kind(const std::string& name) {
  for (const auto& [kind, n] : kKindNames) {
    if (name == n) return kind;
  }
  // Algorithm 2 is Algorithm 3 over constant demands, and a C-server
  // station is the load-dependent station with alpha(j) = min(j, C): both
  // historical names stay accepted as aliases of the one recursion.
  if (name == "exact-multiserver" || name == "load-dependent") {
    return SolverKind::kMvasd;
  }
  throw invalid_argument_error("unknown solver kind: '" + name + "'");
}

unsigned multiclass_axis_levels(SolverKind kind,
                                const std::vector<CustomerClass>& classes) {
  MTPERF_REQUIRE(is_multiclass(kind),
                 "multiclass_axis_levels needs a multiclass solver kind");
  // The axis lookup also rejects all-idle mixes — run it for every kind
  // so MoM's single-level answer can't be requested for zero customers.
  const std::size_t axis = multiclass_axis_class(classes);
  if (kind == SolverKind::kMomMulticlass) return 1;
  return classes[axis].population;
}

void finalize_multiclass_options(SolveOptions& options) {
  MTPERF_REQUIRE(!options.classes.empty(),
                 "multiclass solver kinds need options.classes");
  options.max_population =
      multiclass_axis_levels(options.solver, options.classes);
}

MvaResult solve(const ClosedNetwork& network, const DemandModel* demands,
                const SolveOptions& options) {
  if (is_multiclass(options.solver)) {
    MTPERF_REQUIRE(!options.classes.empty(),
                   "multiclass solver kinds need options.classes");
    MTPERF_REQUIRE(
        options.max_population ==
            multiclass_axis_levels(options.solver, options.classes),
        "options.max_population must equal the multiclass axis depth "
        "(use finalize_multiclass_options)");
    const std::vector<CustomerClass>& classes = options.classes;
    const StationRows rows = options.station_rows;
    if (options.solver == SolverKind::kMomMulticlass) {
      detail::validate_multiclass(network, classes);
      return detail::mom_multiclass_engine(network, classes, rows);
    }
    // The series kinds run one lane of the lockstep kernel.  It validates
    // the mix, runs the exact kind's lattice guard before tabulating
    // anything, and tabulates per-class demand rows up to the mix's total
    // population.
    std::vector<detail::MulticlassBatchLane> lane(1);
    lane[0].network = &network;
    lane[0].classes = &classes;
    lane[0].schweitzer = options.schweitzer;
    lane[0].rows = rows;
    return std::move(
        detail::solve_multiclass_lane_block(options.solver, lane)[0]);
  }
  MTPERF_REQUIRE(options.classes.empty(),
                 std::string("options.classes requires a multiclass solver "
                             "kind; '") +
                     solver_kind_name(options.solver) + "' is single-class");
  MTPERF_REQUIRE(demands != nullptr, "solve() needs a demand model");
  MTPERF_REQUIRE(demands->stations() == network.size(),
                 "demand model width must match station count");
  MTPERF_REQUIRE(options.max_population >= 1, "population must be at least 1");

  const unsigned n = options.max_population;
  const StationRows rows = options.station_rows;
  switch (options.solver) {
    case SolverKind::kExactSingleServer:
      return detail::exact_mva(
          network, constant_demands(*demands, options.solver), n, rows);
    case SolverKind::kSchweitzer:
      return detail::schweitzer_mva(
          network, constant_demands(*demands, options.solver), n,
          options.schweitzer, rows);
    case SolverKind::kApproxMultiserver:
      return detail::approx_mvasd(network, *demands, n, options.approx, rows);
    case SolverKind::kMvasd: {
      // Algorithm 3; with a constant model this is exactly Algorithm 2
      // (the same recursion over one demand row).  One lane of the lockstep
      // kernel.
      std::vector<detail::BatchLane> lane(1);
      lane[0].network = &network;
      lane[0].demands = demands;
      lane[0].max_population = n;
      lane[0].rows = rows;
      return std::move(detail::solve_lane_block(lane)[0]);
    }
    case SolverKind::kMvasdSingleServer:
      return detail::mvasd_single_server(network, *demands, n, rows);
    case SolverKind::kSeidmann:
      return detail::seidmann_mva(
          network, constant_demands(*demands, options.solver), n, rows);
    case SolverKind::kSeidmannSchweitzer:
      return detail::seidmann_schweitzer_mva(
          network, constant_demands(*demands, options.solver), n,
          options.schweitzer, rows);
    case SolverKind::kHierarchical:
      // Direct profile extraction; the scenario engine passes its own
      // evaluator so subnetwork profiles go through the fingerprint cache.
      return detail::solve_hierarchical(network, demands, options);
    case SolverKind::kExactMulticlass:
    case SolverKind::kMomMulticlass:
    case SolverKind::kSchweitzerMulticlass:
      break;  // dispatched above, before the single-class validation
  }
  MTPERF_REQUIRE(false, "unknown SolverKind value");
  return MvaResult{};  // unreachable
}

std::vector<MvaResult> solve_batch(const std::vector<ScenarioSpec>& specs,
                                   ThreadPool* pool) {
  std::vector<MvaResult> out(specs.size());
  if (specs.empty()) return out;

  std::vector<const ScenarioSpec*> ptrs;
  ptrs.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) ptrs.push_back(&spec);
  const detail::BatchPlan plan = detail::plan_batch(ptrs);

  // One task per lockstep block plus one per scalar fallback; each task
  // writes disjoint output slots, so no synchronization is needed.
  const auto run_task = [&](std::size_t t) {
    if (t < plan.blocks.size()) {
      const std::vector<std::size_t>& block = plan.blocks[t];
      std::vector<MvaResult> results = detail::solve_planned_block(ptrs, block);
      for (std::size_t l = 0; l < block.size(); ++l) {
        out[block[l]] = std::move(results[l]);
      }
      return;
    }
    const std::size_t i = plan.scalars[t - plan.blocks.size()];
    out[i] = solve(specs[i].network, &specs[i].demands, specs[i].options);
  };
  const std::size_t tasks = plan.blocks.size() + plan.scalars.size();
  if (pool != nullptr && tasks > 1) {
    parallel_for(*pool, tasks, run_task);
  } else {
    for (std::size_t t = 0; t < tasks; ++t) run_task(t);
  }
  return out;
}

}  // namespace mtperf::core
