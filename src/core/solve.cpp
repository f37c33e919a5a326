#include "core/solve.hpp"

#include <cstddef>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/detail/batch_engine.hpp"
#include "core/detail/hierarchy_engine.hpp"
#include "core/detail/multiclass_batch_engine.hpp"
#include "core/detail/multiclass_engine.hpp"
#include "core/detail/mva_approx_multiserver.hpp"
#include "core/detail/mva_schweitzer.hpp"
#include "core/seidmann.hpp"
#include "core/sweep.hpp"
#include "interp/interpolator.hpp"
#include "interp/piecewise_cubic.hpp"

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

void require_constant(const DemandModel& demands, SolverKind kind) {
  MTPERF_REQUIRE(demands.is_constant(),
                 std::string("solver '") + solver_kind_name(kind) +
                     "' requires constant demands (DemandModel::constant)");
}

/// Constant demands as the span the fixed-point kernels take.
std::vector<double> constant_demands(const DemandModel& demands,
                                     SolverKind kind) {
  require_constant(demands, kind);
  return demands.all_at(1.0);
}

/// One lane of the lane kernel: the exact single-class recursion.
MvaResult solve_lane(const ClosedNetwork& network, const DemandModel& demands,
                     unsigned max_population, StationRows rows) {
  std::vector<detail::BatchLane> lane(1);
  lane[0].network = &network;
  lane[0].demands = &demands;
  lane[0].max_population = max_population;
  lane[0].rows = rows;
  return std::move(detail::solve_lane_block(lane)[0]);
}

/// `network` with every station single-server.  The single-server kinds
/// run the lane kernel on this copy: the kernel gives a C-server queue
/// marginals and divides every station's utilization by C, delay stations'
/// included, while the single-server recursion ignores server counts.
ClosedNetwork single_server(const ClosedNetwork& network) {
  std::vector<Station> stations = network.stations();
  for (Station& st : stations) st.servers = 1;
  return ClosedNetwork(std::move(stations), network.think_time());
}

/// f(x) / C: one station's demand curve, per server.  A cubic curve is
/// read through a segment cursor (bit-identical to value(), amortized O(1)
/// on the rising axis values a solve asks for), so the model must serve
/// one solve on one thread.
class PerServerCurve final : public interp::Interpolator1D {
 public:
  PerServerCurve(std::shared_ptr<const interp::Interpolator1D> curve,
                 double servers)
      : curve_(std::move(curve)),
        cubic_(dynamic_cast<const interp::PiecewiseCubic*>(curve_.get())),
        servers_(servers) {}

  double value(double x) const override {
    return (cubic_ != nullptr ? cubic_->value_with_cursor(x, cursor_)
                              : curve_->value(x)) /
           servers_;
  }
  double derivative(double x, int order) const override {
    return curve_->derivative(x, order) / servers_;
  }
  std::string name() const override { return curve_->name() + " per server"; }
  double x_min() const override { return curve_->x_min(); }
  double x_max() const override { return curve_->x_max(); }

 private:
  std::shared_ptr<const interp::Interpolator1D> curve_;
  const interp::PiecewiseCubic* cubic_;
  double servers_;
  mutable std::size_t cursor_ = 0;
};

/// The Fig. 8 baseline's demands: station k reads f_k(x) / C_k.  Constant
/// models divide their values up front.  Curves are wrapped, so
/// DemandModel::at clamps max(0, f / C), which equals max(0, f) / C bit for
/// bit since C >= 1: negative, -0 and NaN values all end at +0.
DemandModel per_server_demands(const ClosedNetwork& network,
                               const DemandModel& demands) {
  const auto servers = [&](std::size_t k) {
    return static_cast<double>(network.station(k).servers);
  };
  if (demands.is_constant()) {
    std::vector<double> values = demands.all_at(1.0);
    for (std::size_t k = 0; k < values.size(); ++k) values[k] /= servers(k);
    return DemandModel::constant(std::move(values));
  }
  std::vector<std::shared_ptr<const interp::Interpolator1D>> curves;
  curves.reserve(demands.stations());
  for (std::size_t k = 0; k < demands.stations(); ++k) {
    curves.push_back(std::make_shared<PerServerCurve>(
        demands.shared_interpolant(k), servers(k)));
  }
  return DemandModel::interpolated(std::move(curves), demands.axis());
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
      // Algorithm 1: the exact recursion with every station single-server.
      require_constant(*demands, options.solver);
      return solve_lane(single_server(network), *demands, n, rows);
    case SolverKind::kSchweitzer:
      return detail::schweitzer_mva(
          network, constant_demands(*demands, options.solver), n,
          options.schweitzer, rows);
    case SolverKind::kApproxMultiserver:
      return detail::approx_mvasd(network, *demands, n, options.approx, rows);
    case SolverKind::kMvasd:
      // Algorithm 3; with a constant model this is exactly Algorithm 2
      // (the same recursion over one demand row).
      return solve_lane(network, *demands, n, rows);
    case SolverKind::kMvasdSingleServer:
      // Fig. 8: every C-server station becomes one server with demand f/C.
      return solve_lane(single_server(network),
                        per_server_demands(network, *demands), n, rows);
    case SolverKind::kSeidmann:
    case SolverKind::kSeidmannSchweitzer: {
      // Each C-server queue becomes a single-server queue plus a delay leg
      // (core/seidmann.hpp), solved exactly or by Schweitzer's fixed point.
      const SeidmannTransform t = seidmann_transform(
          network, constant_demands(*demands, options.solver));
      if (options.solver == SolverKind::kSeidmannSchweitzer) {
        return detail::schweitzer_mva(t.network, t.service_times, n,
                                      options.schweitzer, rows);
      }
      return solve_lane(single_server(t.network),
                        DemandModel::constant(t.service_times), n, rows);
    }
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
