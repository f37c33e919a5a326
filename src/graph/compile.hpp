// Lowering a ServiceGraph onto the product-form machinery.
//
// The compiler walks the graph once: solve_visit_counts gives V_j, then
// each service becomes one or more core::Stations —
//
//   * least-connections balancing pools the replicas into one multiserver
//     station (replicas * servers servers, all V_j visits);
//   * round-robin splits them: `replicas` identical stations, each with
//     V_j / replicas visits (an equal blind split);
//   * delay services stay single pure-delay stations;
//
// — and per-call demands become the DemandModel: constant when every
// service is constant (all nine solver kinds apply), otherwise one
// concurrency-axis interpolant per station (constant services get a
// single-knot pegged cubic, so DemandGrid tabulation stays on its
// cursor fast path).  Demands stay *per visit*: the solvers multiply by
// Station::visits, so the emitted network feeds core::solve, solve_batch,
// the lane-major kernel, and the fingerprint cache without any adapter.
//
// compile_sim lowers the same graph for the discrete-event simulator:
// the identical station layout plus a one-visit-per-station workflow
// whose mean service times fold the visit counts in (V_k * S_k(n) per
// transaction) — demand-equivalent to the analytic model, so analytic
// vs simulated results agree the way they do for the hand-built apps.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/demand_model.hpp"
#include "core/network.hpp"
#include "core/sweep.hpp"
#include "graph/service_graph.hpp"
#include "graph/visit_counts.hpp"
#include "sim/closed_network_sim.hpp"

namespace mtperf::graph {

/// The analytic lowering of one service graph.  Default-constructs to a
/// trivial placeholder (like ScenarioSpec) so it can live in containers
/// and fixtures before compile() fills it.
struct CompiledNetwork {
  core::ClosedNetwork network{{core::Station{}}, 0.0};
  core::DemandModel demands = core::DemandModel::constant({0.0});
  /// V_j per service, indexed like graph.services().
  std::vector<double> visit_counts;
  /// Which service each emitted station came from (stations and services
  /// differ when round-robin replication splits a service).
  std::vector<std::size_t> station_service;
};

CompiledNetwork compile(const ServiceGraph& graph);

/// One-call convenience: compile and wrap as a ScenarioSpec, ready for
/// core::solve / run_scenarios / service::Engine.  `options.solver` must
/// accept the compiled demand model (constant graphs work with every
/// solver kind; varying graphs need a grid-driven kind such as kMvasd —
/// core::solve validates as usual).
core::ScenarioSpec to_scenario(const ServiceGraph& graph, std::string label,
                               const core::SolveOptions& options);

/// One customer class of traffic over a compiled mesh: `demand_scale`
/// multiplies every station's compiled demand (a heavier or lighter user
/// population exercising the same services), so one graph lowers to a
/// multiclass mix without per-class graphs.
struct ClassTraffic {
  std::string name;
  unsigned population = 0;
  double think_time = 0.0;
  double demand_scale = 1.0;
};

/// Multiclass lowering: compile the graph once, derive one CustomerClass
/// per traffic entry via core::scale_demand_model, and wrap as a
/// class-bearing ScenarioSpec (max_population finalized to the solver's
/// axis depth).  `solver` must be a multiclass kind; constant graphs with
/// every scale suit kMomMulticlass, varying graphs need the series kinds.
core::ScenarioSpec to_multiclass_scenario(
    const ServiceGraph& graph, std::string label, core::SolverKind solver,
    const std::vector<ClassTraffic>& traffic);

/// The simulator lowering: same stations (delay services get enough
/// servers that no job ever queues at the configured concurrency), and a
/// workflow of one exponential visit per station with mean V_k * S_k(n)
/// evaluated at `concurrency`.
struct CompiledSim {
  std::vector<sim::SimStation> stations;
  std::vector<sim::SimVisit> workflow;
};

CompiledSim compile_sim(const ServiceGraph& graph, unsigned concurrency);

}  // namespace mtperf::graph
