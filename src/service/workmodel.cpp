#include "service/workmodel.hpp"

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/solve.hpp"
#include "graph/compile.hpp"
#include "interp/cubic_spline.hpp"
#include "interp/piecewise_cubic.hpp"
#include "service/request.hpp"

namespace mtperf::service {

namespace {

/// "demand": 0.004 — constant seconds — or {"x": [...], "y": [...]} —
/// concurrency-varying spline knots.  Fills exactly one of the service's
/// demand fields.
void parse_demand(const Json& spec, graph::Service& service) {
  if (spec.is_number()) {
    service.demand = spec.as_number();
    return;
  }
  MTPERF_REQUIRE(spec.is_object(),
                 "service '" + service.name +
                     "': demand must be a number or an {x, y} spline object");
  std::vector<double> xs, ys;
  for (const Json& v : spec.at("x").as_array()) xs.push_back(v.as_number());
  for (const Json& v : spec.at("y").as_array()) ys.push_back(v.as_number());
  MTPERF_REQUIRE(xs.size() == ys.size(),
                 "service '" + service.name +
                     "': demand.x and demand.y need the same length");
  service.demand_curve = std::make_shared<interp::PiecewiseCubic>(
      interp::build_cubic_spline(interp::SampleSet(std::move(xs),
                                                   std::move(ys))));
}

graph::Service parse_service(const std::string& name, const Json& spec) {
  graph::Service service;
  service.name = name;
  parse_demand(spec.at("demand"), service);
  service.servers = request_count(spec.number_or("servers", 1.0), 1,
                                  1'000'000, "service '" + name + "': servers");
  service.replicas =
      request_count(spec.number_or("replicas", 1.0), 1, 1'000'000,
                    "service '" + name + "': replicas");
  const std::string balancer =
      spec.string_or("balancer", "least-connections");
  MTPERF_REQUIRE(balancer == "least-connections" || balancer == "round-robin",
                 "service '" + name +
                     "': balancer must be 'least-connections' or "
                     "'round-robin'");
  service.balancer = balancer == "round-robin"
                         ? graph::BalancerPolicy::kRoundRobin
                         : graph::BalancerPolicy::kLeastConnections;
  const std::string kind = spec.string_or("kind", "queueing");
  MTPERF_REQUIRE(kind == "queueing" || kind == "delay",
                 "service '" + name + "': kind must be 'queueing' or 'delay'");
  service.kind = kind == "delay" ? core::StationKind::kDelay
                                 : core::StationKind::kQueueing;
  service.cache_hit_rate = spec.number_or("cache_hit_rate", 0.0);
  // Hierarchical-solver tier label; services sharing one aggregate into a
  // flow-equivalent station under "solver": "hierarchical".
  service.tier = spec.string_or("tier", "");
  if (spec.contains("calls")) {
    for (const Json& jc : spec.at("calls").as_array()) {
      graph::Call call;
      call.target = jc.at("to").as_string();
      call.probability = jc.number_or("p", 1.0);
      call.calls_per_visit = jc.number_or("calls", 1.0);
      service.calls.push_back(std::move(call));
    }
  }
  return service;
}

}  // namespace

graph::ServiceGraph parse_workmodel(const Json& request) {
  std::vector<graph::Service> services;
  for (const auto& [name, spec] : request.at("services").as_object()) {
    services.push_back(parse_service(name, spec));
  }
  const double think = request.number_or("think", 0.0);
  return graph::ServiceGraph(std::move(services),
                             request.at("entry").as_string(), think);
}

core::ScenarioSpec workmodel_scenario(const Json& request) {
  const graph::ServiceGraph graph = parse_workmodel(request);
  if (request.contains("classes")) {
    // Per-class traffic over the one compiled mesh: each class is the same
    // service graph with demands scaled by its demand_scale.
    MTPERF_REQUIRE(!request.contains("max_population"),
                   "multiclass workmodels derive max_population from the "
                   "class mix; omit it");
    const core::SolverKind solver = core::parse_solver_kind(
        request.string_or("solver", "mom-multiclass"));
    MTPERF_REQUIRE(
        core::is_multiclass(solver),
        std::string("'classes' requires a multiclass solver kind; '") +
            core::solver_kind_name(solver) + "' is single-class");
    std::vector<graph::ClassTraffic> traffic;
    for (const Json& jc : request.at("classes").as_array()) {
      graph::ClassTraffic t;
      t.name = jc.at("name").as_string();
      MTPERF_REQUIRE(!t.name.empty(), "customer class names must be non-empty");
      t.population = request_count(jc.at("population").as_number(), 0,
                                   kMaxRequestPopulation,
                                   "class '" + t.name + "' population");
      t.think_time = jc.number_or("think", request.number_or("think", 0.0));
      MTPERF_REQUIRE(std::isfinite(t.think_time) && t.think_time >= 0.0,
                     "class '" + t.name +
                         "' think time must be finite and non-negative");
      t.demand_scale = jc.number_or("demand_scale", 1.0);
      MTPERF_REQUIRE(std::isfinite(t.demand_scale) && t.demand_scale >= 0.0,
                     "class '" + t.name +
                         "' demand_scale must be finite and non-negative");
      traffic.push_back(std::move(t));
    }
    MTPERF_REQUIRE(!traffic.empty(), "'classes' needs at least one class");
    core::ScenarioSpec spec = graph::to_multiclass_scenario(
        graph, request.string_or("label", ""), solver, traffic);
    MTPERF_REQUIRE(
        core::multiclass_total_population(spec.options.classes) <=
            kMaxRequestPopulation,
        "total class population out of range");
    return spec;
  }
  core::SolveOptions options;
  options.solver =
      core::parse_solver_kind(request.string_or("solver", "mvasd"));
  options.max_population =
      request_count(request.at("max_population").as_number(), 1,
                    kMaxRequestPopulation, "max_population");
  if (request.contains("hierarchy")) {
    MTPERF_REQUIRE(options.solver == core::SolverKind::kHierarchical,
                   "'hierarchy' options require \"solver\": \"hierarchical\"");
    const Json& jh = request.at("hierarchy");
    core::HierarchyOptions& hier = options.hierarchy;
    hier.saturation_tolerance = jh.number_or("tolerance", 0.0);
    MTPERF_REQUIRE(std::isfinite(hier.saturation_tolerance) &&
                       hier.saturation_tolerance >= 0.0,
                   "hierarchy tolerance must be finite and non-negative");
    hier.initial_depth =
        request_count(jh.number_or("initial_depth", 32.0), 1,
                      kMaxRequestPopulation, "hierarchy initial_depth");
    const std::string detail = jh.string_or("detail", "stations");
    MTPERF_REQUIRE(detail == "stations" || detail == "tiers",
                   "hierarchy detail must be 'stations' or 'tiers'");
    hier.detail = detail == "tiers" ? core::HierarchyDetail::kTiers
                                    : core::HierarchyDetail::kStations;
    // The tier partition itself comes from the graph: per-service "tier"
    // labels, else call depth (graph/partition.hpp, via to_scenario).
  }
  return graph::to_scenario(graph, request.string_or("label", ""), options);
}

}  // namespace mtperf::service
