// Tests for the hierarchical flow-equivalent-server solver: exactness on
// product-form meshes, the truncated-support approximation, prefix parity
// (the engine's cache contract), partition validation, FES-profile
// memoization through the scenario engine, the load-dependent oracle
// cross-check, and the graph/workmodel partition surfaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/demand_model.hpp"
#include "core/detail/hierarchy_engine.hpp"
#include "core/detail/mva_load_dependent.hpp"
#include "core/network.hpp"
#include "core/solve.hpp"
#include "core/sweep.hpp"
#include "graph/compile.hpp"
#include "graph/partition.hpp"
#include "graph/service_graph.hpp"
#include "service/engine.hpp"
#include "service/json.hpp"
#include "service/workmodel.hpp"

namespace mtperf {
namespace {

using core::ClosedNetwork;
using core::DemandModel;
using core::HierarchyDetail;
using core::SolveOptions;
using core::SolverKind;
using core::Station;
using core::StationKind;
using core::TierSpec;

/// A 10-station product-form mesh: three natural tiers of multiserver
/// stations around single-server chokes, plus a pure-delay hop — enough
/// structural variety to exercise every branch of the reduced kernel.
ClosedNetwork mesh_network() {
  std::vector<Station> stations = {
      {"lb", 1.0, 2, StationKind::kQueueing},
      {"web0", 0.6, 4, StationKind::kQueueing},
      {"web1", 0.4, 4, StationKind::kQueueing},
      {"app0", 0.5, 8, StationKind::kQueueing},
      {"app1", 0.5, 1, StationKind::kQueueing},
      {"app2", 0.25, 6, StationKind::kQueueing},
      {"cdn", 1.0, 1, StationKind::kDelay},
      {"db0", 0.8, 8, StationKind::kQueueing},
      {"db1", 0.2, 1, StationKind::kQueueing},
      {"disk", 0.7, 2, StationKind::kQueueing},
  };
  return ClosedNetwork(std::move(stations), 0.8);
}

DemandModel mesh_demands() {
  return DemandModel::constant(
      {0.004, 0.012, 0.011, 0.016, 0.006, 0.02, 0.05, 0.018, 0.009, 0.01});
}

std::vector<TierSpec> mesh_tiers() {
  return {{"web", {0, 1, 2}}, {"app", {3, 4, 5}}, {"data", {7, 8, 9}}};
}

double max_rel_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const double scale = std::max(std::abs(b[i]), 1e-300);
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

/// The thrown message of `fn`, or "" if it did not throw.
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

// --- exactness on product form ---------------------------------------------

TEST(Hierarchical, MatchesFlatExactOnProductFormMesh) {
  const ClosedNetwork network = mesh_network();
  const DemandModel demands = mesh_demands();
  const unsigned n_max = 120;

  SolveOptions flat{SolverKind::kMvasd, n_max};
  const auto exact = core::solve(network, &demands, flat);

  SolveOptions hier{SolverKind::kHierarchical, n_max};
  hier.hierarchy.tiers = mesh_tiers();
  const auto fes = core::solve(network, &demands, hier);

  // Norton aggregation is exact for product-form networks, including
  // several simultaneous aggregates; tolerance 0 keeps full profiles, so
  // the only divergence is floating-point noise.
  EXPECT_LT(max_rel_diff(fes.throughput, exact.throughput), 1e-9);
  EXPECT_LT(max_rel_diff(fes.response_time, exact.response_time), 1e-9);
  EXPECT_LT(max_rel_diff(fes.cycle_time, exact.cycle_time), 1e-9);

  // kStations detail disaggregates back to the original station rows.
  ASSERT_EQ(fes.station_names, exact.station_names);
  double worst_q = 0.0, worst_u = 0.0;
  for (std::size_t level = 0; level < exact.levels(); ++level) {
    for (std::size_t k = 0; k < exact.stations(); ++k) {
      worst_q = std::max(worst_q,
                         std::abs(fes.queue(level, k) - exact.queue(level, k)));
      worst_u = std::max(
          worst_u,
          std::abs(fes.utilization(level, k) - exact.utilization(level, k)));
    }
  }
  EXPECT_LT(worst_q, 1e-9);
  EXPECT_LT(worst_u, 1e-9);
}

TEST(Hierarchical, AutomaticPartitionIsAlsoExact) {
  const ClosedNetwork network = mesh_network();
  const DemandModel demands = mesh_demands();
  SolveOptions flat{SolverKind::kMvasd, 80};
  SolveOptions hier{SolverKind::kHierarchical, 80};  // tiers left empty
  const auto exact = core::solve(network, &demands, flat);
  const auto fes = core::solve(network, &demands, hier);
  EXPECT_LT(max_rel_diff(fes.throughput, exact.throughput), 1e-9);
  EXPECT_LT(max_rel_diff(fes.response_time, exact.response_time), 1e-9);
}

TEST(Hierarchical, TruncatedProfilesStayNearTheExactSolution) {
  const ClosedNetwork network = mesh_network();
  const DemandModel demands = mesh_demands();
  SolveOptions flat{SolverKind::kMvasd, 300};
  SolveOptions hier{SolverKind::kHierarchical, 300};
  hier.hierarchy.tiers = mesh_tiers();
  hier.hierarchy.saturation_tolerance = 1e-4;
  hier.hierarchy.initial_depth = 8;  // force the doubling schedule to work
  const auto exact = core::solve(network, &demands, flat);
  const auto fes = core::solve(network, &demands, hier);
  // Truncation drops throughput gains below 1e-4 relative per step; the
  // accumulated error stays orders of magnitude under this bound.
  EXPECT_LT(max_rel_diff(fes.throughput, exact.throughput), 1e-3);
  EXPECT_LT(max_rel_diff(fes.response_time, exact.response_time), 1e-3);
}

// --- prefix parity (the cache contract) ------------------------------------

TEST(Hierarchical, PrefixOfDeepSolveIsBitIdenticalToShallowSolve) {
  const ClosedNetwork network = mesh_network();
  const DemandModel demands = mesh_demands();
  SolveOptions deep{SolverKind::kHierarchical, 160};
  deep.hierarchy.tiers = mesh_tiers();
  deep.hierarchy.saturation_tolerance = 1e-4;
  SolveOptions shallow = deep;
  shallow.max_population = 40;

  const auto trimmed = core::solve(network, &demands, deep).prefix(40);
  const auto direct = core::solve(network, &demands, shallow);
  // The engine's population-prefix reuse serves a shallow request from a
  // deep cached solve; that is only sound if the arithmetic agrees.  The
  // system series are bit-identical: level n's recursion anchors at
  // alpha(min(n, support)) and so never reads profile levels above n.
  EXPECT_EQ(trimmed.throughput, direct.throughput);
  EXPECT_EQ(trimmed.response_time, direct.response_time);
  EXPECT_EQ(trimmed.cycle_time, direct.cycle_time);
  // Station rows agree to rounding, not bits: the disaggregation's
  // explicit/implicit occupancy split sits at the truncation point, which
  // legitimately moves when a deeper solve resolves a tier's plateau
  // beyond the shallow population cap.
  const auto expect_close = [](const std::vector<double>& a,
                               const std::vector<double>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i], b[i], 1e-12 * std::max(1.0, std::abs(b[i])));
    }
  };
  expect_close(trimmed.station_queue, direct.station_queue);
  expect_close(trimmed.station_utilization, direct.station_utilization);
  expect_close(trimmed.station_residence, direct.station_residence);
}

// --- detail modes ----------------------------------------------------------

TEST(Hierarchical, TierDetailReportsFesRowsWithSameSystemSeries) {
  const ClosedNetwork network = mesh_network();
  const DemandModel demands = mesh_demands();
  SolveOptions st{SolverKind::kHierarchical, 60};
  st.hierarchy.tiers = mesh_tiers();
  SolveOptions td = st;
  td.hierarchy.detail = HierarchyDetail::kTiers;

  const auto stations = core::solve(network, &demands, st);
  const auto tiers = core::solve(network, &demands, td);

  // System-level series are computed before disaggregation, so the two
  // detail modes agree exactly.
  EXPECT_EQ(tiers.throughput, stations.throughput);
  EXPECT_EQ(tiers.response_time, stations.response_time);

  // Reduced rows: fes:<tier> at each tier's first member position,
  // untouched stations under their own names.
  const std::vector<std::string> expected = {"fes:web", "fes:app", "cdn",
                                             "fes:data"};
  EXPECT_EQ(tiers.station_names, expected);
  // Each FES row's queue is the whole subnetwork's backlog: at any level
  // the unit queues sum to the customers *not* in think state, N - X Z.
  const std::size_t top = tiers.levels() - 1;
  double total = 0.0;
  for (std::size_t u = 0; u < tiers.stations(); ++u) {
    total += tiers.queue(top, u);
  }
  const double thinking =
      tiers.throughput[top] * mesh_network().think_time();
  EXPECT_NEAR(total, static_cast<double>(tiers.levels()) - thinking, 1e-6);
}

// --- oracle cross-check against the load-dependent recursion ---------------

TEST(Hierarchical, MatchesHandBuiltLoadDependentOracle) {
  // Two-tier network with single-server remainder, so the oracle reduced
  // network is easy to assemble by hand.
  ClosedNetwork network(
      {Station{"a0", 1.0, 2, StationKind::kQueueing},
       Station{"a1", 0.5, 1, StationKind::kQueueing},
       Station{"front", 1.0, 1, StationKind::kQueueing}},
      0.5);
  const DemandModel demands = DemandModel::constant({0.02, 0.03, 0.004});
  const unsigned n_max = 40;
  const TierSpec tier{"pool", {0, 1}};

  // Hand-extract the FES profile with the flat exact solver.
  const core::ScenarioSpec sub =
      core::detail::subnetwork_spec(network, demands, tier, n_max);
  EXPECT_EQ(sub.label, "fes:pool");
  EXPECT_EQ(sub.network.think_time(), 0.0);
  const auto profile = core::solve(sub.network, &sub.demands, sub.options);

  // Reduced network: the FES station (visits 1, service 1/X(1), rates
  // X(j)/X(1)) plus the untouched single server — solved by the
  // load-dependent recursion's profile overload (the oracle).
  const double x1 = profile.throughput[0];
  std::vector<double> alpha;
  for (unsigned j = 1; j <= n_max; ++j) {
    alpha.push_back(profile.throughput[j - 1] / x1);
  }
  ClosedNetwork reduced({Station{"fes:pool", 1.0, 1, StationKind::kQueueing},
                         Station{"front", 1.0, 1, StationKind::kQueueing}},
                        0.5);
  const std::vector<double> service_times = {1.0 / x1, 0.004};
  const auto oracle = core::detail::load_dependent_mva(
      reduced, service_times, std::vector<std::vector<double>>{alpha, {1.0}},
      n_max);

  SolveOptions hier{SolverKind::kHierarchical, n_max};
  hier.hierarchy.tiers = {tier};
  hier.hierarchy.detail = HierarchyDetail::kTiers;
  const auto fes = core::solve(network, &demands, hier);

  EXPECT_LT(max_rel_diff(fes.throughput, oracle.throughput), 1e-11);
  EXPECT_LT(max_rel_diff(fes.response_time, oracle.response_time), 1e-11);
  for (std::size_t level = 0; level < oracle.levels(); ++level) {
    EXPECT_NEAR(fes.queue(level, 0), oracle.queue(level, 0), 1e-9);
    EXPECT_NEAR(fes.queue(level, 1), oracle.queue(level, 1), 1e-9);
  }
}

// --- validation ------------------------------------------------------------

TEST(Hierarchical, ValidatesPartitionNamingTheOffender) {
  const ClosedNetwork network = mesh_network();
  const DemandModel demands = mesh_demands();
  const auto solve_with = [&](std::vector<TierSpec> tiers) {
    SolveOptions options{SolverKind::kHierarchical, 10};
    options.hierarchy.tiers = std::move(tiers);
    core::solve(network, &demands, options);
  };

  EXPECT_NE(thrown_message([&] { solve_with({{"empty", {}}}); })
                .find("tier 'empty' has no stations"),
            std::string::npos);
  EXPECT_NE(thrown_message([&] { solve_with({{"oob", {0, 99}}}); })
                .find("out of range"),
            std::string::npos);
  EXPECT_NE(thrown_message([&] {
              solve_with({{"a", {0, 1}}, {"b", {1, 2}}});
            }).find("station 'web0' appears in multiple hierarchy tiers"),
            std::string::npos);

  // A tier whose stations carry no demand cannot produce a profile.
  const DemandModel dead =
      DemandModel::constant({0.004, 0.0, 0.0, 0.016, 0.006, 0.02, 0.05, 0.018,
                             0.009, 0.01});
  SolveOptions options{SolverKind::kHierarchical, 10};
  options.hierarchy.tiers = {{"webs", {1, 2}}};
  EXPECT_NE(thrown_message([&] { core::solve(network, &dead, options); })
                .find("tier 'webs' has zero aggregate demand"),
            std::string::npos);

  // Unnamed tiers report under their generated name.
  EXPECT_NE(thrown_message([&] { solve_with({{"", {}}}); })
                .find("tier 'tier0' has no stations"),
            std::string::npos);
}

// --- FES profile memoization through the scenario engine -------------------

TEST(HierarchyEngine, ProfilesAreSharedAcrossSpecsEditingOneTier) {
  const ClosedNetwork network = mesh_network();
  SolveOptions options{SolverKind::kHierarchical, 60};
  options.hierarchy.tiers = mesh_tiers();

  service::Engine engine({.threads = 1});
  core::ScenarioSpec base{"base", network, mesh_demands(), options};
  const auto first = engine.evaluate(base);
  EXPECT_FALSE(first.cache_hit);
  auto m = engine.metrics();
  // Three tiers, none seen before: three profile extractions ran.
  EXPECT_EQ(m.fes_profile_hits, 0u);
  EXPECT_EQ(m.fes_profile_misses, 3u);

  // Edit one data-tier demand: a new top-level structure, but the web and
  // app subnetworks are unchanged — their profiles come from the cache.
  core::ScenarioSpec edited{
      "edited", network,
      DemandModel::constant({0.004, 0.012, 0.011, 0.016, 0.006, 0.02, 0.05,
                             0.021, 0.009, 0.01}),
      options};
  const auto second = engine.evaluate(edited);
  EXPECT_FALSE(second.cache_hit);
  m = engine.metrics();
  EXPECT_EQ(m.fes_profile_hits, 2u);
  EXPECT_EQ(m.fes_profile_misses, 4u);

  // Replaying the edited spec is a pure top-level hit; no profile work.
  const auto third = engine.evaluate(edited);
  EXPECT_TRUE(third.cache_hit);
  m = engine.metrics();
  EXPECT_EQ(m.fes_profile_hits, 2u);
  EXPECT_EQ(m.fes_profile_misses, 4u);

  // Cached hierarchical results are the solver's own output.
  const auto direct = core::solve(network, &base.demands, options);
  EXPECT_EQ(first.result->throughput, direct.throughput);
}

TEST(HierarchyEngine, BatchEvaluationMatchesScalarAndSkipsFallbackCounter) {
  const ClosedNetwork network = mesh_network();
  SolveOptions options{SolverKind::kHierarchical, 50};
  options.hierarchy.tiers = mesh_tiers();
  std::vector<core::ScenarioSpec> specs;
  for (int i = 0; i < 4; ++i) {
    auto d = std::vector<double>{0.004, 0.012, 0.011, 0.016, 0.006, 0.02,
                                 0.05, 0.018, 0.009, 0.01};
    d[7] += 0.001 * i;  // edit the data tier only
    specs.push_back({"spec" + std::to_string(i), network,
                     DemandModel::constant(std::move(d)), options});
  }
  service::Engine engine({.threads = 1});
  const auto evals = engine.evaluate_batch(specs);
  ASSERT_EQ(evals.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto direct = core::solve(network, &specs[i].demands, options);
    EXPECT_EQ(evals[i].result->throughput, direct.throughput) << i;
  }
  const auto m = engine.metrics();
  // Hierarchical specs run per-spec by design; they must not be counted
  // as lockstep-kernel fallbacks.
  EXPECT_EQ(m.batch_scalar_fallbacks, 0u);
  // 4 specs x 3 tiers = 12 profile requests, but web/app extract once.
  EXPECT_EQ(m.fes_profile_misses, 2u + 4u);
  EXPECT_EQ(m.fes_profile_hits, 6u);
}

// --- graph partition -------------------------------------------------------

graph::Service labeled(std::string name, double demand, std::string tier,
                       std::vector<graph::Call> calls = {}) {
  graph::Service s;
  s.name = std::move(name);
  s.demand = demand;
  s.tier = std::move(tier);
  s.calls = std::move(calls);
  return s;
}

TEST(PartitionTiers, ExplicitLabelsGroupServicesAndReplicas) {
  graph::Service web = labeled("web", 0.01, "front", {{"app0"}, {"app1"}});
  web.replicas = 2;
  web.balancer = graph::BalancerPolicy::kRoundRobin;
  graph::ServiceGraph g(
      {web, labeled("edge", 0.002, "front"), labeled("app0", 0.02, "mid"),
       labeled("app1", 0.03, "mid"), labeled("db", 0.04, "")},
      "web", 1.0);
  const graph::CompiledNetwork compiled = graph::compile(g);
  const auto tiers = graph::partition_tiers(g, compiled);
  ASSERT_EQ(tiers.size(), 2u);
  EXPECT_EQ(tiers[0].name, "front");
  // web's two round-robin replica stations plus edge.
  EXPECT_EQ(tiers[0].stations.size(), 3u);
  EXPECT_EQ(tiers[1].name, "mid");
  EXPECT_EQ(tiers[1].stations.size(), 2u);
  // The unlabeled db stays untouched when labels exist.
}

TEST(PartitionTiers, CallDepthFallbackSkipsDelayAndSingletons) {
  graph::Service cdn = labeled("cdn", 0.05, "");
  cdn.kind = StationKind::kDelay;
  graph::ServiceGraph g(
      {labeled("web", 0.01, "", {{"app0"}, {"app1"}, {"cdn"}}),
       labeled("app0", 0.02, "", {{"db"}}), labeled("app1", 0.03, "", {{"db"}}),
       std::move(cdn), labeled("db", 0.04, "")},
      "web", 1.0);
  const graph::CompiledNetwork compiled = graph::compile(g);
  const auto tiers = graph::partition_tiers(g, compiled);
  // Depth 0 = {web} (singleton, dropped); depth 1 = {app0, app1} (cdn is
  // delay, excluded); depth 2 = {db} (singleton, dropped).
  ASSERT_EQ(tiers.size(), 1u);
  EXPECT_EQ(tiers[0].name, "depth1");
  EXPECT_EQ(tiers[0].stations.size(), 2u);
}

// --- workmodel JSON surface ------------------------------------------------

constexpr const char* kTieredMesh = R"({
  "cmd": "workmodel", "label": "tiered", "entry": "web", "think": 1.0,
  "solver": "hierarchical", "max_population": 80,
  "hierarchy": {"tolerance": 1e-4, "initial_depth": 16, "detail": "stations"},
  "services": {
    "web":  {"demand": 0.002, "servers": 2, "tier": "front",
             "calls": [{"to": "app0"}, {"to": "app1"}]},
    "edge": {"demand": 0.001, "tier": "front"},
    "app0": {"demand": 0.004, "servers": 4, "tier": "mid",
             "calls": [{"to": "db"}]},
    "app1": {"demand": 0.003, "servers": 4, "tier": "mid",
             "calls": [{"to": "db"}]},
    "db":   {"demand": 0.006, "servers": 8}
  }})";

TEST(Workmodel, HierarchicalSolverParsesTiersAndOptions) {
  const core::ScenarioSpec spec =
      service::workmodel_scenario(service::Json::parse(kTieredMesh));
  EXPECT_EQ(spec.options.solver, SolverKind::kHierarchical);
  EXPECT_EQ(spec.options.hierarchy.saturation_tolerance, 1e-4);
  EXPECT_EQ(spec.options.hierarchy.initial_depth, 16u);
  EXPECT_EQ(spec.options.hierarchy.detail, HierarchyDetail::kStations);
  // JSON objects iterate alphabetically, so tier order follows the sorted
  // service names — compare as a set.
  ASSERT_EQ(spec.options.hierarchy.tiers.size(), 2u);
  std::vector<std::string> names = {spec.options.hierarchy.tiers[0].name,
                                    spec.options.hierarchy.tiers[1].name};
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"front", "mid"}));

  // The hierarchical solve of the workmodel tracks the flat exact solve.
  const auto fes = core::solve(spec.network, &spec.demands, spec.options);
  SolveOptions flat{SolverKind::kMvasd, 80};
  const auto exact = core::solve(spec.network, &spec.demands, flat);
  EXPECT_LT(max_rel_diff(fes.throughput, exact.throughput), 1e-3);
  EXPECT_EQ(fes.station_names, exact.station_names);
}

TEST(Workmodel, HierarchyOptionsAreValidated) {
  const auto parse = [](const std::string& text) {
    return service::workmodel_scenario(service::Json::parse(text));
  };
  const std::string base =
      R"({"cmd":"workmodel","entry":"a","max_population":10,
          "services":{"a":{"demand":0.1}})";
  // 'hierarchy' without the hierarchical solver is a client bug.
  EXPECT_THROW(parse(base + R"(,"hierarchy":{"tolerance":0}})"),
               invalid_argument_error);
  EXPECT_THROW(parse(base + R"(,"solver":"hierarchical",
                              "hierarchy":{"detail":"everything"}})"),
               invalid_argument_error);
  EXPECT_THROW(parse(base + R"(,"solver":"hierarchical",
                              "hierarchy":{"tolerance":-1}})"),
               invalid_argument_error);
  EXPECT_THROW(parse(base + R"(,"solver":"hierarchical",
                              "hierarchy":{"initial_depth":0}})"),
               invalid_argument_error);
}

}  // namespace
}  // namespace mtperf
