// Tests for the hierarchical flow-equivalent-server solver: exactness on
// product-form meshes, the truncated-support approximation, prefix parity
// (the engine's cache contract), partition validation, FES-profile
// memoization through the scenario engine, the cross-check against the
// convolution oracle (convolution_oracle.hpp), the graph/workmodel partition surfaces, and the solver's
// golden bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "convolution_oracle.hpp"
#include "core/demand_model.hpp"
#include "core/detail/hierarchy_engine.hpp"
#include "core/network.hpp"
#include "core/solve.hpp"
#include "core/sweep.hpp"
#include "graph/compile.hpp"
#include "graph/partition.hpp"
#include "graph/service_graph.hpp"
#include "golden_rows.hpp"
#include "interp/cubic_spline.hpp"
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

// --- oracle cross-check against the convolution oracle -------------------

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

  // Reduced network: the FES station (demand 1/X(1), rates X(j)/X(1))
  // plus the untouched single server — solved exactly by the convolution
  // oracle with the FES profile as a load-dependent rate law.
  const double x1 = profile.throughput[0];
  std::vector<double> alpha;
  for (unsigned j = 1; j <= n_max; ++j) {
    alpha.push_back(profile.throughput[j - 1] / x1);
  }
  const auto exact = oracle::solve(
      {{.demand = 1.0 / x1, .rates = alpha}, {.demand = 0.004}}, 0.5, n_max);

  SolveOptions hier{SolverKind::kHierarchical, n_max};
  hier.hierarchy.tiers = {tier};
  hier.hierarchy.detail = HierarchyDetail::kTiers;
  const auto fes = core::solve(network, &demands, hier);

  EXPECT_LT(max_rel_diff(fes.throughput, exact.throughput), 1e-11);
  EXPECT_LT(max_rel_diff(fes.response_time, exact.response_time), 1e-11);
  ASSERT_EQ(exact.queue.size(), fes.levels());
  for (std::size_t level = 0; level < fes.levels(); ++level) {
    EXPECT_NEAR(fes.queue(level, 0), exact.queue[level][0], 1e-9);
    EXPECT_NEAR(fes.queue(level, 1), exact.queue[level][1], 1e-9);
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
  try {
    (void)parse(base + R"(,"solver":"hierarchical",
                          "hierarchy":{"initial_depth":2.5}})");
    FAIL() << "fractional initial_depth accepted";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "hierarchy initial_depth must be a whole number"),
              std::string::npos)
        << e.what();
  }
}

// --- golden bits -----------------------------------------------------------
//
// Every number the hierarchical solver reports at three levels of a fixed
// set of solves, pinned bit for bit (golden_rows.hpp): full and truncated
// profiles, station and tier detail, constant and spline demands, and the
// cold-serving benchmark's tiered workmodel.  The literals were captured
// from the default build (Release, GCC 12.2, x86-64).

/// mesh_demands() as concurrency-axis splines that grow with the load.
DemandModel mesh_spline_demands() {
  std::vector<std::shared_ptr<const interp::Interpolator1D>> fns;
  for (const double b : mesh_demands().all_at(1.0)) {
    fns.push_back(std::make_shared<interp::PiecewiseCubic>(
        interp::build_cubic_spline(interp::SampleSet(
            {1.0, 40.0, 80.0, 120.0}, {b, 1.05 * b, 1.15 * b, 1.3 * b}))));
  }
  return DemandModel::interpolated(std::move(fns));
}

/// The cold-serving benchmark's tiered workmodel without its per-request
/// edit: five tiers, each a gateway plus pools of 32/24/16/8/4 servers,
/// every gateway calling its pools and the next tier's gateway, solved at
/// N = 600 with tolerance 1e-3 and initial depth 64.
core::ScenarioSpec cold_corpus_workmodel() {
  constexpr const char* kDemand[] = {"0.02", "0.015", "0.01", "0.005", "0.002"};
  constexpr const char* kServers[] = {"32", "24", "16", "8", "4"};
  std::string text =
      R"({"cmd":"workmodel","entry":"t0/gw","think":1.0,"services":{)";
  for (int t = 0; t < 5; ++t) {
    const std::string tier = "t" + std::to_string(t);
    text += (t == 0 ? "\"" : ",\"") + tier + "/gw\":{\"demand\":0.002," +
            "\"tier\":\"" + tier + "\",\"calls\":[";
    for (int p = 0; p < 5; ++p) {
      text += std::string(p == 0 ? "" : ",") + "{\"to\":\"" + tier + "/p" +
              std::to_string(p) + "\"}";
    }
    if (t + 1 < 5) text += ",{\"to\":\"t" + std::to_string(t + 1) + "/gw\"}";
    text += "]}";
    for (int p = 0; p < 5; ++p) {
      text += ",\"" + tier + "/p" + std::to_string(p) + "\":{\"demand\":" +
              kDemand[p] + ",\"servers\":" + kServers[p] + ",\"tier\":\"" +
              tier + "\"}";
    }
  }
  text += R"(},"solver":"hierarchical","max_population":600,)"
          R"("hierarchy":{"tolerance":0.001,"initial_depth":64}})";
  return service::workmodel_scenario(service::Json::parse(text));
}

TEST(Hierarchical, GoldenExactStationDetail) {
  SolveOptions options{SolverKind::kHierarchical, 120};
  options.hierarchy.tiers = mesh_tiers();
  const DemandModel demands = mesh_demands();
  const std::vector<std::vector<double>> kGolden = {
      {0x1.1aef7a0073e3fp+0, 0x1.ad42c3c9eeccp-4, 0x1.cf41f212d7732p-1,
       0x1.21b9d4fe6a623p-8, 0x1.04c0d94b5fbedp-7, 0x1.3eb2d0b17505ap-8,
       0x1.21b9d4fe6a624p-7, 0x1.b296bf7d9f936p-9, 0x1.6a284a3e04fadp-8,
       0x1.c4b25ccd86398p-5, 0x1.04c0d94b5fbedp-6, 0x1.04c0d94b5fbedp-9,
       0x1.fb0534bd3a2bep-8, 0x1.21b9d4fe6a623p-9, 0x1.04c0d94b5fbedp-9,
       0x1.3eb2d0b17505ap-10, 0x1.21b9d4fe6a624p-10, 0x1.b296bf7d9f936p-9,
       0x1.e2e062fd5bf92p-11, 0x1.c4b25ccd86398p-5, 0x1.04c0d94b5fbedp-9,
       0x1.04c0d94b5fbedp-9, 0x1.fb0534bd3a2bep-9, 0x1.0624dd2f1a9fbp-8,
       0x1.d7dbf487fcb92p-8, 0x1.205bc01a36e2ep-8, 0x1.0624dd2f1a9fcp-7,
       0x1.89374bc6a7efap-9, 0x1.47ae147ae147bp-8, 0x1.999999999999ap-5,
       0x1.d7dbf487fcb92p-7, 0x1.d7dbf487fcb92p-10, 0x1.cac083126e978p-8},
      {0x1.08d6f3662d9edp+6, 0x1.b307e897fe33p-4, 0x1.cffa96ac996p-1,
       0x1.13c9b7f5276bcp-2, 0x1.e85524c3d7307p-2, 0x1.2a54fbf0d81a3p-2,
       0x1.0f32204865f5fp-1, 0x1.f90a76a7d94acp-3, 0x1.52feac1336e07p-2,
       0x1.a7be523d15cafp+1, 0x1.e8271a791ccc5p-1, 0x1.14657ec039939p-3,
       0x1.f4075a984fb2cp-2, 0x1.0f322027182ffp-3, 0x1.e82706acc5231p-4,
       0x1.2a50bcf7cdce6p-4, 0x1.0f322027182fep-4, 0x1.96cb303aa4481p-3,
       0x1.c3fe35967da54p-5, 0x1.a7be523d15cafp+1, 0x1.e82706acc5233p-4,
       0x1.e82706acc5233p-4, 0x1.da97b8446a542p-3, 0x1.0a95380238abp-8,
       0x1.d8088890a7df1p-8, 0x1.205fdacb7fbb7p-8, 0x1.0624dd4f4bd46p-7,
       0x1.e82f16700b393p-9, 0x1.47ae183c099fep-8, 0x1.999999999999ap-5,
       0x1.d7dc07ab2963bp-7, 0x1.0b2bcbc0abaf1p-9, 0x1.e356ce0b66a8ap-8},
      {0x1.07e6f30465208p+7, 0x1.c037928eeab62p-4, 0x1.d1a08beb76f06p-1,
       0x1.21e14aa783681p-1, 0x1.e8fac000f3827p-1, 0x1.298270be59111p-1,
       0x1.0e3c7b9faa65p+0, 0x1.4c893f6a70b1dp-1, 0x1.51cc6114789bbp-1,
       0x1.a63e51a0a1cdap+2, 0x1.e67a3fa8f7756p+0, 0x1.3de799ec7b2c1p-2,
       0x1.29e7a19e68164p+0, 0x1.0e3c5d339ac1p-2, 0x1.e66ca7c349c1ap-3,
       0x1.2942668590a12p-3, 0x1.0e3c5d339ac1p-3, 0x1.955a8bcd68216p-2,
       0x1.c2649b5601ec5p-4, 0x1.a63e51a0a1cdap+2, 0x1.e66ca7c349c1dp-3,
       0x1.e66ca7c349c1dp-3, 0x1.d8e9a31a4ed1cp-2, 0x1.1933354078c06p-8,
       0x1.da5676ca78cfdp-8, 0x1.2099df6ca19p-8, 0x1.0624fab1f6aap-7,
       0x1.42942ec8b924dp-8, 0x1.47aef9f959ac3p-8, 0x1.999999999999ap-5,
       0x1.d7e9243a6a9c7p-7, 0x1.3462b1a659491p-9, 0x1.20fc089e24b9dp-7}};
  golden::expect_rows(core::solve(mesh_network(), &demands, options),
                      {1, 60, 120}, kGolden);
}

TEST(Hierarchical, GoldenTruncatedTierDetail) {
  SolveOptions options{SolverKind::kHierarchical, 120};
  options.hierarchy.tiers = mesh_tiers();
  options.hierarchy.saturation_tolerance = 1e-3;
  options.hierarchy.initial_depth = 8;
  options.hierarchy.detail = HierarchyDetail::kTiers;
  const DemandModel demands = mesh_demands();
  const std::vector<std::vector<double>> kGolden = {
      {0x1.1aef7a0073e3fp+0, 0x1.ad42c3c9eeccp-4, 0x1.cf41f212d7732p-1,
       0x1.1a7b9611a7b96p-6, 0x1.21b9d4fe6a624p-6, 0x1.c4b25ccd86398p-5,
       0x1.a41a41a41a41ap-6, 0x1.23f33f39712b3p-9, 0x1.b2cebd3e094b1p-9,
       0x1.c4b25ccd86398p-5, 0x1.fb662bb9a515fp-9, 0x1.ff2e48e8a71dep-7,
       0x1.0624dd2f1a9fcp-6, 0x1.999999999999ap-5, 0x1.7c1bda5119cep-6},
      {0x1.08d6f3662d802p+6, 0x1.b307e897ffe1bp-4, 0x1.cffa96ac9995dp-1,
       0x1.099cf62a758e9p+0, 0x1.1b7a09fe0283bp+0, 0x1.a7be523d1599dp+1,
       0x1.93a213baa9811p+0, 0x1.11471f4dfc777p-3, 0x1.96ff993b581afp-3,
       0x1.a7be523d1599dp+1, 0x1.daf27ba4036ddp-3, 0x1.00bf66d798112p-6,
       0x1.1203d784b0477p-6, 0x1.999999999999ap-5, 0x1.862930d083fbp-6},
      {0x1.07e6f2fc966ebp+7, 0x1.c03792fd1e944p-4, 0x1.d1a08bf93d6c2p-1,
       0x1.0d179ed16d651p+1, 0x1.2eb3a7009eea5p+1, 0x1.a63e519423e45p+2,
       0x1.afede4812f605p+1, 0x1.104f795012e17p-2, 0x1.958ec5436e6b3p-2,
       0x1.a63e519423e45p+2, 0x1.d944142bad3b2p-2, 0x1.0508e2dd9698cp-6,
       0x1.25a3489b122ep-6, 0x1.999999999999ap-5, 0x1.a2feed489e56fp-6}};
  golden::expect_rows(core::solve(mesh_network(), &demands, options),
                      {1, 60, 120}, kGolden);
}

TEST(Hierarchical, GoldenSplineDemands) {
  SolveOptions options{SolverKind::kHierarchical, 120};
  options.hierarchy.tiers = mesh_tiers();
  options.hierarchy.saturation_tolerance = 1e-3;
  options.hierarchy.initial_depth = 8;
  const DemandModel demands = mesh_spline_demands();
  const std::vector<std::vector<double>> kGolden = {
      {0x1.1aef7a0073e3fp+0, 0x1.ad42c3c9eeccp-4, 0x1.cf41f212d7732p-1,
       0x1.21b9d4fe6a623p-8, 0x1.04c0d94b5fbedp-7, 0x1.3eb2d0b17505ap-8,
       0x1.21b9d4fe6a624p-7, 0x1.b296bf7d9f936p-9, 0x1.6a284a3e04fadp-8,
       0x1.c4b25ccd86398p-5, 0x1.04c0d94b5fbedp-6, 0x1.04c0d94b5fbedp-9,
       0x1.fb0534bd3a2bep-8, 0x1.21b9d4fe6a623p-9, 0x1.04c0d94b5fbedp-9,
       0x1.3eb2d0b17505ap-10, 0x1.21b9d4fe6a624p-10, 0x1.b296bf7d9f936p-9,
       0x1.e2e062fd5bf92p-11, 0x1.c4b25ccd86398p-5, 0x1.04c0d94b5fbedp-9,
       0x1.04c0d94b5fbedp-9, 0x1.fb0534bd3a2bep-9, 0x1.0624dd2f1a9fbp-8,
       0x1.d7dbf487fcb92p-8, 0x1.205bc01a36e2ep-8, 0x1.0624dd2f1a9fcp-7,
       0x1.89374bc6a7efap-9, 0x1.47ae147ae147bp-8, 0x1.999999999999ap-5,
       0x1.d7dbf487fcb92p-7, 0x1.d7dbf487fcb92p-10, 0x1.cac083126e978p-8},
      {0x1.0776993a03096p+6, 0x1.c66c0fabc4bc8p-4, 0x1.d2671b8f12313p-1,
       0x1.12866653a4b7p-2, 0x1.e6258f056de14p-2, 0x1.28ff57404d25ap-2,
       0x1.0dff0d7bd5cb5p-1, 0x1.f6661dcca7cf4p-3, 0x1.517ed4873dfeap-2,
       0x1.cd1412a5cfefep+1, 0x1.e628bc9154186p-1, 0x1.132762e44bcc6p-3,
       0x1.f1d793a20da61p-2, 0x1.0dfb97e2763dbp-3, 0x1.e5f811646e6f1p-4,
       0x1.28fb2712b543fp-4, 0x1.0dff0d5aca14p-4, 0x1.94fe94082f1e1p-3,
       0x1.c1fe6b9750cc3p-5, 0x1.cd1412a5cfefep+1, 0x1.e628a8e6d8508p-4,
       0x1.e628a8e6d8508p-4, 0x1.d8a787c3fcf8fp-3, 0x1.0abf9546f297dp-8,
       0x1.d860175ab5c43p-8, 0x1.20958eaef8212p-8, 0x1.065913db01a4p-7,
       0x1.e82aca5ab4a31p-9, 0x1.47ef5c6390cep-8, 0x1.c00465af01282p-5,
       0x1.d8632ddae2879p-7, 0x1.0b5c0263e319ep-9, 0x1.e3bd4bc4fd057p-8},
      {0x1.039e59f7a7fa5p+7, 0x1.fdad99c0a151ep-4, 0x1.d94f4cd1adc3ep-1,
       0x1.1d1025cd0a62p-1, 0x1.e1a71ade6f96p-1, 0x1.251c06ae91024p-1,
       0x1.0a4d575291139p+0, 0x1.4502eff3e44c7p-1, 0x1.4ce16526465ffp-1,
       0x1.0e00d87233d12p+3, 0x1.dfc3973b64555p+0, 0x1.3852816231c6bp-2,
       0x1.240715d760a3bp+0, 0x1.0a3fda1e65ff1p-2, 0x1.df3fbbd05131ap-3,
       0x1.24dfd654a3656p-3, 0x1.0a4d3a85b179p-3, 0x1.8f73d7c88a358p-2,
       0x1.bbd60c3427c9ap-4, 0x1.0e00d87233d12p+3, 0x1.dfb705a063928p-3,
       0x1.dfb705a063928p-3, 0x1.d263b73f7d403p-2, 0x1.191701cb9e97p-8,
       0x1.daf081ff23d01p-8, 0x1.21062cc5dd20cp-8, 0x1.069724549363ap-7,
       0x1.407b417c224e4p-8, 0x1.483da2d843a4dp-8, 0x1.0a3d70a3d70a4p-4,
       0x1.d913bb994b2abp-7, 0x1.33f819b9f3c09p-9, 0x1.1ff5181774014p-7}};
  golden::expect_rows(core::solve(mesh_network(), &demands, options),
                      {1, 60, 120}, kGolden);
}

TEST(Hierarchical, GoldenColdCorpusWorkmodel) {
  const core::ScenarioSpec spec = cold_corpus_workmodel();
  ASSERT_EQ(spec.network.size(), 30u);
  ASSERT_EQ(spec.options.hierarchy.tiers.size(), 5u);
  const std::vector<std::vector<double>> kGolden = {
      {0x1.93264c993264cp-1, 0x1.147ae147ae148p-2, 0x1.451eb851eb852p+0,
       0x1.9cd34019cd34p-10, 0x1.0204081020408p-6, 0x1.83060c183060bp-7,
       0x1.0204081020408p-7, 0x1.0204081020408p-8, 0x1.9cd34019cd34p-10,
       0x1.9cd34019cd34p-10, 0x1.0204081020408p-6, 0x1.83060c183060bp-7,
       0x1.0204081020408p-7, 0x1.0204081020408p-8, 0x1.9cd34019cd34p-10,
       0x1.9cd34019cd34p-10, 0x1.0204081020408p-6, 0x1.83060c183060bp-7,
       0x1.0204081020408p-7, 0x1.0204081020408p-8, 0x1.9cd34019cd34p-10,
       0x1.9cd34019cd34p-10, 0x1.0204081020408p-6, 0x1.83060c183060bp-7,
       0x1.0204081020408p-7, 0x1.0204081020408p-8, 0x1.9cd34019cd34p-10,
       0x1.9cd34019cd34p-10, 0x1.0204081020408p-6, 0x1.83060c183060bp-7,
       0x1.0204081020408p-7, 0x1.0204081020408p-8, 0x1.9cd34019cd34p-10,
       0x1.9cd34019cd34p-10, 0x1.0204081020408p-11, 0x1.0204081020408p-11,
       0x1.0204081020408p-11, 0x1.0204081020408p-11, 0x1.9cd34019cd34p-12,
       0x1.9cd34019cd34p-10, 0x1.0204081020408p-11, 0x1.0204081020408p-11,
       0x1.0204081020408p-11, 0x1.0204081020408p-11, 0x1.9cd34019cd34p-12,
       0x1.9cd34019cd34p-10, 0x1.0204081020408p-11, 0x1.0204081020408p-11,
       0x1.0204081020408p-11, 0x1.0204081020408p-11, 0x1.9cd34019cd34p-12,
       0x1.9cd34019cd34p-10, 0x1.0204081020408p-11, 0x1.0204081020408p-11,
       0x1.0204081020408p-11, 0x1.0204081020408p-11, 0x1.9cd34019cd34p-12,
       0x1.9cd34019cd34p-10, 0x1.0204081020408p-11, 0x1.0204081020408p-11,
       0x1.0204081020408p-11, 0x1.0204081020408p-11, 0x1.9cd34019cd34p-12,
       0x1.0624dd2f1a9fcp-9, 0x1.47ae147ae147bp-6, 0x1.eb851eb851eb8p-7,
       0x1.47ae147ae147bp-7, 0x1.47ae147ae147bp-8, 0x1.0624dd2f1a9fcp-9,
       0x1.0624dd2f1a9fcp-9, 0x1.47ae147ae147bp-6, 0x1.eb851eb851eb8p-7,
       0x1.47ae147ae147bp-7, 0x1.47ae147ae147bp-8, 0x1.0624dd2f1a9fcp-9,
       0x1.0624dd2f1a9fcp-9, 0x1.47ae147ae147bp-6, 0x1.eb851eb851eb8p-7,
       0x1.47ae147ae147bp-7, 0x1.47ae147ae147bp-8, 0x1.0624dd2f1a9fcp-9,
       0x1.0624dd2f1a9fcp-9, 0x1.47ae147ae147bp-6, 0x1.eb851eb851eb8p-7,
       0x1.47ae147ae147bp-7, 0x1.47ae147ae147bp-8, 0x1.0624dd2f1a9fcp-9,
       0x1.0624dd2f1a9fcp-9, 0x1.47ae147ae147bp-6, 0x1.eb851eb851eb8p-7,
       0x1.47ae147ae147bp-7, 0x1.47ae147ae147bp-8, 0x1.0624dd2f1a9fcp-9},
      {0x1.d5360d84e437dp+7, 0x1.1d6e8b7af0878p-2, 0x1.475ba2debc21ep+0,
       0x1.c22752f6d6b67p-1, 0x1.2c4b8dc5bfe4ep+2, 0x1.c27154a89fdf7p+1,
       0x1.2c4b8dc6ec647p+1, 0x1.2c4be22d84f21p+0, 0x1.e0a945f561adep-2,
       0x1.c22752f6d6b67p-1, 0x1.2c4b8dc5bfe4ep+2, 0x1.c27154a89fdf7p+1,
       0x1.2c4b8dc6ec647p+1, 0x1.2c4be22d84f21p+0, 0x1.e0a945f561adep-2,
       0x1.c22752f6d6b67p-1, 0x1.2c4b8dc5bfe4ep+2, 0x1.c27154a89fdf7p+1,
       0x1.2c4b8dc6ec647p+1, 0x1.2c4be22d84f21p+0, 0x1.e0a945f561adep-2,
       0x1.c22752f6d6b67p-1, 0x1.2c4b8dc5bfe4ep+2, 0x1.c27154a89fdf7p+1,
       0x1.2c4b8dc6ec647p+1, 0x1.2c4be22d84f21p+0, 0x1.e0a945f561adep-2,
       0x1.c22752f6d6b67p-1, 0x1.2c4b8dc5bfe4ep+2, 0x1.c27154a89fdf7p+1,
       0x1.2c4b8dc6ec647p+1, 0x1.2c4be22d84f21p+0, 0x1.e0a945f561adep-2,
       0x1.e078e2d5e7a57p-2, 0x1.2c4b8dc5b0c78p-3, 0x1.2c4b8dc5b0c78p-3,
       0x1.2c4b8dc5b0c78p-3, 0x1.2c4b8dc5b0c78p-3, 0x1.e078e2d5e7a57p-4,
       0x1.e078e2d5e7a57p-2, 0x1.2c4b8dc5b0c78p-3, 0x1.2c4b8dc5b0c78p-3,
       0x1.2c4b8dc5b0c78p-3, 0x1.2c4b8dc5b0c78p-3, 0x1.e078e2d5e7a57p-4,
       0x1.e078e2d5e7a57p-2, 0x1.2c4b8dc5b0c78p-3, 0x1.2c4b8dc5b0c78p-3,
       0x1.2c4b8dc5b0c78p-3, 0x1.2c4b8dc5b0c78p-3, 0x1.e078e2d5e7a57p-4,
       0x1.e078e2d5e7a57p-2, 0x1.2c4b8dc5b0c78p-3, 0x1.2c4b8dc5b0c78p-3,
       0x1.2c4b8dc5b0c78p-3, 0x1.2c4b8dc5b0c78p-3, 0x1.e078e2d5e7a57p-4,
       0x1.e078e2d5e7a57p-2, 0x1.2c4b8dc5b0c78p-3, 0x1.2c4b8dc5b0c78p-3,
       0x1.2c4b8dc5b0c78p-3, 0x1.2c4b8dc5b0c78p-3, 0x1.e078e2d5e7a57p-4,
       0x1.eb345d4eca999p-9, 0x1.47ae147af1c5ep-6, 0x1.eb851eb86ab1ap-7,
       0x1.47ae147c39acbp-7, 0x1.47ae70953205p-8, 0x1.063f438e58dfp-9,
       0x1.eb345d4eca999p-9, 0x1.47ae147af1c5ep-6, 0x1.eb851eb86ab1ap-7,
       0x1.47ae147c39acbp-7, 0x1.47ae70953205p-8, 0x1.063f438e58dfp-9,
       0x1.eb345d4eca999p-9, 0x1.47ae147af1c5ep-6, 0x1.eb851eb86ab1ap-7,
       0x1.47ae147c39acbp-7, 0x1.47ae70953205p-8, 0x1.063f438e58dfp-9,
       0x1.eb345d4eca999p-9, 0x1.47ae147af1c5ep-6, 0x1.eb851eb86ab1ap-7,
       0x1.47ae147c39acbp-7, 0x1.47ae70953205p-8, 0x1.063f438e58dfp-9,
       0x1.eb345d4eca999p-9, 0x1.47ae147af1c5ep-6, 0x1.eb851eb86ab1ap-7,
       0x1.47ae147c39acbp-7, 0x1.47ae70953205p-8, 0x1.063f438e58dfp-9},
      {0x1.bda10c89c191bp+8, 0x1.62b99ce719966p-2, 0x1.58ae6739c665ap+0,
       0x1.71c10d440ab2dp+3, 0x1.1d33df108c556p+3, 0x1.abcdcf167f2a4p+2,
       0x1.1d342867a484fp+2, 0x1.1d63849e7d7a5p+1, 0x1.caeb79a16a50ep-1,
       0x1.71c10d440ab2dp+3, 0x1.1d33df108c556p+3, 0x1.abcdcf167f2a4p+2,
       0x1.1d342867a484fp+2, 0x1.1d63849e7d7a5p+1, 0x1.caeb79a16a50ep-1,
       0x1.71c10d440ab2dp+3, 0x1.1d33df108c556p+3, 0x1.abcdcf167f2a4p+2,
       0x1.1d342867a484fp+2, 0x1.1d63849e7d7a5p+1, 0x1.caeb79a16a50ep-1,
       0x1.71c10d440ab2dp+3, 0x1.1d33df108c556p+3, 0x1.abcdcf167f2a4p+2,
       0x1.1d342867a484fp+2, 0x1.1d63849e7d7a5p+1, 0x1.caeb79a16a50ep-1,
       0x1.71c10d440ab2dp+3, 0x1.1d33df108c556p+3, 0x1.abcdcf167f2a4p+2,
       0x1.1d342867a484fp+2, 0x1.1d63849e7d7a5p+1, 0x1.caeb79a16a50ep-1,
       0x1.c852fe80c6371p-1, 0x1.1d33df107be26p-2, 0x1.1d33df107be26p-2,
       0x1.1d33df107be26p-2, 0x1.1d33df107be26p-2, 0x1.c852fe80c6371p-3,
       0x1.c852fe80c6371p-1, 0x1.1d33df107be26p-2, 0x1.1d33df107be26p-2,
       0x1.1d33df107be26p-2, 0x1.1d33df107be26p-2, 0x1.c852fe80c6371p-3,
       0x1.c852fe80c6371p-1, 0x1.1d33df107be26p-2, 0x1.1d33df107be26p-2,
       0x1.1d33df107be26p-2, 0x1.1d33df107be26p-2, 0x1.c852fe80c6371p-3,
       0x1.c852fe80c6371p-1, 0x1.1d33df107be26p-2, 0x1.1d33df107be26p-2,
       0x1.1d33df107be26p-2, 0x1.1d33df107be26p-2, 0x1.c852fe80c6371p-3,
       0x1.c852fe80c6371p-1, 0x1.1d33df107be26p-2, 0x1.1d33df107be26p-2,
       0x1.1d33df107be26p-2, 0x1.1d33df107be26p-2, 0x1.c852fe80c6371p-3,
       0x1.a8d30a5af0369p-6, 0x1.47ae147af42dep-6, 0x1.eb851f48d2a6bp-7,
       0x1.47ae68be5d5e7p-7, 0x1.47e4d2b562277p-8, 0x1.07a2966a9e1f4p-9,
       0x1.a8d30a5af0369p-6, 0x1.47ae147af42dep-6, 0x1.eb851f48d2a6bp-7,
       0x1.47ae68be5d5e7p-7, 0x1.47e4d2b562277p-8, 0x1.07a2966a9e1f4p-9,
       0x1.a8d30a5af0369p-6, 0x1.47ae147af42dep-6, 0x1.eb851f48d2a6bp-7,
       0x1.47ae68be5d5e7p-7, 0x1.47e4d2b562277p-8, 0x1.07a2966a9e1f4p-9,
       0x1.a8d30a5af0369p-6, 0x1.47ae147af42dep-6, 0x1.eb851f48d2a6bp-7,
       0x1.47ae68be5d5e7p-7, 0x1.47e4d2b562277p-8, 0x1.07a2966a9e1f4p-9,
       0x1.a8d30a5af0369p-6, 0x1.47ae147af42dep-6, 0x1.eb851f48d2a6bp-7,
       0x1.47ae68be5d5e7p-7, 0x1.47e4d2b562277p-8, 0x1.07a2966a9e1f4p-9}};
  golden::expect_rows(core::solve(spec.network, &spec.demands, spec.options),
                      {1, 300, 600}, kGolden);
}

}  // namespace
}  // namespace mtperf
