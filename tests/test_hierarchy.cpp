// Tests for the hierarchical flow-equivalent-server solver: exactness on
// product-form meshes, the truncated-support approximation, prefix parity
// (the engine's cache contract), partition validation, FES-profile
// memoization through the scenario engine, the cross-check against the
// convolution oracle (convolution_oracle.hpp), the graph/workmodel partition surfaces, and the solver's
// golden bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
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

// --- windowed disaggregation -------------------------------------------------
//
// Station rows of FES tiers are disaggregated for a window of levels at a
// time.  These cases cross window boundaries, deep and shallow supports
// and a tier whose marginals are zeroed mid-window, in both row kinds.

/// Bit-for-bit equality of two series.
void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      ADD_FAILURE() << what << "[" << i << "]: " << got[i] << " vs "
                    << want[i];
      return;
    }
  }
}

/// Every row `got` carries equals `want`'s bit for bit.
void expect_same_rows(const core::MvaResult& got, const core::MvaResult& want) {
  EXPECT_EQ(got.station_rows, want.station_rows);
  EXPECT_EQ(got.population, want.population);
  expect_same_bits(got.throughput, want.throughput, "throughput");
  expect_same_bits(got.response_time, want.response_time, "response_time");
  expect_same_bits(got.cycle_time, want.cycle_time, "cycle_time");
  expect_same_bits(got.station_queue, want.station_queue, "queue");
  expect_same_bits(got.station_utilization, want.station_utilization,
                   "utilization");
  expect_same_bits(got.station_residence, want.station_residence,
                   "residence");
}

/// A utilization-only solve of `spec` keeps the all-rows solve's system
/// series and utilizations bit for bit, at every level.
void expect_lean_equals_full(const core::ScenarioSpec& spec) {
  core::SolveOptions full_options = spec.options;
  full_options.station_rows = core::StationRows::kAll;
  core::SolveOptions lean_options = spec.options;
  lean_options.station_rows = core::StationRows::kUtilization;
  const auto full = core::solve(spec.network, &spec.demands, full_options);
  const auto lean = core::solve(spec.network, &spec.demands, lean_options);
  ASSERT_EQ(lean.levels(), full.levels());
  EXPECT_TRUE(lean.station_queue.empty());
  EXPECT_TRUE(lean.station_residence.empty());
  expect_same_bits(lean.throughput, full.throughput, "throughput");
  expect_same_bits(lean.response_time, full.response_time, "response_time");
  expect_same_bits(lean.cycle_time, full.cycle_time, "cycle_time");
  expect_same_bits(lean.station_utilization, full.station_utilization,
                   "utilization");
}

TEST(Hierarchical, ColdCorpusUtilizationRowsEqualAllRowsAtEveryLevel) {
  expect_lean_equals_full(cold_corpus_workmodel());
}

TEST(Hierarchical, ColdCorpusPrefixTrimsEqualDirectSolves) {
  // Every tier of the workmodel finds its plateau below depth 63, so a
  // trimmed deep solve and a direct shallow one read the same profiles.
  const core::ScenarioSpec spec = cold_corpus_workmodel();
  for (const core::StationRows rows :
       {core::StationRows::kAll, core::StationRows::kUtilization}) {
    SCOPED_TRACE(rows == core::StationRows::kAll ? "all rows" : "utilization");
    core::SolveOptions deep = spec.options;
    deep.station_rows = rows;
    const auto full = core::solve(spec.network, &spec.demands, deep);
    for (const unsigned depth : {63u, 64u, 65u, 128u, 129u, 600u}) {
      SCOPED_TRACE(depth);
      core::SolveOptions direct = deep;
      direct.max_population = depth;
      expect_same_rows(full.prefix(depth),
                       core::solve(spec.network, &spec.demands, direct));
    }
  }
}

/// A network whose one tier is its bottleneck.  Deep past the knee the
/// reduced recursion drives the tier's offered load onto its anchor
/// (y >= a), which zeroes the tier's marginals: first at level 210, in the
/// middle of a window, and at most levels after it.
core::ScenarioSpec saturating_tier_spec() {
  core::ScenarioSpec spec;
  spec.network = ClosedNetwork(
      {Station{"front", 1.0, 4, StationKind::kQueueing},
       Station{"gw", 1.0, 2, StationKind::kQueueing},
       Station{"pool", 1.0, 8, StationKind::kQueueing},
       Station{"lan", 1.0, 1, StationKind::kDelay},
       Station{"disk", 0.5, 2, StationKind::kQueueing}},
      0.5);
  spec.demands = DemandModel::constant({0.002, 0.01, 0.03, 0.02, 0.004});
  spec.options = SolveOptions{SolverKind::kHierarchical, 400};
  spec.options.hierarchy.tiers = {{"core", {1, 2}}};
  spec.options.hierarchy.saturation_tolerance = 1e-3;
  spec.options.hierarchy.initial_depth = 8;
  return spec;
}

TEST(Hierarchical, SaturatedTierInsideAWindowZeroesItsMarginals) {
  const core::ScenarioSpec spec = saturating_tier_spec();
  const TierSpec& tier = spec.options.hierarchy.tiers[0];
  // The tier's truncation point, by extract_profile's plateau rule.
  const core::ScenarioSpec sub = core::detail::subnetwork_spec(
      spec.network, spec.demands, tier, spec.options.max_population);
  const auto profile = core::solve(sub.network, &sub.demands, sub.options);
  unsigned support = spec.options.max_population;
  for (unsigned j = 2; j <= profile.levels(); ++j) {
    const double gain = profile.throughput[j - 1] - profile.throughput[j - 2];
    if (gain <= 1e-3 * profile.throughput[j - 1]) {
      support = j;
      break;
    }
  }
  ASSERT_LT(support, 64u);

  // A zeroed level puts the tier's whole mass in the tail, so each member
  // reports its profile utilization at the truncation point exactly.
  const auto full = core::solve(spec.network, &spec.demands, spec.options);
  const auto zeroed = [&](std::size_t level) {
    for (std::size_t i = 0; i < tier.stations.size(); ++i) {
      if (full.utilization(level, tier.stations[i]) !=
          profile.utilization(support - 1, i)) {
        return false;
      }
    }
    return true;
  };
  unsigned first = 0, count = 0;
  for (unsigned n = 1; n <= full.levels(); ++n) {
    if (!zeroed(n - 1)) continue;
    if (first == 0) first = n;
    ++count;
  }
  EXPECT_EQ(first, 210u);
  EXPECT_GT(count, 100u);

  expect_lean_equals_full(spec);
  const std::vector<std::vector<double>> kGolden = {
      {0x1.8f00cf6d47034p+7, 0x1.18606f4033743p-1, 0x1.0c3037a019ba2p+0,
       0x1.98ab260e3b277p-2, 0x1.7ac43ea7e2f36p+6, 0x1.3817c054e0151p+3,
       0x1.feb95b6d27b24p+1, 0x1.a983dec28e991p-2, 0x1.989449241fc1dp-4,
       0x1.feb95b6d27b24p-1, 0x1.7f0b0491ddc5bp-1, 0x1.feb95b6d27b24p+1,
       0x1.989449241fc1dp-3, 0x1.06338868594c9p-9, 0x1.e6084f3caf75bp-2,
       0x1.907a0e39d0444p-5, 0x1.47ae147ae147bp-6, 0x1.110291ff51f21p-9},
      {0x1.8f00cf6d47036p+7, 0x1.1af16e8ee6885p-1, 0x1.0d78b74773442p+0,
       0x1.98ab260e3b279p-2, 0x1.7ea1bd8499524p+6, 0x1.392bc96f2d1f1p+3,
       0x1.feb95b6d27b27p+1, 0x1.a983dec28e993p-2, 0x1.989449241fc1fp-4,
       0x1.feb95b6d27b25p-1, 0x1.7f0b0491ddc5cp-1, 0x1.feb95b6d27b27p+1,
       0x1.989449241fc1fp-3, 0x1.06338868594c9p-9, 0x1.eafe073040766p-2,
       0x1.91dc438879816p-5, 0x1.47ae147ae147bp-6, 0x1.110291ff51f21p-9},
      {0x1.8f00cf6d47035p+7, 0x1.1d826ddd999c8p-1, 0x1.0ec136eeccce4p+0,
       0x1.98ab260e3b278p-2, 0x1.827f3c614fb0fp+6, 0x1.3a3fd2897a29p+3,
       0x1.feb95b6d27b25p+1, 0x1.a983dec28e992p-2, 0x1.989449241fc1ep-4,
       0x1.feb95b6d27b25p-1, 0x1.7f0b0491ddc5cp-1, 0x1.feb95b6d27b25p+1,
       0x1.989449241fc1ep-3, 0x1.06338868594c9p-9, 0x1.eff3bf23d177p-2,
       0x1.933e78d722be9p-5, 0x1.47ae147ae147bp-6, 0x1.110291ff51f21p-9},
      {0x1.8f00cf6d47035p+7, 0x1.8147757be7becp+0, 0x1.00a3babdf3df6p+1,
       0x1.98ab260e3b278p-2, 0x1.17417954fce9ep+8, 0x1.0305457a2d3f9p+4,
       0x1.feb95b6d27b25p+1, 0x1.a983dec28e992p-2, 0x1.989449241fc1ep-4,
       0x1.feb95b6d27b25p-1, 0x1.7f0b0491ddc5cp-1, 0x1.feb95b6d27b25p+1,
       0x1.989449241fc1ep-3, 0x1.06338868594c9p-9, 0x1.6657237d77bd8p+0,
       0x1.4c5fe9f50a728p-4, 0x1.47ae147ae147bp-6, 0x1.110291ff51f21p-9}};
  golden::expect_rows(full, {209, 210, 211, 400}, kGolden);
}

TEST(Hierarchical, ToleranceZeroSupportWiderThanAWindow) {
  // Tolerance 0 keeps every profile level: support = max_population = 300,
  // so a tier's staged marginals are several windows deep.
  core::ScenarioSpec spec;
  spec.network = mesh_network();
  spec.demands = mesh_demands();
  spec.options = SolveOptions{SolverKind::kHierarchical, 300};
  spec.options.hierarchy.tiers = mesh_tiers();
  expect_lean_equals_full(spec);
  const std::vector<std::vector<double>> kGolden = {
      {0x1.1ae757c0463e8p+3, 0x1.adad51705eb24p-4, 0x1.cf4f43c7a56fep-1,
       0x1.21c0b8819bbc6p-5, 0x1.04b95ae268908p-4, 0x1.3ea9a758f11b4p-5,
       0x1.21b180c4e3956p-4, 0x1.bcd41be12cd39p-6, 0x1.6a1de0f61c87ep-5,
       0x1.c4a55933a3974p-2, 0x1.04b95a4accd1ep-3, 0x1.0865f221ed495p-6,
       0x1.fb483445192ddp-5, 0x1.21b180c4e397fp-6, 0x1.04b95a4accd59p-6,
       0x1.3ea9a73efa5a6p-7, 0x1.21b180c4e3956p-7, 0x1.b28a412755602p-6,
       0x1.e2d2814825f9p-8, 0x1.c4a55933a3974p-2, 0x1.04b95a4accd1ep-6,
       0x1.04b95a4accd1ep-6, 0x1.faf6a1588e42fp-6, 0x1.0632a2716081p-8,
       0x1.d7dbf59a5e57fp-8, 0x1.205bc031b58f5p-8, 0x1.0624dd2f1aa1p-7,
       0x1.9286acd3a31a2p-9, 0x1.47ae147ae1553p-8, 0x1.999999999999ap-5,
       0x1.d7dbf487fcb8fp-7, 0x1.de823e61f51b3p-10, 0x1.cb0a54104e3f5p-8},
      {0x1.3e42d58b8c9c5p+3, 0x1.adbdee4666e54p-4, 0x1.cf51576266764p-1,
       0x1.45fd0e8453bb2p-5, 0x1.254f365c563afp-4, 0x1.667d410be3afdp-5,
       0x1.45e63aed1b3fep-4, 0x1.f61f105dc49f7p-6, 0x1.975fc9a8624bp-5,
       0x1.fd37bc127a93cp-2, 0x1.254f350898866p-3, 0x1.2a0aeefa0aa9dp-6,
       0x1.1d66a34a8d906p-4, 0x1.45e63aed1b3fcp-6, 0x1.254f350898862p-6,
       0x1.667d40d19df96p-7, 0x1.45e63aed1b3fep-7, 0x1.e8d95863a8dfbp-6,
       0x1.0f95311aec0a9p-7, 0x1.fd37bc127a93cp-2, 0x1.254f350898863p-6,
       0x1.254f350898863p-6, 0x1.1d29738f77d7dp-5, 0x1.063739996e7b8p-8,
       0x1.d7dbf6aa8afd7p-8, 0x1.205bc04916435p-8, 0x1.0624dd2f1a9fdp-7,
       0x1.93e45296cfde4p-9, 0x1.47ae147ae1775p-8, 0x1.999999999999ap-5,
       0x1.d7dbf487fcb96p-7, 0x1.df794f78fd69cp-10, 0x1.cb22f1f9da579p-8},
      {0x1.1ed9e45771ca7p+6, 0x1.b3c9a31779761p-4, 0x1.d012cdfc88c86p-1,
       0x1.2b9c5abd78bfp-2, 0x1.087eea52fcfbdp-1, 0x1.4322478b68ca4p-2,
       0x1.25bc4e7214bp-1, 0x1.1733b142030b9p-2, 0x1.6f2b6895d7a3p-2,
       0x1.caf63a2582dd8p+1, 0x1.085cc0ee7dd6p+0, 0x1.2ec195749b937p-3,
       0x1.11648ff9aae26p-1, 0x1.25bc4e2c7cb6ep-3, 0x1.085cacc1a3716p-3,
       0x1.431bef9755fc8p-4, 0x1.25bc4e2c7cb6ep-4, 0x1.b89a7542bb122p-3,
       0x1.e98f2cf4cfdb7p-5, 0x1.caf63a2582dd8p+1, 0x1.085cacc1a3713p-3,
       0x1.085cacc1a3713p-3, 0x1.0104c466ed1ffp-2, 0x1.0b6326aa1eeefp-8,
       0x1.d819122cbd4e9p-8, 0x1.20616965de3d2p-8, 0x1.0624dd6d3678ap-7,
       0x1.f258d050aa818p-9, 0x1.47ae1a9c03772p-8, 0x1.999999999999ap-5,
       0x1.d7dc188ab901dp-7, 0x1.0e31c6f1fca53p-9, 0x1.e7fa7040da3b7p-8},
      {0x1.48d91e69ea701p+7, 0x1.cbe120f72b30ap-4, 0x1.d315bdb87effbp-1,
       0x1.788a7daa1b64ap-1, 0x1.32ad5e8df731cp+0, 0x1.7322c957fc5b8p-1,
       0x1.50be52f780a34p+0, 0x1.ec536cc0a273bp-1, 0x1.a4f0fe84f1dc8p-1,
       0x1.07141854bb8cep+3, 0x1.2f3757c87c264p+1, 0x1.accd8fce7df38p-2,
       0x1.b1cc74ce778fbp+0, 0x1.50bd8fc89e24fp-2, 0x1.2f110167c1879p-2,
       0x1.726a1e297ac2p-3, 0x1.50bd8fc89e25p-3, 0x1.f91c57aced377p-2,
       0x1.189df7d1d91eep-3, 0x1.07141854bb8cep+3, 0x1.2f110167c1879p-2,
       0x1.2f110167c1879p-2, 0x1.26a5ddcf8a601p-1, 0x1.2520b07df77bbp-8,
       0x1.dd7b24aeb795bp-8, 0x1.20eb82a4c4d6ap-8, 0x1.062575211185ep-7,
       0x1.7f43696d1cdbfp-8, 0x1.47b13a09ae1afp-8, 0x1.999999999999ap-5,
       0x1.d817a5063d616p-7, 0x1.4dcff5c08baa9p-9, 0x1.51b38c1761e45p-7},
      {0x1.1cf075d267a44p+8, 0x1.02eca34b3aa25p-2, 0x1.0d87f59f9b756p+0,
       0x1.afbf50abcaca7p+0, 0x1.1fb11b33b6c68p+1, 0x1.45ec26aa1f2e8p+0,
       0x1.23e89d53ac5b1p+1, 0x1.7154f880633c3p+2, 0x1.6d0341d45810bp+0,
       0x1.c7e722ea3f6d4p+3, 0x1.0b13354901244p+2, 0x1.0d5925583decap+0,
       0x1.2f22cb66bbb2fp+5, 0x1.23c72095eb27p-1, 0x1.06999d53ba09ap-1,
       0x1.40f4a3d81c44cp-2, 0x1.23c72095eb271p-2, 0x1.b5aab0e0e0bacp-1,
       0x1.e64be0f9dd418p-3, 0x1.c7e722ea3f6d4p+3, 0x1.06999d53ba095p-1,
       0x1.06999d53ba095p-1, 0x1.fe9c79065b849p-1, 0x1.83e5d38b60562p-8,
       0x1.0279147d0db55p-7, 0x1.24d21f76eaba8p-8, 0x1.0642f3406dafdp-7,
       0x1.4bd24a7d0bd34p-6, 0x1.47f0e084b87cfp-8, 0x1.999999999999ap-5,
       0x1.dfe6714578d84p-7, 0x1.e3fc1c78985cdp-9, 0x1.1059384223a2bp-3}};
  golden::expect_rows(core::solve(spec.network, &spec.demands, spec.options),
                      {8, 9, 65, 150, 300}, kGolden);
}

}  // namespace
}  // namespace mtperf
