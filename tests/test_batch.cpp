// Tests for the lane-major batched MVA kernel: structure grouping,
// lockstep parity against per-spec core::solve calls (VINS- and
// JPetStore-shaped fixtures, multi-server + delay stations, both demand
// axes, ragged populations), the solve_batch facade, the scenario
// engine's batch dedup, deepening and per-spec failures, and mvasd's
// golden bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/demand_model.hpp"
#include "core/detail/batch_engine.hpp"
#include "core/detail/multiclass_batch_engine.hpp"
#include "core/mva_multiclass.hpp"
#include "core/network.hpp"
#include "core/solve.hpp"
#include "core/sweep.hpp"
#include "interp/cubic_spline.hpp"
#include "golden_rows.hpp"
#include "service/engine.hpp"
#include "service/fingerprint.hpp"

namespace mtperf {
namespace {

using core::ClosedNetwork;
using core::DemandModel;
using core::MvaResult;
using core::ScenarioSpec;
using core::SolverKind;
using core::Station;
using core::StationKind;

// The parity budget.  A per-spec core::solve runs a one-lane block of the
// same kernel, and a lane's arithmetic does not depend on its block, so
// the observed difference is zero.
constexpr double kParityTol = 1e-12;

void expect_parity(const MvaResult& got, const MvaResult& want) {
  ASSERT_EQ(got.levels(), want.levels());
  ASSERT_EQ(got.stations(), want.stations());
  for (std::size_t i = 0; i < got.levels(); ++i) {
    EXPECT_LE(std::abs(got.throughput[i] - want.throughput[i]), kParityTol);
    EXPECT_LE(std::abs(got.response_time[i] - want.response_time[i]),
              kParityTol);
    EXPECT_LE(std::abs(got.cycle_time[i] - want.cycle_time[i]), kParityTol);
    for (std::size_t k = 0; k < got.stations(); ++k) {
      EXPECT_LE(std::abs(got.queue(i, k) - want.queue(i, k)), kParityTol);
      EXPECT_LE(std::abs(got.residence(i, k) - want.residence(i, k)),
                kParityTol);
      EXPECT_LE(std::abs(got.utilization(i, k) - want.utilization(i, k)),
                kParityTol);
    }
  }
}

/// Batched results must match per-spec facade solves within kParityTol.
void expect_batch_matches_scalar(const std::vector<ScenarioSpec>& specs) {
  const std::vector<MvaResult> batched = core::solve_batch(specs);
  ASSERT_EQ(batched.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const MvaResult scalar =
        core::solve(specs[i].network, &specs[i].demands, specs[i].options);
    SCOPED_TRACE("spec " + specs[i].label);
    expect_parity(batched[i], scalar);
  }
}

std::shared_ptr<interp::PiecewiseCubic> spline_of(std::vector<double> x,
                                                  std::vector<double> y) {
  return std::make_shared<interp::PiecewiseCubic>(interp::build_cubic_spline(
      interp::SampleSet(std::move(x), std::move(y))));
}

/// The VINS deployment shape (paper §4.3): load injector / app server /
/// database, each with a multi-core CPU and single-server disk + NICs.
ClosedNetwork vins_network(unsigned cpu_cores = 16) {
  return core::make_network(
      {"load-cpu", "load-disk", "load-tx", "load-rx", "app-cpu", "app-disk",
       "app-tx", "app-rx", "db-cpu", "db-disk", "db-tx", "db-rx"},
      {cpu_cores, 1, 1, 1, cpu_cores, 1, 1, 1, cpu_cores, 1, 1, 1}, 1.0);
}

const std::vector<double>& vins_base_demands() {
  static const std::vector<double> base = {0.004, 0.010, 0.002, 0.002,
                                           0.012, 0.008, 0.003, 0.003,
                                           0.020, 0.034, 0.004, 0.004};
  return base;
}

/// VINS-style decreasing demand splines (caching warm-up), scaled per lane.
DemandModel vins_spline_demands(double scale,
                                DemandModel::Axis axis =
                                    DemandModel::Axis::kConcurrency) {
  std::vector<std::shared_ptr<const interp::Interpolator1D>> fns;
  for (const double d : vins_base_demands()) {
    const double b = d * scale;
    fns.push_back(spline_of({1.0, 60.0, 250.0, 900.0},
                            {b, 0.93 * b, 0.88 * b, 0.86 * b}));
  }
  return DemandModel::interpolated(std::move(fns), axis);
}

ScenarioSpec vins_spec(std::string label, double scale, unsigned users,
                       SolverKind solver = SolverKind::kMvasd) {
  ScenarioSpec spec;
  spec.label = std::move(label);
  spec.network = vins_network();
  spec.demands = vins_spline_demands(scale);
  spec.options.solver = solver;
  spec.options.max_population = users;
  return spec;
}

/// JPetStore-ish shape: fewer stations, a delay station (external payment
/// gateway), contention-increasing DB demands — a different structure key
/// than VINS in every respect.
ScenarioSpec jpetstore_spec(std::string label, double scale, unsigned users) {
  ScenarioSpec spec;
  spec.label = std::move(label);
  spec.network = ClosedNetwork(
      {Station{"web-cpu", 1.0, 8, StationKind::kQueueing},
       Station{"web-disk", 1.0, 1, StationKind::kQueueing},
       Station{"db-cpu", 1.0, 16, StationKind::kQueueing},
       Station{"db-disk", 1.0, 1, StationKind::kQueueing},
       Station{"gateway", 0.4, 1, StationKind::kDelay}},
      1.0);
  std::vector<std::shared_ptr<const interp::Interpolator1D>> fns;
  const std::vector<double> base = {0.011, 0.007, 0.024, 0.016, 0.150};
  for (const double d : base) {
    const double b = d * scale;
    fns.push_back(spline_of({1.0, 70.0, 140.0, 280.0},
                            {b, 1.02 * b, 1.10 * b, 1.16 * b}));
  }
  spec.demands = DemandModel::interpolated(std::move(fns));
  spec.options.solver = SolverKind::kMvasd;
  spec.options.max_population = users;
  return spec;
}

// ---------------------------------------------------------------- planning

TEST(BatchPlan, GroupsByStructureAndSplitsOffScalars) {
  std::vector<ScenarioSpec> specs;
  specs.push_back(vins_spec("a", 1.0, 100));
  specs.push_back(jpetstore_spec("b", 1.0, 80));
  specs.push_back(vins_spec("c", 1.1, 300));
  {  // constant-demand Schweitzer: no batched kernel covers it
    ScenarioSpec s;
    s.label = "schweitzer";
    s.network = core::make_network({"cpu", "disk"}, {4, 1}, 1.0);
    s.demands = DemandModel::constant({0.01, 0.02});
    s.options.solver = SolverKind::kSchweitzer;
    s.options.max_population = 40;
    specs.push_back(std::move(s));
  }
  std::vector<const ScenarioSpec*> ptrs;
  for (const auto& s : specs) ptrs.push_back(&s);
  const auto plan = core::detail::plan_batch(ptrs);

  ASSERT_EQ(plan.scalars.size(), 1u);
  EXPECT_EQ(plan.scalars[0], 3u);
  // The VINS group, deepest first, then the JPetStore one; each is too
  // narrow for a lockstep block, so every lane is a one-lane block.
  EXPECT_EQ(plan.blocks, (std::vector<std::vector<std::size_t>>{{2}, {0}, {1}}));
}

TEST(BatchPlan, NarrowRemaindersRunAsOneLaneBlocks) {
  // Three groups: 3 VINS lanes, 6 JPetStore lanes and 19 VINS-fleet
  // lanes on a third structure (one 16-lane block plus a remainder of 3).
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 3; ++i) {
    specs.push_back(vins_spec("v" + std::to_string(i), 1.0, 100u + 10u * i));
  }
  for (int i = 0; i < 6; ++i) {
    specs.push_back(jpetstore_spec("j" + std::to_string(i), 1.0, 80u + i));
  }
  for (int i = 0; i < 19; ++i) {
    ScenarioSpec s = vins_spec("w" + std::to_string(i), 1.0, 200u + i);
    std::vector<Station> stations = s.network.stations();
    stations[0].servers += 1;  // a structure of its own
    s.network = ClosedNetwork(std::move(stations), 2.0);
    specs.push_back(std::move(s));
  }
  std::vector<const ScenarioSpec*> ptrs;
  for (const auto& s : specs) ptrs.push_back(&s);
  const auto plan = core::detail::plan_batch(ptrs);
  EXPECT_TRUE(plan.scalars.empty());

  std::vector<std::vector<std::size_t>> want = {{2}, {1}, {0},
                                                {8, 7, 6, 5, 4, 3}};
  std::vector<std::size_t> wide;
  for (std::size_t i = 27; i >= 12; --i) wide.push_back(i);
  want.push_back(wide);
  want.push_back({11});
  want.push_back({10});
  want.push_back({9});
  EXPECT_EQ(plan.blocks, want);

  // One-lane blocks give the lanes the bits a wide block would.
  expect_batch_matches_scalar(specs);
}

TEST(BatchPlan, StructureKeySeparatesServerCountsAndKinds) {
  const auto key = [](const ClosedNetwork& n) {
    return core::detail::batch_structure_key(n, SolverKind::kMvasd);
  };
  const ClosedNetwork base = core::make_network({"a", "b"}, {16, 1}, 1.0);
  EXPECT_EQ(key(base), key(core::make_network({"x", "y"}, {16, 1}, 9.0)));
  EXPECT_NE(key(base), key(core::make_network({"a", "b"}, {8, 1}, 1.0)));
  EXPECT_NE(key(base), key(core::make_network({"a", "b", "c"}, {16, 1, 1},
                                              1.0)));
  const ClosedNetwork delayed(
      {Station{"a", 1.0, 16, StationKind::kQueueing},
       Station{"b", 1.0, 1, StationKind::kDelay}},
      1.0);
  EXPECT_NE(key(base), key(delayed));
}

// ------------------------------------------------------------------ parity

TEST(BatchParity, VinsSplineLanes) {
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 9; ++i) {
    specs.push_back(vins_spec("vins-" + std::to_string(i),
                              0.9 + 0.03 * static_cast<double>(i), 220));
  }
  expect_batch_matches_scalar(specs);
}

TEST(BatchParity, JPetStoreDelayStations) {
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 6; ++i) {
    specs.push_back(jpetstore_spec("jps-" + std::to_string(i),
                                   0.85 + 0.06 * static_cast<double>(i), 160));
  }
  expect_batch_matches_scalar(specs);
}

TEST(BatchParity, ThroughputAxisSectionSeven) {
  // Section 7's variant: demands interpolated against throughput, looked up
  // with the previous iteration's X.  These lanes cannot be pre-tabulated;
  // the kernel evaluates them through per-lane monotone cursors.
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 5; ++i) {
    ScenarioSpec spec;
    spec.label = "xaxis-" + std::to_string(i);
    spec.network = vins_network();
    spec.demands = vins_spline_demands(1.0 + 0.05 * static_cast<double>(i),
                                       DemandModel::Axis::kThroughput);
    spec.options.solver = SolverKind::kMvasd;
    spec.options.max_population = 180;
    specs.push_back(std::move(spec));
  }
  expect_batch_matches_scalar(specs);
}

TEST(BatchParity, RaggedPopulationsRetireLanes) {
  const std::vector<unsigned> depths = {400, 1, 37, 220, 37, 3, 128, 399};
  std::vector<ScenarioSpec> specs;
  for (std::size_t i = 0; i < depths.size(); ++i) {
    specs.push_back(vins_spec("ragged-" + std::to_string(i),
                              1.0 + 0.02 * static_cast<double>(i), depths[i]));
  }
  expect_batch_matches_scalar(specs);
}

TEST(BatchParity, SingleLaneBatch) {
  expect_batch_matches_scalar({vins_spec("solo", 1.0, 300)});
}

TEST(BatchParity, ConstantDemandsAndMixedStructures) {
  std::vector<ScenarioSpec> specs;
  // Constant-demand Algorithm 2 lanes batch alongside spline lanes of the
  // same structure; a different structure and a scalar-only solver ride in
  // the same call.
  for (int i = 0; i < 4; ++i) {
    ScenarioSpec spec;
    spec.label = "const-" + std::to_string(i);
    spec.network = vins_network();
    std::vector<double> demands = vins_base_demands();
    for (double& d : demands) d *= 1.0 + 0.1 * static_cast<double>(i);
    spec.demands = DemandModel::constant(std::move(demands));
    spec.options.solver = SolverKind::kMvasd;
    spec.options.max_population = 250;
    specs.push_back(std::move(spec));
  }
  specs.push_back(vins_spec("spline", 1.0, 250, SolverKind::kMvasd));
  specs.push_back(jpetstore_spec("jps", 1.0, 120));
  {
    ScenarioSpec s;
    s.label = "exact-single";
    s.network = core::make_network({"cpu", "disk"}, {1, 1}, 0.5);
    s.demands = DemandModel::constant({0.02, 0.05});
    s.options.solver = SolverKind::kExactSingleServer;
    s.options.max_population = 64;
    specs.push_back(std::move(s));
  }
  expect_batch_matches_scalar(specs);
}

TEST(BatchParity, GroupsLargerThanOneBlock) {
  // More lanes than kBatchLaneBlock: the plan must chunk and stay exact.
  std::vector<ScenarioSpec> specs;
  const std::size_t lanes = core::detail::kBatchLaneBlock + 7;
  for (std::size_t i = 0; i < lanes; ++i) {
    specs.push_back(vins_spec("wide-" + std::to_string(i),
                              0.8 + 0.01 * static_cast<double>(i),
                              40 + static_cast<unsigned>(i % 5) * 30));
  }
  ThreadPool pool(4);
  const std::vector<MvaResult> batched = core::solve_batch(specs, &pool);
  ASSERT_EQ(batched.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const MvaResult scalar =
        core::solve(specs[i].network, &specs[i].demands, specs[i].options);
    expect_parity(batched[i], scalar);
  }
}

TEST(RunScenarios, DefaultEvaluatorUsesBatchedKernel) {
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 6; ++i) {
    specs.push_back(vins_spec("rs-" + std::to_string(i),
                              1.0 + 0.04 * static_cast<double>(i), 150));
  }
  ThreadPool pool(4);
  const auto rows = core::run_scenarios(specs, &pool);
  ASSERT_EQ(rows.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(rows[i].label, specs[i].label);
    const MvaResult scalar =
        core::solve(specs[i].network, &specs[i].demands, specs[i].options);
    expect_parity(rows[i].result, scalar);
  }
}

// ------------------------------------------------------------------ engine

TEST(EngineBatch, DedupesIdenticalFingerprints) {
  service::Engine engine;
  std::vector<ScenarioSpec> specs;
  const std::vector<unsigned> depths = {90, 30, 90, 60, 30, 90};
  for (std::size_t i = 0; i < depths.size(); ++i) {
    specs.push_back(vins_spec("dup-" + std::to_string(i), 1.0, depths[i]));
  }
  const auto evals = engine.evaluate_batch(specs);
  ASSERT_EQ(evals.size(), specs.size());
  const auto metrics = engine.metrics();
  // One structure → one solve; every other slot is a dedup hit.
  EXPECT_EQ(metrics.misses, 1u);
  EXPECT_EQ(metrics.hits, specs.size() - 1);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(evals[i].label, specs[i].label);
    ASSERT_EQ(evals[i].result->levels(), depths[i]);
    const MvaResult scalar =
        core::solve(specs[i].network, &specs[i].demands, specs[i].options);
    expect_parity(*evals[i].result, scalar);
  }
  // The three depth-90 duplicates share one MvaResult instance.
  EXPECT_EQ(evals[0].result.get(), evals[2].result.get());
  EXPECT_EQ(evals[0].result.get(), evals[5].result.get());
}

TEST(EngineBatch, MixedHitsAndMissesKeepOrderAndParity) {
  service::Engine engine;
  // Warm one structure, then batch it together with cold structures.
  (void)engine.evaluate_batch(
      std::vector<ScenarioSpec>{vins_spec("warm", 1.0, 200)});
  std::vector<ScenarioSpec> specs;
  specs.push_back(jpetstore_spec("cold-jps", 1.0, 100));
  specs.push_back(vins_spec("warm-prefix", 1.0, 120));  // prefix of warm
  specs.push_back(vins_spec("cold-scaled", 1.25, 140));
  const auto before = engine.metrics();
  const auto evals = engine.evaluate_batch(specs);
  const auto after = engine.metrics();
  EXPECT_EQ(after.misses - before.misses, 2u);
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_TRUE(evals[1].cache_hit);
  EXPECT_TRUE(evals[1].prefix_hit);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(evals[i].label, specs[i].label);
    const MvaResult scalar =
        core::solve(specs[i].network, &specs[i].demands, specs[i].options);
    expect_parity(*evals[i].result, scalar);
  }
}

TEST(EngineBatch, DeepenedResolveStaysExact) {
  service::Engine engine;
  const auto shallow = engine.evaluate(vins_spec("shallow", 1.0, 80));
  EXPECT_FALSE(shallow.cache_hit);
  // Deeper request, same structure: re-solves (prefix can't answer it), and
  // the numbers must match a from-scratch scalar solve exactly.
  const auto deep = engine.evaluate(vins_spec("deep", 1.0, 320));
  EXPECT_FALSE(deep.cache_hit);
  const ScenarioSpec reference = vins_spec("ref", 1.0, 320);
  const MvaResult scalar =
      core::solve(reference.network, &reference.demands, reference.options);
  expect_parity(*deep.result, scalar);
  // And the deepened entry now answers both depths from cache.
  EXPECT_TRUE(engine.evaluate(vins_spec("again", 1.0, 320)).cache_hit);
  EXPECT_TRUE(engine.evaluate(vins_spec("again80", 1.0, 80)).cache_hit);
}

TEST(EngineBatch, BatchedDeepenMatchesDirectSolve) {
  service::Engine engine;
  (void)engine.evaluate_batch(
      std::vector<ScenarioSpec>{vins_spec("seed", 1.0, 60)});
  // A deeper request for a cached structure re-solves on the batched miss
  // path.
  const auto evals = engine.evaluate_batch(std::vector<ScenarioSpec>{
      vins_spec("deeper", 1.0, 240), jpetstore_spec("jps", 1.0, 90)});
  for (const auto& ev : evals) EXPECT_FALSE(ev.cache_hit);
  const ScenarioSpec reference = vins_spec("ref", 1.0, 240);
  const MvaResult scalar =
      core::solve(reference.network, &reference.demands, reference.options);
  expect_parity(*evals[0].result, scalar);
}

// ------------------------------------------------------- multiclass lanes

using core::CustomerClass;

/// Three-class JPetStore-ish mix over queueing CPU/disk/net plus a delay
/// station (external payment gateway); the axis class is the last one
/// ("buy").  `scale` varies per-lane demand values without changing the
/// structure key.
std::vector<CustomerClass> mix_classes(double scale, unsigned axis_users,
                                       unsigned browse_pop = 4,
                                       unsigned search_pop = 3) {
  std::vector<CustomerClass> classes;
  classes.push_back(
      {"browse", browse_pop, 1.0,
       {0.010 * scale, 0.024 * scale, 0.006 * scale, 0.150}});
  classes.push_back(
      {"search", search_pop, 2.0,
       {0.016 * scale, 0.009 * scale, 0.004 * scale, 0.080}});
  classes.push_back(
      {"buy", axis_users, 0.5,
       {0.007 * scale, 0.031 * scale, 0.005 * scale, 0.400}});
  return classes;
}

ScenarioSpec mix_spec(std::string label, double scale, unsigned axis_users,
                      SolverKind solver = SolverKind::kSchweitzerMulticlass) {
  ScenarioSpec spec;
  spec.label = std::move(label);
  spec.network =
      ClosedNetwork({Station{"cpu", 1.0, 1, StationKind::kQueueing},
                     Station{"disk", 1.0, 1, StationKind::kQueueing},
                     Station{"net", 1.0, 1, StationKind::kQueueing},
                     Station{"gateway", 1.0, 1, StationKind::kDelay}},
                    0.0);
  spec.options.solver = solver;
  spec.options.classes = mix_classes(scale, axis_users);
  core::finalize_multiclass_options(spec.options);
  return spec;
}

/// A mix with one spline-demand class (demands falling with *total*
/// concurrency) alongside constant-demand classes.
ScenarioSpec mixed_model_spec(std::string label, double scale,
                              unsigned axis_users,
                              SolverKind solver =
                                  SolverKind::kSchweitzerMulticlass) {
  ScenarioSpec spec = mix_spec(std::move(label), scale, axis_users, solver);
  std::vector<std::shared_ptr<const interp::Interpolator1D>> fns;
  for (const double b : {0.010 * scale, 0.024 * scale, 0.006 * scale, 0.150}) {
    fns.push_back(
        spline_of({1.0, 10.0, 40.0}, {b, 0.90 * b, 0.85 * b}));
  }
  spec.options.classes[0].demand_model = std::make_shared<DemandModel>(
      DemandModel::interpolated(std::move(fns)));
  return spec;
}

/// Batched multiclass results must be bit-identical to core::solve's: it
/// runs the same kernel as a one-lane block, and a lane's bits do not
/// depend on the block it runs in.
void expect_mc_parity(const MvaResult& got, const MvaResult& want) {
  ASSERT_EQ(got.levels(), want.levels());
  ASSERT_EQ(got.stations(), want.stations());
  ASSERT_EQ(got.classes(), want.classes());
  EXPECT_EQ(got.class_names, want.class_names);
  EXPECT_EQ(got.class_population, want.class_population);
  EXPECT_EQ(got.mc_axis, want.mc_axis);
  EXPECT_EQ(got.mc_iterations, want.mc_iterations);
  EXPECT_EQ(got.throughput, want.throughput);
  EXPECT_EQ(got.response_time, want.response_time);
  EXPECT_EQ(got.cycle_time, want.cycle_time);
  EXPECT_EQ(got.station_queue, want.station_queue);
  EXPECT_EQ(got.station_residence, want.station_residence);
  EXPECT_EQ(got.station_utilization, want.station_utilization);
  EXPECT_EQ(got.class_throughput, want.class_throughput);
  EXPECT_EQ(got.class_response_time, want.class_response_time);
  EXPECT_EQ(got.class_station_queue, want.class_station_queue);
}

void expect_mc_batch_matches_scalar(const std::vector<ScenarioSpec>& specs) {
  const std::vector<MvaResult> batched = core::solve_batch(specs);
  ASSERT_EQ(batched.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const MvaResult scalar =
        core::solve(specs[i].network, &specs[i].demands, specs[i].options);
    SCOPED_TRACE("spec " + specs[i].label);
    expect_mc_parity(batched[i], scalar);
  }
}

TEST(McBatchPlan, RoutesMulticlassSeriesKindsToMcBlocks) {
  std::vector<ScenarioSpec> specs;
  specs.push_back(mix_spec("schw-a", 1.0, 6));
  specs.push_back(vins_spec("vins", 1.0, 100));
  specs.push_back(mix_spec("exact-a", 1.0, 4, SolverKind::kExactMulticlass));
  specs.push_back(mix_spec("schw-b", 1.2, 9));
  specs.push_back(mix_spec("mom", 1.0, 5, SolverKind::kMomMulticlass));
  specs.push_back(mix_spec("exact-b", 0.9, 7, SolverKind::kExactMulticlass));
  std::vector<const ScenarioSpec*> ptrs;
  for (const auto& s : specs) ptrs.push_back(&s);
  const auto plan = core::detail::plan_batch(ptrs);

  // The VINS lane's block comes first, then the multiclass blocks:
  // Schweitzer and exact mixes group separately (kind is in the key),
  // each ordered deepest-axis-first for lane retirement.
  ASSERT_EQ(plan.blocks.size(), 3u);
  EXPECT_EQ(plan.blocks[0], (std::vector<std::size_t>{1}));
  EXPECT_EQ(plan.blocks[1], (std::vector<std::size_t>{3, 0}));
  EXPECT_EQ(plan.blocks[2], (std::vector<std::size_t>{5, 2}));
  // MoM is a single-level moment recursion with no shared axis — scalar.
  ASSERT_EQ(plan.scalars.size(), 1u);
  EXPECT_EQ(plan.scalars[0], 4u);
}

TEST(McBatchPlan, KeySeparatesClassStructureNotLaneData) {
  const auto key = [](const ScenarioSpec& s) {
    return core::detail::multiclass_batch_key(s);
  };
  const ScenarioSpec base = mix_spec("base", 1.0, 6);
  // Demand values, think times, and axis depth are per-lane data.
  EXPECT_EQ(key(base), key(mix_spec("scaled", 1.4, 6)));
  EXPECT_EQ(key(base), key(mix_spec("deeper", 1.0, 30)));
  // Kind, demand-model shape, and the activity pattern are structure.
  EXPECT_NE(key(base), key(mix_spec("exact", 1.0, 6,
                                    SolverKind::kExactMulticlass)));
  EXPECT_NE(key(base), key(mixed_model_spec("spline", 1.0, 6)));
  {
    ScenarioSpec idle = mix_spec("idle-class", 1.0, 6);
    idle.options.classes[1].population = 0;
    core::finalize_multiclass_options(idle.options);
    EXPECT_NE(key(base), key(idle));
  }
  // Schweitzer lanes may differ in non-axis populations (only the
  // zero/nonzero pattern is structural); exact lanes may not (lattice
  // strides must agree).
  {
    ScenarioSpec grown = mix_spec("grown", 1.0, 6);
    grown.options.classes[0].population = 9;
    core::finalize_multiclass_options(grown.options);
    EXPECT_EQ(key(base), key(grown));
  }
  {
    const ScenarioSpec exact_base =
        mix_spec("eb", 1.0, 6, SolverKind::kExactMulticlass);
    ScenarioSpec exact_grown =
        mix_spec("eg", 1.0, 6, SolverKind::kExactMulticlass);
    exact_grown.options.classes[0].population = 9;
    core::finalize_multiclass_options(exact_grown.options);
    EXPECT_NE(key(exact_base), key(exact_grown));
  }
}

TEST(McBatchParity, SchweitzerRaggedLanes) {
  std::vector<ScenarioSpec> specs;
  const std::vector<unsigned> depths = {12, 3, 7, 1, 9, 12, 5, 2, 10};
  for (std::size_t i = 0; i < depths.size(); ++i) {
    specs.push_back(mix_spec("schw-" + std::to_string(i),
                             0.8 + 0.07 * static_cast<double>(i), depths[i]));
  }
  expect_mc_batch_matches_scalar(specs);
}

TEST(McBatchParity, ExactRaggedLanes) {
  std::vector<ScenarioSpec> specs;
  const std::vector<unsigned> depths = {6, 2, 5, 1, 4, 6};
  for (std::size_t i = 0; i < depths.size(); ++i) {
    specs.push_back(mix_spec("exact-" + std::to_string(i),
                             0.85 + 0.06 * static_cast<double>(i), depths[i],
                             SolverKind::kExactMulticlass));
  }
  expect_mc_batch_matches_scalar(specs);
}

TEST(McBatchParity, SingleLaneBatches) {
  // A one-lane block is what core::solve runs, so a one-lane batch is
  // checked against kernels of its own: a one-class mix equals the
  // single-class schweitzer kind (Schweitzer) and mvasd (exact) bit for
  // bit at every level.
  const ClosedNetwork net({Station{"cpu", 1.0, 1, StationKind::kQueueing},
                           Station{"disk", 1.0, 1, StationKind::kQueueing},
                           Station{"net", 1.0, 1, StationKind::kQueueing},
                           Station{"gateway", 1.0, 1, StationKind::kDelay}},
                          0.5);
  const std::vector<double> demands{0.007, 0.031, 0.005, 0.400};
  const DemandModel model = DemandModel::constant(demands);
  const std::pair<SolverKind, SolverKind> kinds[] = {
      {SolverKind::kSchweitzerMulticlass, SolverKind::kSchweitzer},
      {SolverKind::kExactMulticlass, SolverKind::kMvasd}};
  for (const auto& [mc_kind, single_kind] : kinds) {
    ScenarioSpec spec;
    spec.label = "solo";
    spec.network = net;
    spec.options.solver = mc_kind;
    spec.options.classes = {{"only", 12, net.think_time(), demands}};
    core::finalize_multiclass_options(spec.options);
    const MvaResult batched = core::solve_batch({spec})[0];
    const MvaResult single = core::solve(net, &model, {single_kind, 12});
    SCOPED_TRACE(core::solver_kind_name(mc_kind));
    EXPECT_EQ(batched.throughput, single.throughput);
    EXPECT_EQ(batched.response_time, single.response_time);
    EXPECT_EQ(batched.cycle_time, single.cycle_time);
    EXPECT_EQ(batched.station_queue, single.station_queue);
    EXPECT_EQ(batched.station_residence, single.station_residence);
    EXPECT_EQ(batched.station_utilization, single.station_utilization);
  }
}

TEST(McBatchParity, MixedConstantAndSplineClassModels) {
  for (const SolverKind kind :
       {SolverKind::kSchweitzerMulticlass, SolverKind::kExactMulticlass}) {
    std::vector<ScenarioSpec> specs;
    for (int i = 0; i < 5; ++i) {
      specs.push_back(mixed_model_spec(
          "mixed-" + std::to_string(i), 0.9 + 0.08 * static_cast<double>(i),
          static_cast<unsigned>(3 + 2 * i), kind));
    }
    expect_mc_batch_matches_scalar(specs);
  }
}

TEST(McBatchParity, GroupsLargerThanOneBlock) {
  // More Schweitzer lanes than kMcSchweitzerLaneBlock, with colliding
  // depths, so the plan must chunk and stay exact.
  std::vector<ScenarioSpec> specs;
  const int lanes = static_cast<int>(core::detail::kMcSchweitzerLaneBlock) + 8;
  for (int i = 0; i < lanes; ++i) {
    specs.push_back(mix_spec("wide-" + std::to_string(i),
                             0.7 + 0.02 * static_cast<double>(i),
                             static_cast<unsigned>(1 + (i * 7) % 13)));
  }
  expect_mc_batch_matches_scalar(specs);
}

TEST(McBatchParity, ZeroPopulationClassesStayInactive) {
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 4; ++i) {
    ScenarioSpec spec = mix_spec("idle-" + std::to_string(i),
                                 1.0 + 0.1 * static_cast<double>(i),
                                 static_cast<unsigned>(4 + i));
    spec.options.classes[1].population = 0;
    core::finalize_multiclass_options(spec.options);
    specs.push_back(std::move(spec));
  }
  expect_mc_batch_matches_scalar(specs);
}

TEST(McBatchParity, NonConvergenceThrowsTheScalarError) {
  ScenarioSpec strict = mix_spec("strict", 1.0, 6);
  strict.options.schweitzer.tolerance = 1e-300;
  strict.options.schweitzer.max_iterations = 3;
  std::string scalar_error;
  try {
    (void)core::solve(strict.network, nullptr, strict.options);
    FAIL() << "scalar solve unexpectedly converged";
  } catch (const numeric_error& e) {
    scalar_error = e.what();
  }
  // Batched alongside a healthy lane: the strict lane throws the scalar
  // engine's exact error.
  try {
    (void)core::solve_batch({mix_spec("healthy", 1.1, 8), strict});
    FAIL() << "batched solve unexpectedly converged";
  } catch (const numeric_error& e) {
    EXPECT_EQ(scalar_error, std::string(e.what()));
  }
}

TEST(McEngineBatch, LanesAndScalarFallbacksAreCounted) {
  service::Engine engine;
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 5; ++i) {
    specs.push_back(mix_spec("lane-" + std::to_string(i),
                             1.0 + 0.05 * static_cast<double>(i),
                             static_cast<unsigned>(4 + i)));
  }
  specs.push_back(mix_spec("mom", 1.0, 5, SolverKind::kMomMulticlass));
  const auto evals = engine.evaluate_batch(specs);
  ASSERT_EQ(evals.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(evals[i].label, specs[i].label);
    const MvaResult scalar =
        core::solve(specs[i].network, &specs[i].demands, specs[i].options);
    SCOPED_TRACE("spec " + specs[i].label);
    expect_mc_parity(*evals[i].result, scalar);
  }
  const auto metrics = engine.metrics();
  // Five Schweitzer lanes in one lockstep block; MoM fell back to scalar.
  EXPECT_EQ(metrics.batch_blocks, 1u);
  EXPECT_EQ(metrics.batch_lanes, 5u);
  EXPECT_EQ(metrics.batch_scalar_fallbacks, 1u);
  EXPECT_EQ(metrics.misses, specs.size());
}

TEST(McEngineBatch, VaryingClassDeepensThroughTheBatchPath) {
  service::Engine engine;
  // Seed a varying-class structure shallow, then batch it deeper: the
  // lockstep kernel re-solves it and must match a from-scratch scalar solve
  // bit-for-bit.
  (void)engine.evaluate_batch(
      std::vector<ScenarioSpec>{mixed_model_spec("seed", 1.0, 4)});
  const auto before = engine.metrics();
  const auto evals = engine.evaluate_batch(
      std::vector<ScenarioSpec>{mixed_model_spec("deeper", 1.0, 12),
                                mixed_model_spec("sibling", 1.3, 9)});
  const auto after = engine.metrics();
  EXPECT_EQ(after.misses - before.misses, 2u);
  EXPECT_EQ(after.batch_blocks - before.batch_blocks, 1u);
  EXPECT_EQ(after.batch_scalar_fallbacks, before.batch_scalar_fallbacks);
  for (const auto& ev : evals) EXPECT_FALSE(ev.cache_hit);
  {
    const ScenarioSpec reference = mixed_model_spec("ref", 1.0, 12);
    const MvaResult scalar =
        core::solve(reference.network, nullptr, reference.options);
    expect_mc_parity(*evals[0].result, scalar);
  }
  // The deepened entry answers both depths from cache now.
  EXPECT_TRUE(engine.evaluate(mixed_model_spec("hit", 1.0, 12)).cache_hit);
  EXPECT_TRUE(engine.evaluate(mixed_model_spec("hit4", 1.0, 4)).cache_hit);
}

TEST(McEngineBatch, WideSchweitzerBlockLandsInItsOccupancyBin) {
  // Schweitzer blocks run up to kMcSchweitzerLaneBlock lanes, wider than
  // single-class blocks; the histogram has a bin for every width.
  service::Engine engine;
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 20; ++i) {
    specs.push_back(mix_spec("wide-" + std::to_string(i),
                             0.8 + 0.02 * static_cast<double>(i), 6));
  }
  (void)engine.evaluate_batch(specs);
  const auto metrics = engine.metrics();
  EXPECT_EQ(metrics.batch_occupancy.size(),
            core::detail::kMcSchweitzerLaneBlock + 1);
  EXPECT_EQ(metrics.batch_blocks, 1u);
  EXPECT_EQ(metrics.batch_occupancy[20], 1u);
}

/// The message of the exception `error` holds.
std::string error_text(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

/// Evaluate `specs` — one lockstep block whose lane `bad` fails, plus an
/// in-batch duplicate of it at `dup` — and check that only those two carry
/// the failure: core::solve's error for the spec, with no result.  The good
/// lanes match core::solve bit for bit and are cached.
void expect_failing_lane_answers_alone(service::Engine& engine,
                                       const std::vector<ScenarioSpec>& specs,
                                       std::size_t bad, std::size_t dup) {
  // The engine plans its misses, one per fingerprint at the deepest
  // population asked (Engine::evaluate_batch); they must form one block,
  // so the failing lane shares its kernel call with every good lane.
  std::vector<service::Fingerprint> fps;
  std::vector<const ScenarioSpec*> reps;
  for (const auto& s : specs) {
    const service::Fingerprint fp = service::fingerprint(s);
    const auto it = std::find(fps.begin(), fps.end(), fp);
    if (it == fps.end()) {
      fps.push_back(fp);
      reps.push_back(&s);
    } else if (const ScenarioSpec*& rep = reps[it - fps.begin()];
               s.options.max_population > rep->options.max_population) {
      rep = &s;
    }
  }
  const auto plan = core::detail::plan_batch(reps);
  ASSERT_EQ(plan.blocks.size(), 1u);
  ASSERT_EQ(plan.blocks[0].size(), reps.size());
  ASSERT_TRUE(plan.scalars.empty());
  std::string want_error;
  try {
    (void)core::solve(specs[bad].network, &specs[bad].demands,
                      specs[bad].options);
    FAIL() << "the failing spec solved";
  } catch (const Error& e) {
    want_error = e.what();
  }

  const auto evals = engine.evaluate_batch(specs);
  ASSERT_EQ(evals.size(), specs.size());
  // The block threw, so none completed: run_block's per-lane fallback
  // served every lane.
  const auto metrics = engine.metrics();
  EXPECT_EQ(metrics.misses, reps.size());
  EXPECT_EQ(metrics.batch_blocks, 0u);
  EXPECT_EQ(metrics.batch_scalar_fallbacks, 0u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("spec " + specs[i].label);
    EXPECT_EQ(evals[i].label, specs[i].label);
    if (i == bad || i == dup) {
      EXPECT_EQ(evals[i].result, nullptr);
      ASSERT_NE(evals[i].error, nullptr);
      EXPECT_EQ(error_text(evals[i].error), want_error);
      continue;
    }
    ASSERT_NE(evals[i].result, nullptr);
    EXPECT_EQ(evals[i].error, nullptr);
    expect_mc_parity(*evals[i].result,
                     core::solve(specs[i].network, &specs[i].demands,
                                 specs[i].options));
    EXPECT_TRUE(engine.evaluate(specs[i]).cache_hit);
  }
}

TEST(EngineBatch, FailingLaneAnswersAloneInItsBlock) {
  {
    // mvasd: a zero-demand, zero-think lane among five VINS lanes.  `dup`
    // shares its fingerprint, so the engine plans six misses: the
    // narrowest group plan_batch keeps as one block.
    ScenarioSpec bad = vins_spec("bad", 1.0, 40);
    bad.network = ClosedNetwork(vins_network().stations(), 0.0);
    bad.demands = DemandModel::constant(std::vector<double>(12, 0.0));
    ScenarioSpec dup = bad;
    dup.label = "dup";
    dup.options.max_population = 20;
    const std::vector<ScenarioSpec> specs = {
        vins_spec("good-0", 1.0, 60), bad, vins_spec("good-1", 1.2, 90), dup,
        vins_spec("good-2", 1.4, 30), vins_spec("good-3", 1.6, 50),
        vins_spec("good-4", 1.8, 70)};
    service::Engine engine;
    expect_failing_lane_answers_alone(engine, specs, 1, 3);
    EXPECT_THROW((void)engine.evaluate(bad), invalid_argument_error);
  }
  {
    // schweitzer-multiclass: one lane allowed a single iteration.
    ScenarioSpec bad = mix_spec("bad", 1.1, 7);
    bad.options.schweitzer.max_iterations = 1;
    ScenarioSpec dup = bad;
    dup.label = "dup";
    const std::vector<ScenarioSpec> specs = {
        mix_spec("good-0", 1.0, 6), bad, dup, mix_spec("good-1", 1.2, 9),
        mix_spec("good-2", 0.9, 4)};
    service::Engine engine;
    expect_failing_lane_answers_alone(engine, specs, 1, 2);
    EXPECT_THROW((void)engine.evaluate(bad), numeric_error);
  }
}

// ------------------------------------------------------- mvasd golden bits
//
// Every number mvasd reports at three levels of a fixed set of solves,
// pinned bit for bit (golden_rows.hpp).  Scalar core::solve, a one-lane
// block and a lane of a ragged 16-lane block must all give the same
// literals.  The network has 1-, 16- and 64-server queueing stations and a
// delay station; demands are constant, concurrency-axis splines or
// throughput-axis splines.  The literals were captured from the default
// build (Release, GCC 12.2, x86-64); the kernels compile with
// -ffp-contract=off, so a rewrite that keeps the arithmetic and its order
// keeps these bits.

enum class GoldenDemands { kConstant, kConcurrency, kThroughput };

/// A 16-core web tier, a 64-core app tier, a single-server disk visited
/// twice and a CDN delay hop, with the demands scaled by `scale`.
ScenarioSpec mvasd_golden_spec(GoldenDemands kind, double scale,
                               unsigned users) {
  constexpr double kBase[] = {0.08, 0.45, 0.0025, 0.05};
  ScenarioSpec spec;
  spec.label = "golden";
  spec.network = ClosedNetwork(
      {Station{"web/cpu", 1.0, 16, StationKind::kQueueing},
       Station{"app/cpu", 1.0, 64, StationKind::kQueueing},
       Station{"db/disk", 2.0, 1, StationKind::kQueueing},
       Station{"cdn", 1.0, 1, StationKind::kDelay}},
      1.0);
  if (kind == GoldenDemands::kConstant) {
    std::vector<double> demands;
    for (const double b : kBase) demands.push_back(b * scale);
    spec.demands = DemandModel::constant(std::move(demands));
  } else {
    // Concurrency knots span the solved populations; throughput knots span
    // X up to about the app tier's capacity (64 / 0.45 = 142 per second).
    const bool by_x = kind == GoldenDemands::kThroughput;
    const std::vector<double> knots =
        by_x ? std::vector<double>{1.0, 50.0, 100.0, 150.0}
             : std::vector<double>{1.0, 100.0, 200.0, 300.0};
    std::vector<std::shared_ptr<const interp::Interpolator1D>> fns;
    for (const double base : kBase) {
      const double b = base * scale;
      fns.push_back(spline_of(knots, {b, 0.94 * b, 0.97 * b, 1.08 * b}));
    }
    spec.demands = DemandModel::interpolated(
        std::move(fns), by_x ? DemandModel::Axis::kThroughput
                             : DemandModel::Axis::kConcurrency);
  }
  spec.options.solver = SolverKind::kMvasd;
  spec.options.max_population = users;
  return spec;
}

/// One ragged 16-lane block through solve_batch: the three golden specs
/// (scale 1, N = 300) at lanes 0, 4 and 10 among lanes of other scales and
/// depths, every demand kind mixed into the one block.
std::vector<MvaResult> mvasd_golden_block() {
  constexpr unsigned kDepth[] = {300, 17, 250, 1,  300, 64,  128, 300,
                                 5,   200, 300, 33, 150, 99, 280, 2};
  std::vector<ScenarioSpec> specs;
  for (std::size_t l = 0; l < 16; ++l) {
    const bool golden = l == 0 || l == 4 || l == 10;
    const auto kind = static_cast<GoldenDemands>(l % 3);
    specs.push_back(mvasd_golden_spec(
        golden ? static_cast<GoldenDemands>(l / 4) : kind,
        golden ? 1.0 : 0.9 + 0.02 * static_cast<double>(l), kDepth[l]));
  }
  std::vector<const ScenarioSpec*> ptrs;
  for (const auto& s : specs) ptrs.push_back(&s);
  const auto plan = core::detail::plan_batch(ptrs);
  EXPECT_EQ(plan.blocks.size(), 1u);
  EXPECT_TRUE(plan.scalars.empty());
  return core::solve_batch(specs);
}

void expect_mvasd_golden(GoldenDemands kind, std::size_t block_lane,
                         const std::vector<std::vector<double>>& golden) {
  const std::vector<unsigned> levels = {1, 150, 300};
  const ScenarioSpec spec = mvasd_golden_spec(kind, 1.0, 300);
  {
    SCOPED_TRACE("scalar");
    golden::expect_rows(
        core::solve(spec.network, &spec.demands, spec.options), levels,
        golden);
  }
  {
    SCOPED_TRACE("one lane");
    golden::expect_rows(core::solve_batch({spec})[0], levels, golden);
  }
  {
    SCOPED_TRACE("ragged block");
    golden::expect_rows(mvasd_golden_block()[block_lane], levels, golden);
  }
}

TEST(Mvasd, GoldenConstantDemands) {
  const std::vector<std::vector<double>> kGolden = {
      {0x1.430744a4be963p-1, 0x1.2b851eb851eb9p-1, 0x1.95c28f5c28f5cp+0,
       0x1.9d79f176b682dp-5, 0x1.22b9bdc77854p-2, 0x1.9d79f176b682dp-9,
       0x1.026c36ea3211cp-5, 0x1.9d79f176b682dp-9, 0x1.22b9bdc77854p-8,
       0x1.9d79f176b682dp-9, 0x1.026c36ea3211cp-5, 0x1.47ae147ae147bp-4,
       0x1.ccccccccccccdp-2, 0x1.47ae147ae147bp-8, 0x1.999999999999ap-5},
      {0x1.76d0b6582f816p+6, 0x1.339a8d70da089p-1, 0x1.99cd46b86d044p+0,
       0x1.e8361fb3c275ep+2, 0x1.58e215399683dp+5, 0x1.be9d2c168ddadp-1,
       0x1.2bda2b79bf9abp+2, 0x1.dfc378c2cc2acp-2, 0x1.515570e8f78e1p-1,
       0x1.dfc378c2cc2acp-2, 0x1.2bda2b79bf9abp+2, 0x1.4d732d97eefa1p-4,
       0x1.d71cccfe8852ep-2, 0x1.3109e93f998f8p-7, 0x1.999999999999ap-5},
      {0x1.1ca34efea7c82p+7, 0x1.1ba20865655adp+0, 0x1.0dd10432b2ad6p+1,
       0x1.86a13ca403fa3p+3, 0x1.0fca145dea963p+7, 0x1.3b4ad31c72d1ep+1,
       0x1.c76bb19772d9dp+2, 0x1.6c5627ac5be17p-1, 0x1.002c93e5309a8p+0,
       0x1.6c5627ac5be17p-1, 0x1.c76bb19772d9dp+2, 0x1.5f53ef951a981p-4,
       0x1.e8e3698909a7dp-1, 0x1.1b91f6b084237p-6, 0x1.999999999999ap-5}};
  expect_mvasd_golden(GoldenDemands::kConstant, 0, kGolden);
}

TEST(Mvasd, GoldenConcurrencySplines) {
  const std::vector<std::vector<double>> kGolden = {
      {0x1.430744a4be963p-1, 0x1.2b851eb851eb9p-1, 0x1.95c28f5c28f5cp+0,
       0x1.9d79f176b682dp-5, 0x1.22b9bdc77854p-2, 0x1.9d79f176b682dp-9,
       0x1.026c36ea3211cp-5, 0x1.9d79f176b682dp-9, 0x1.22b9bdc77854p-8,
       0x1.9d79f176b682dp-9, 0x1.026c36ea3211cp-5, 0x1.47ae147ae147bp-4,
       0x1.ccccccccccccdp-2, 0x1.47ae147ae147bp-8, 0x1.999999999999ap-5},
      {0x1.7eee118cb827fp+6, 0x1.223c4904c823p-1, 0x1.911e248264118p+0,
       0x1.d83c68912071fp+2, 0x1.4c6acbcf20698p+5, 0x1.a21e56ff49669p-1,
       0x1.2148554a7096bp+2, 0x1.ceda2210b4246p-2, 0x1.45715ff3bea98p-1,
       0x1.ceda2210b4246p-2, 0x1.2148554a7096bp+2, 0x1.3bb4267e8d249p-4,
       0x1.bc761fb80792ep-2, 0x1.17864bb72bef4p-7, 0x1.82c9b2a160548p-5},
      {0x1.07a787f9bc59dp+7, 0x1.4694aec9badfp+0, 0x1.234a5764dd6f8p+1,
       0x1.93defecd709abp+3, 0x1.23ed0c1b132e1p+7, 0x1.3c2e7155fdb93p+1,
       0x1.c79847202ef14p+2, 0x1.6c79d280258ddp-1, 0x1.0045a8021a67bp+0,
       0x1.6c79d280258ddp-1, 0x1.c79847202ef14p+2, 0x1.882558b9405d3p-4,
       0x1.1b73657f05d87p+0, 0x1.330085494654ap-6, 0x1.ba5e353f7cedap-5}};
  expect_mvasd_golden(GoldenDemands::kConcurrency, 4, kGolden);
}

TEST(Mvasd, GoldenThroughputSplines) {
  const std::vector<std::vector<double>> kGolden = {
      {0x1.430744a4be963p-1, 0x1.2b851eb851eb9p-1, 0x1.95c28f5c28f5cp+0,
       0x1.9d79f176b682dp-5, 0x1.22b9bdc77854p-2, 0x1.9d79f176b682dp-9,
       0x1.026c36ea3211cp-5, 0x1.9d79f176b682dp-9, 0x1.22b9bdc77854p-8,
       0x1.9d79f176b682dp-9, 0x1.026c36ea3211cp-5, 0x1.47ae147ae147bp-4,
       0x1.ccccccccccccdp-2, 0x1.47ae147ae147bp-8, 0x1.999999999999ap-5},
      {0x1.7d812d95866aap+6, 0x1.253b95905a5dbp-1, 0x1.929dcac82d2eep+0,
       0x1.e32b5011bb861p+2, 0x1.4d2433bf01628p+5, 0x1.adfb2be24dbc5p-1,
       0x1.25e0d3218904p+2, 0x1.d634850274d32p-2, 0x1.4a9ced85ba248p-1,
       0x1.d634850274d32p-2, 0x1.25e0d3218904p+2, 0x1.44383f281453bp-4,
       0x1.bf180df2f95dep-2, 0x1.208771b9e4f34p-7, 0x1.8a668eaf3907bp-5},
      {0x1.109786d31c29fp+7, 0x1.337accfe3e9d9p+0, 0x1.19bd667f1f4ecp+1,
       0x1.9247795ef67abp+3, 0x1.1b2393a808d69p+7, 0x1.3aa8bf2df9494p+1,
       0x1.c6b95e467658dp+2, 0x1.6bc77e9ec513ep-1, 0x1.ff908a0f4523ep-1,
       0x1.6bc77e9ec513ep-1, 0x1.c6b95e467658dp+2, 0x1.79cb2901c68cp-4,
       0x1.09e7b4a77315ep+0, 0x1.2781ba615c1cp-6, 0x1.ab0bdba535cf6p-5}};
  expect_mvasd_golden(GoldenDemands::kThroughput, 10, kGolden);
}

}  // namespace
}  // namespace mtperf
