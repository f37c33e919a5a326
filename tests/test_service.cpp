// Tests for the scenario-evaluation service layer: structural
// fingerprinting, the sharded LRU result cache (exact hits, prefix hits,
// eviction), concurrent hammering, and solve-facade dispatch to the
// per-solver kernels on the VINS and JPetStore pipelines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "apps/jpetstore.hpp"
#include "apps/vins.hpp"
#include "common/error.hpp"
#include "core/detail/batch_engine.hpp"
#include "core/prediction.hpp"
#include "core/solve.hpp"
#include "interp/cubic_spline.hpp"
#include "interp/interpolator.hpp"
#include "service/engine.hpp"
#include "service/fingerprint.hpp"
#include "service/json.hpp"
#include "service/request.hpp"
#include "workload/campaign.hpp"

namespace mtperf {
namespace {

using core::DemandModel;
using core::MvaResult;
using core::ScenarioSpec;
using core::SolverKind;
using service::Engine;
using service::EngineOptions;
using service::Fingerprint;
using service::fingerprint;

ScenarioSpec basic_spec(std::string label = "base", unsigned users = 50) {
  ScenarioSpec spec;
  spec.label = std::move(label);
  spec.network = core::make_network({"cpu", "disk"}, {16, 1}, 1.0);
  spec.demands = DemandModel::constant({0.012, 0.030});
  spec.options.solver = SolverKind::kMvasd;
  spec.options.max_population = users;
  return spec;
}

ScenarioSpec spline_spec(double y_mid = 0.010, unsigned users = 60) {
  ScenarioSpec spec;
  spec.label = "spline";
  spec.network = core::make_network({"cpu", "disk"}, {16, 1}, 1.0);
  auto spline_of = [](std::vector<double> x, std::vector<double> y) {
    return std::make_shared<interp::PiecewiseCubic>(interp::build_cubic_spline(
        interp::SampleSet(std::move(x), std::move(y))));
  };
  spec.demands = DemandModel::interpolated({
      spline_of({1, 50, 200}, {0.012, y_mid, 0.009}),
      spline_of({1, 50, 200}, {0.030, 0.028, 0.027}),
  });
  spec.options.solver = SolverKind::kMvasd;
  spec.options.max_population = users;
  return spec;
}

void expect_identical(const MvaResult& a, const MvaResult& b,
                      double tol = 0.0) {
  ASSERT_EQ(a.levels(), b.levels());
  ASSERT_EQ(a.stations(), b.stations());
  for (std::size_t i = 0; i < a.levels(); ++i) {
    EXPECT_LE(std::abs(a.throughput[i] - b.throughput[i]), tol);
    EXPECT_LE(std::abs(a.response_time[i] - b.response_time[i]), tol);
    EXPECT_LE(std::abs(a.cycle_time[i] - b.cycle_time[i]), tol);
    for (std::size_t k = 0; k < a.stations(); ++k) {
      EXPECT_LE(std::abs(a.utilization(i, k) - b.utilization(i, k)), tol);
      EXPECT_LE(std::abs(a.queue(i, k) - b.queue(i, k)), tol);
    }
  }
}

// ------------------------------------------------------------ fingerprint

TEST(Fingerprint, IgnoresLabelAndPopulation) {
  const auto a = fingerprint(basic_spec("alpha", 10));
  const auto b = fingerprint(basic_spec("beta", 500));
  EXPECT_EQ(a, b);
}

TEST(Fingerprint, DistinguishesStructure) {
  const Fingerprint base = fingerprint(basic_spec());
  std::vector<ScenarioSpec> variants;
  {  // different server count
    auto s = basic_spec();
    s.network = core::make_network({"cpu", "disk"}, {8, 1}, 1.0);
    variants.push_back(std::move(s));
  }
  {  // different think time
    auto s = basic_spec();
    s.network = core::make_network({"cpu", "disk"}, {16, 1}, 2.0);
    variants.push_back(std::move(s));
  }
  {  // different demand value
    auto s = basic_spec();
    s.demands = DemandModel::constant({0.012, 0.031});
    variants.push_back(std::move(s));
  }
  {  // different solver kind
    auto s = basic_spec();
    s.options.solver = SolverKind::kMvasdSingleServer;
    variants.push_back(std::move(s));
  }
  {  // different station name
    auto s = basic_spec();
    s.network = core::make_network({"cpu", "ssd"}, {16, 1}, 1.0);
    variants.push_back(std::move(s));
  }
  {  // utilization rows only: a lean entry must not answer an all-rows ask
    auto s = basic_spec();
    s.options.station_rows = core::StationRows::kUtilization;
    variants.push_back(std::move(s));
  }
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_FALSE(fingerprint(variants[i]) == base) << "variant " << i;
    for (std::size_t j = i + 1; j < variants.size(); ++j) {
      EXPECT_FALSE(fingerprint(variants[i]) == fingerprint(variants[j]))
          << "variants " << i << " vs " << j;
    }
  }
}

TEST(Fingerprint, SolverOptionsOnlyCountWhereUsed) {
  // Schweitzer tolerance is part of the key for the solvers that read it...
  auto a = basic_spec();
  auto b = a;
  b.options.schweitzer.tolerance *= 10.0;
  for (const auto kind :
       {SolverKind::kSchweitzer, SolverKind::kSeidmannSchweitzer}) {
    a.options.solver = kind;
    b.options.solver = kind;
    EXPECT_FALSE(fingerprint(a) == fingerprint(b))
        << core::solver_kind_name(kind);
  }
  // ...but irrelevant (and excluded) for solvers that never read it.
  a.options.solver = SolverKind::kMvasd;
  b.options.solver = SolverKind::kMvasd;
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(Fingerprint, SplineDemandsHashedByShape) {
  EXPECT_EQ(fingerprint(spline_spec()), fingerprint(spline_spec()));
  EXPECT_FALSE(fingerprint(spline_spec(0.010)) ==
               fingerprint(spline_spec(0.0101)));
}

// ----------------------------------------------------------------- engine

TEST(Engine, ExactHitSharesCachedResult) {
  Engine engine(EngineOptions{.threads = 2});
  const auto first = engine.evaluate(basic_spec("cold"));
  EXPECT_FALSE(first.cache_hit);
  const auto second = engine.evaluate(basic_spec("warm"));
  EXPECT_TRUE(second.cache_hit);
  EXPECT_FALSE(second.prefix_hit);
  EXPECT_EQ(first.result.get(), second.result.get());  // shared, not copied
  EXPECT_EQ(second.label, "warm");

  const auto metrics = engine.metrics();
  EXPECT_EQ(metrics.requests, 2u);
  EXPECT_EQ(metrics.hits, 1u);
  EXPECT_EQ(metrics.misses, 1u);
  EXPECT_DOUBLE_EQ(metrics.hit_rate, 0.5);
}

TEST(Engine, PrefixHitMatchesDirectSolve) {
  Engine engine(EngineOptions{.threads = 2});
  (void)engine.evaluate(basic_spec("deep", 200));

  const auto shallow_spec = basic_spec("shallow", 80);
  const auto shallow = engine.evaluate(shallow_spec);
  EXPECT_TRUE(shallow.cache_hit);
  EXPECT_TRUE(shallow.prefix_hit);
  ASSERT_EQ(shallow.result->levels(), 80u);

  const MvaResult direct = core::solve(shallow_spec.network,
                                       &shallow_spec.demands,
                                       shallow_spec.options);
  expect_identical(*shallow.result, direct);  // bit-for-bit
  EXPECT_EQ(engine.metrics().prefix_hits, 1u);
}

TEST(Engine, DeepeningReplacesShallowEntry) {
  Engine engine(EngineOptions{.threads = 2});
  (void)engine.evaluate(basic_spec("shallow", 40));
  // A deeper request for the same structure must re-solve...
  const auto deep = engine.evaluate(basic_spec("deep", 150));
  EXPECT_FALSE(deep.cache_hit);
  // ...and afterwards both depths are served from the deepened entry.
  EXPECT_TRUE(engine.evaluate(basic_spec("again", 150)).cache_hit);
  EXPECT_TRUE(engine.evaluate(basic_spec("again", 40)).prefix_hit);
  EXPECT_EQ(engine.metrics().entries, 1u);
}

TEST(Engine, LruEvictsUnderPressure) {
  EngineOptions options;
  options.cache_capacity = 2;
  options.shards = 1;
  options.threads = 1;
  Engine engine(options);

  auto spec_with_think = [&](double think) {
    auto s = basic_spec();
    s.network = core::make_network({"cpu", "disk"}, {16, 1}, think);
    return s;
  };
  (void)engine.evaluate(spec_with_think(1.0));
  (void)engine.evaluate(spec_with_think(2.0));
  (void)engine.evaluate(spec_with_think(3.0));  // evicts think=1.0 (LRU)

  auto metrics = engine.metrics();
  EXPECT_EQ(metrics.entries, 2u);
  EXPECT_GE(metrics.evictions, 1u);

  EXPECT_TRUE(engine.evaluate(spec_with_think(3.0)).cache_hit);
  EXPECT_TRUE(engine.evaluate(spec_with_think(2.0)).cache_hit);
  EXPECT_FALSE(engine.evaluate(spec_with_think(1.0)).cache_hit);  // was evicted
}

TEST(Engine, ClearDropsEntriesKeepsCounters) {
  Engine engine(EngineOptions{.threads = 1});
  (void)engine.evaluate(basic_spec());
  engine.clear();
  EXPECT_EQ(engine.metrics().entries, 0u);
  EXPECT_EQ(engine.metrics().requests, 1u);
  EXPECT_FALSE(engine.evaluate(basic_spec()).cache_hit);
}

ScenarioSpec lean_spec(std::string label = "lean", unsigned users = 50) {
  ScenarioSpec spec = basic_spec(std::move(label), users);
  spec.options.station_rows = core::StationRows::kUtilization;
  return spec;
}

TEST(Engine, StationRowsKeySeparateEntries) {
  Engine engine(EngineOptions{.threads = 1});
  const auto lean = engine.evaluate(lean_spec("lean", 120));
  EXPECT_FALSE(lean.cache_hit);
  EXPECT_EQ(lean.result->station_rows, core::StationRows::kUtilization);
  EXPECT_TRUE(lean.result->station_queue.empty());
  EXPECT_TRUE(lean.result->station_residence.empty());

  // The same spec asking for every row misses and gets every row.
  const auto full = engine.evaluate(basic_spec("full", 120));
  EXPECT_FALSE(full.cache_hit);
  EXPECT_EQ(full.result->station_rows, core::StationRows::kAll);
  EXPECT_EQ(full.result->station_queue.size(), 120u * 2u);
  EXPECT_EQ(full.result->station_residence.size(), 120u * 2u);
  EXPECT_EQ(full.result->station_utilization,
            lean.result->station_utilization);
  EXPECT_EQ(full.result->throughput, lean.result->throughput);
  EXPECT_EQ(engine.metrics().entries, 2u);

  // A prefix hit on the lean entry is lean too, and matches a direct
  // utilization-only solve.
  const ScenarioSpec shallow = lean_spec("shallow", 40);
  const auto trimmed = engine.evaluate(shallow);
  EXPECT_TRUE(trimmed.prefix_hit);
  EXPECT_EQ(trimmed.result->station_rows, core::StationRows::kUtilization);
  EXPECT_TRUE(trimmed.result->station_queue.empty());
  EXPECT_TRUE(trimmed.result->station_residence.empty());
  const MvaResult direct =
      core::solve(shallow.network, &shallow.demands, shallow.options);
  EXPECT_EQ(trimmed.result->throughput, direct.throughput);
  EXPECT_EQ(trimmed.result->cycle_time, direct.cycle_time);
  EXPECT_EQ(trimmed.result->station_utilization, direct.station_utilization);
}

TEST(Engine, CacheBytesFollowStoreDeepenEvictAndClear) {
  EngineOptions options;
  options.cache_capacity = 1;
  options.shards = 1;
  options.threads = 1;
  Engine engine(options);
  EXPECT_EQ(engine.metrics().cache_bytes, 0u);

  // A spline entry pins its result and nothing else: no demand-grid rows.
  const auto stored = engine.evaluate(spline_spec(0.010, 60));
  EXPECT_EQ(engine.metrics().cache_bytes, stored.result->bytes());

  const auto deepened = engine.evaluate(spline_spec(0.010, 90));
  EXPECT_FALSE(deepened.cache_hit);
  EXPECT_EQ(engine.metrics().cache_bytes, deepened.result->bytes());

  // Capacity 1: a new structure evicts the spline entry.
  const auto lean = engine.evaluate(lean_spec("lean", 30));
  EXPECT_EQ(engine.metrics().evictions, 1u);
  EXPECT_EQ(engine.metrics().cache_bytes, lean.result->bytes());
  // Population, X, R, Z and one utilization row per level.
  EXPECT_EQ(lean.result->bytes(),
            30u * (sizeof(unsigned) + 3 * sizeof(double) + 2 * sizeof(double)));

  engine.clear();
  EXPECT_EQ(engine.metrics().cache_bytes, 0u);
}

TEST(Engine, BatchPreservesOrderAndCaches) {
  Engine engine(EngineOptions{.threads = 4});
  std::vector<ScenarioSpec> specs;
  for (unsigned i = 0; i < 12; ++i) {
    specs.push_back(basic_spec("s" + std::to_string(i), 30 + 10 * (i % 3)));
  }
  const auto evaluations = engine.evaluate_batch(specs);
  ASSERT_EQ(evaluations.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(evaluations[i].label, specs[i].label);
    EXPECT_EQ(evaluations[i].result->levels(), specs[i].options.max_population);
  }
  // 12 structurally identical requests at depths {30,40,50}: at most a few
  // solves (concurrent identical misses may double-solve), mostly hits.
  EXPECT_GE(engine.metrics().hits, 6u);
}

TEST(Engine, RefusesClassesOnASingleClassKind) {
  // The lane kernel reads no classes, so the batch paths leave such a spec
  // to core::solve's refusal.
  ScenarioSpec spec = basic_spec("mixed-up", 30);
  spec.options.classes = {{"a", 5, 1.0, std::vector<double>{0.01, 0.02}}};
  EXPECT_THROW((void)core::solve(spec.network, &spec.demands, spec.options),
               invalid_argument_error);
  Engine engine;
  EXPECT_THROW((void)engine.evaluate(spec), invalid_argument_error);
  EXPECT_THROW((void)core::solve_batch({basic_spec("ok", 30), spec}),
               invalid_argument_error);
}

TEST(Engine, ConcurrentHammerStaysConsistent) {
  // Cold baselines, solved directly.
  std::vector<ScenarioSpec> specs;
  for (unsigned i = 0; i < 4; ++i) {
    auto s = basic_spec("c" + std::to_string(i), 60);
    s.demands = DemandModel::constant({0.012 + 0.001 * i, 0.030});
    specs.push_back(std::move(s));
  }
  std::vector<MvaResult> baselines;
  for (const auto& s : specs) {
    baselines.push_back(core::solve(s.network, &s.demands, s.options));
  }

  Engine engine(EngineOptions{.threads = 4});
  constexpr int kRounds = 50;
  std::vector<std::future<service::Evaluation>> futures;
  futures.reserve(kRounds * specs.size());
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      auto s = specs[i];
      // Vary the requested depth to exercise prefix hits under contention.
      s.options.max_population = 30 + 10 * (round % 4);
      futures.push_back(engine.pool().submit(
          [&engine, s = std::move(s)] { return engine.evaluate(s); }));
    }
  }
  std::size_t checked = 0;
  for (std::size_t f = 0; f < futures.size(); ++f) {
    const auto evaluation = futures[f].get();
    const auto& baseline = baselines[f % specs.size()];
    const auto& got = *evaluation.result;
    ASSERT_LE(got.levels(), baseline.levels());
    for (std::size_t i = 0; i < got.levels(); ++i) {
      ASSERT_DOUBLE_EQ(got.throughput[i], baseline.throughput[i]);
      ASSERT_DOUBLE_EQ(got.response_time[i], baseline.response_time[i]);
    }
    ++checked;
  }
  EXPECT_EQ(checked, futures.size());

  const auto metrics = engine.metrics();
  EXPECT_EQ(metrics.requests, futures.size());
  EXPECT_EQ(metrics.queue_depth, 0u);
  // 200 requests over 4 structures x 4 depths: even with concurrent
  // duplicate misses the cache must absorb the vast majority.
  EXPECT_GT(metrics.hit_rate, 0.8);
}

// ------------------------------------------------------------- multiclass

/// A two-class mix over cpu+disk.  `heavy` is the fixed class; `light`
/// is last-with-population, so the series kinds sweep it as the axis.
/// `varying` swaps light's constant demands for a concurrency spline.
ScenarioSpec multiclass_spec(SolverKind kind, unsigned axis_pop = 12,
                             bool varying = false) {
  ScenarioSpec spec;
  spec.label = "mix";
  spec.network = core::make_network({"cpu", "disk"}, {1, 1}, 0.0);
  core::CustomerClass heavy{"heavy", 8, 1.0, {0.020, 0.010}, nullptr};
  core::CustomerClass light{"light", axis_pop, 2.0, {0.004, 0.012}, nullptr};
  if (varying) {
    auto spline_of = [](std::vector<double> x, std::vector<double> y) {
      return std::make_shared<interp::PiecewiseCubic>(
          interp::build_cubic_spline(
              interp::SampleSet(std::move(x), std::move(y))));
    };
    light.demand_model = std::make_shared<const DemandModel>(
        DemandModel::interpolated({
            spline_of({1, 10, 40}, {0.004, 0.005, 0.007}),
            spline_of({1, 10, 40}, {0.012, 0.011, 0.010}),
        }));
  }
  spec.options.solver = kind;
  spec.options.classes = {std::move(heavy), std::move(light)};
  core::finalize_multiclass_options(spec.options);
  return spec;
}

TEST(Fingerprint, MulticlassAxisPopulationExcludedForSeriesKinds) {
  // The series kinds emit every axis level, so a deeper axis is the same
  // key family (prefix reuse) ...
  EXPECT_EQ(fingerprint(multiclass_spec(SolverKind::kExactMulticlass, 12)),
            fingerprint(multiclass_spec(SolverKind::kExactMulticlass, 40)));
  // ... but MoM answers only the full mix, so every population is key
  // material there.
  EXPECT_FALSE(fingerprint(multiclass_spec(SolverKind::kMomMulticlass, 12)) ==
               fingerprint(multiclass_spec(SolverKind::kMomMulticlass, 40)));
}

TEST(Fingerprint, MulticlassDistinguishesMixShape) {
  const Fingerprint base =
      fingerprint(multiclass_spec(SolverKind::kExactMulticlass));
  std::vector<ScenarioSpec> variants;
  {  // different class name
    auto s = multiclass_spec(SolverKind::kExactMulticlass);
    s.options.classes[0].name = "heavier";
    variants.push_back(std::move(s));
  }
  {  // different class think time
    auto s = multiclass_spec(SolverKind::kExactMulticlass);
    s.options.classes[0].think_time = 1.5;
    variants.push_back(std::move(s));
  }
  {  // different non-axis population
    auto s = multiclass_spec(SolverKind::kExactMulticlass);
    s.options.classes[0].population = 9;
    variants.push_back(std::move(s));
  }
  {  // different demand value
    auto s = multiclass_spec(SolverKind::kExactMulticlass);
    s.options.classes[0].demands[1] = 0.011;
    variants.push_back(std::move(s));
  }
  {  // spline demands instead of constants
    variants.push_back(
        multiclass_spec(SolverKind::kExactMulticlass, 12, /*varying=*/true));
  }
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_FALSE(fingerprint(variants[i]) == base) << "variant " << i;
    for (std::size_t j = i + 1; j < variants.size(); ++j) {
      EXPECT_FALSE(fingerprint(variants[i]) == fingerprint(variants[j]))
          << "variants " << i << " vs " << j;
    }
  }
}

TEST(Fingerprint, MulticlassConstantVectorAndConstantModelAgree) {
  // A class described by a demand vector and one described by an
  // equivalent DemandModel::constant are the same scenario — and must
  // land on the same cache key.
  auto a = multiclass_spec(SolverKind::kExactMulticlass);
  auto b = multiclass_spec(SolverKind::kExactMulticlass);
  b.options.classes[1].demand_model = std::make_shared<const DemandModel>(
      DemandModel::constant(b.options.classes[1].demands));
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(Engine, MulticlassAxisPrefixHitMatchesDirectSolve) {
  Engine engine(EngineOptions{.threads = 2});
  (void)engine.evaluate(multiclass_spec(SolverKind::kExactMulticlass, 40));

  const auto shallow_spec = multiclass_spec(SolverKind::kExactMulticlass, 12);
  const auto shallow = engine.evaluate(shallow_spec);
  EXPECT_TRUE(shallow.cache_hit);
  EXPECT_TRUE(shallow.prefix_hit);
  ASSERT_EQ(shallow.result->levels(), 12u);
  ASSERT_EQ(shallow.result->classes(), 2u);

  const MvaResult direct = core::solve(shallow_spec.network,
                                       &shallow_spec.demands,
                                       shallow_spec.options);
  expect_identical(*shallow.result, direct);  // bit-for-bit
  for (std::size_t i = 0; i < direct.levels(); ++i) {
    for (std::size_t c = 0; c < direct.classes(); ++c) {
      EXPECT_EQ(shallow.result->class_x(i, c), direct.class_x(i, c));
      EXPECT_EQ(shallow.result->class_r(i, c), direct.class_r(i, c));
    }
  }
  EXPECT_EQ(engine.metrics().prefix_hits, 1u);
}

TEST(Engine, MulticlassVaryingClassDeepensAndMatchesDirectSolve) {
  Engine engine(EngineOptions{.threads = 2});
  const auto shallow =
      multiclass_spec(SolverKind::kExactMulticlass, 10, /*varying=*/true);
  (void)engine.evaluate(shallow);
  const auto deep =
      multiclass_spec(SolverKind::kExactMulticlass, 30, /*varying=*/true);
  const auto evaluated = engine.evaluate(deep);
  EXPECT_FALSE(evaluated.cache_hit);  // deeper axis re-solves...
  EXPECT_EQ(engine.metrics().entries, 1u);  // ...into the same entry

  const MvaResult direct =
      core::solve(deep.network, &deep.demands, deep.options);
  expect_identical(*evaluated.result, direct);  // bit for bit
}

TEST(Engine, MomMulticlassCachesWholeMixesOnly) {
  Engine engine(EngineOptions{.threads = 2});
  const auto first = engine.evaluate(multiclass_spec(SolverKind::kMomMulticlass));
  EXPECT_FALSE(first.cache_hit);
  ASSERT_EQ(first.result->levels(), 1u);
  const auto again = engine.evaluate(multiclass_spec(SolverKind::kMomMulticlass));
  EXPECT_TRUE(again.cache_hit);
  EXPECT_FALSE(again.prefix_hit);
  EXPECT_EQ(first.result.get(), again.result.get());
  // A different axis population is a different mix — a fresh miss, never
  // a prefix of the cached one.
  const auto other =
      engine.evaluate(multiclass_spec(SolverKind::kMomMulticlass, 13));
  EXPECT_FALSE(other.cache_hit);
}

// ----------------------------------------------------------------- facade

TEST(SolveFacade, KindNamesRoundTrip) {
  for (const auto kind :
       {SolverKind::kExactSingleServer, SolverKind::kSchweitzer,
        SolverKind::kApproxMultiserver, SolverKind::kMvasd,
        SolverKind::kMvasdSingleServer,
        SolverKind::kSeidmann, SolverKind::kSeidmannSchweitzer,
        SolverKind::kHierarchical}) {
    EXPECT_EQ(core::parse_solver_kind(core::solver_kind_name(kind)), kind);
  }
  EXPECT_THROW(core::parse_solver_kind("no-such-solver"), Error);
}

TEST(SolveFacade, ExactMultiserverIsAnAliasOfMvasd) {
  // Algorithm 2 is Algorithm 3 over constant demands: one kind, whose
  // historical name still parses and whose canonical name is "mvasd".
  EXPECT_EQ(core::parse_solver_kind("exact-multiserver"), SolverKind::kMvasd);
  EXPECT_STREQ(core::solver_kind_name(SolverKind::kMvasd), "mvasd");
}

TEST(SolveFacade, LoadDependentIsAnAliasOfMvasd) {
  // A C-server queue is the load-dependent station alpha(j) = min(j, C),
  // so "load-dependent" names the mvasd kind: the same spec sent under
  // either name serializes to the same bytes and shares one cache entry.
  EXPECT_EQ(core::parse_solver_kind("load-dependent"), SolverKind::kMvasd);
  const std::string body =
      "\"label\":\"ld\",\"think\":1.0,"
      "\"stations\":[{\"name\":\"cpu\",\"servers\":16},{\"name\":\"disk\"},"
      "{\"name\":\"lan\",\"kind\":\"delay\"}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.012,0.03,0.002]},"
      "\"max_population\":200,\"series\":true}";
  const auto alias =
      service::parse_request("{\"solver\":\"load-dependent\"," + body);
  const auto canonical =
      service::parse_request("{\"solver\":\"mvasd\"," + body);
  EXPECT_EQ(alias.spec.options.solver, SolverKind::kMvasd);
  EXPECT_EQ(fingerprint(alias.spec), fingerprint(canonical.spec));
  // Fresh engines: both names miss and serialize the same bytes (the
  // measured solve time aside).
  const auto serialize = [](const service::ParsedRequest& request) {
    Engine engine;
    service::Evaluation ev = engine.evaluate(request.spec);
    ev.solve_ms = 0.0;
    std::string out;
    service::append_evaluation(out, ev, request.series, request.id);
    return out;
  };
  EXPECT_EQ(serialize(alias), serialize(canonical));
  // One engine: the second name hits the first name's entry.
  Engine engine;
  const auto first = engine.evaluate(alias.spec);
  const auto second = engine.evaluate(canonical.spec);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.result.get(), second.result.get());
}

TEST(SolveFacade, ErrorsCarryStablePrefix) {
  const auto spec = basic_spec();
  core::SolveOptions bad = spec.options;
  bad.max_population = 0;
  try {
    (void)core::solve(spec.network, &spec.demands, bad);
    FAIL() << "expected mtperf::Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).rfind(Error::prefix(), 0), 0u)
        << e.what();
  }
  // Network construction errors carry the same prefix.
  try {
    (void)core::make_network({}, {}, 1.0);
    FAIL() << "expected mtperf::Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).rfind(Error::prefix(), 0), 0u);
  }
}

TEST(SolveFacade, SeidmannSchweitzerHonoursSchweitzerOptions) {
  // Both Schweitzer kinds read SolveOptions::schweitzer: an exhausted
  // iteration cap or an invalid tolerance fails, and a coarser tolerance
  // moves the fixed point.
  const auto net = core::make_network({"cpu", "disk"}, {8, 1}, 1.0);
  const auto demands = DemandModel::constant({0.08, 0.012});
  for (const auto kind :
       {SolverKind::kSchweitzer, SolverKind::kSeidmannSchweitzer}) {
    SCOPED_TRACE(core::solver_kind_name(kind));
    core::SolveOptions capped{kind, 200};
    capped.schweitzer.max_iterations = 1;
    EXPECT_THROW((void)core::solve(net, demands, capped), numeric_error);
    core::SolveOptions negative{kind, 200};
    negative.schweitzer.tolerance = -1.0;
    EXPECT_THROW((void)core::solve(net, demands, negative),
                 invalid_argument_error);
    core::SolveOptions coarse{kind, 200};
    coarse.schweitzer.tolerance = 1e-2;
    EXPECT_NE(core::solve(net, demands, coarse).throughput,
              core::solve(net, demands, {kind, 200}).throughput);
  }
}

TEST(SolveFacade, ConstantOnlySolversRejectVaryingDemands) {
  auto spec = spline_spec();
  spec.options.solver = SolverKind::kSchweitzer;
  EXPECT_THROW((void)core::solve(spec.network, &spec.demands, spec.options),
               Error);
}

// ------------------------------------------------- facade parity (paper)

workload::CampaignSettings parity_settings() {
  workload::CampaignSettings s;
  s.grinder.duration_s = 400.0;
  s.warmup_fraction = 0.25;
  s.seed = 2026;
  return s;
}

class FacadeParity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    vins_ = new workload::CampaignResult(workload::run_campaign(
        apps::make_vins(), apps::vins_campaign_levels(), parity_settings()));
    jps_ = new workload::CampaignResult(
        workload::run_campaign(apps::make_jpetstore(),
                               apps::jpetstore_campaign_levels(),
                               parity_settings()));
  }
  static void TearDownTestSuite() {
    delete vins_;
    delete jps_;
    vins_ = nullptr;
    jps_ = nullptr;
  }

  static constexpr double kTol = 1e-12;
  static constexpr double kThink = 1.0;

  static workload::CampaignResult* vins_;
  static workload::CampaignResult* jps_;
};

workload::CampaignResult* FacadeParity::vins_ = nullptr;
workload::CampaignResult* FacadeParity::jps_ = nullptr;

// The *MatchesLegacy tests pin that the facade dispatches each campaign
// spec to the kernel its kind names.

/// A one-lane block of the lane kernel, called directly.
MvaResult lane_solve(const core::ClosedNetwork& network,
                     const DemandModel& demands, unsigned max_population) {
  std::vector<core::detail::BatchLane> lane(1);
  lane[0].network = &network;
  lane[0].demands = &demands;
  lane[0].max_population = max_population;
  return std::move(core::detail::solve_lane_block(lane)[0]);
}

TEST_F(FacadeParity, VinsMvasdMatchesLegacy) {
  const auto spec = core::mvasd_scenario("MVASD", vins_->table, kThink, 800);
  const auto via_facade = core::solve(spec.network, spec.demands, spec.options);
  const auto legacy = lane_solve(spec.network, spec.demands, 800);
  expect_identical(via_facade, legacy, kTol);
}

TEST_F(FacadeParity, VinsFixedMvaMatchesLegacy) {
  const auto spec =
      core::mva_fixed_scenario("MVA 203", vins_->table, kThink, 800, 203.0);
  const auto via_facade = core::solve(spec.network, spec.demands, spec.options);
  const auto legacy = lane_solve(
      spec.network,
      DemandModel::constant(vins_->table.demands_at_concurrency(203.0)), 800);
  expect_identical(via_facade, legacy, kTol);
}

TEST_F(FacadeParity, JPetStoreMvasdMatchesLegacy) {
  const auto spec = core::mvasd_scenario("MVASD", jps_->table, kThink, 280);
  const auto via_facade = core::solve(spec.network, spec.demands, spec.options);
  const auto legacy = lane_solve(spec.network, spec.demands, 280);
  expect_identical(via_facade, legacy, kTol);
}

/// f(x) / C: a demand curve per server.
class PerServerCurve final : public interp::Interpolator1D {
 public:
  PerServerCurve(std::shared_ptr<const interp::Interpolator1D> curve,
                 double servers)
      : curve_(std::move(curve)), servers_(servers) {}
  double value(double x) const override { return curve_->value(x) / servers_; }
  double derivative(double x, int order) const override {
    return curve_->derivative(x, order) / servers_;
  }
  std::string name() const override { return curve_->name(); }
  double x_min() const override { return curve_->x_min(); }
  double x_max() const override { return curve_->x_max(); }

 private:
  std::shared_ptr<const interp::Interpolator1D> curve_;
  double servers_;
};

TEST_F(FacadeParity, JPetStoreSingleServerMatchesLegacy) {
  // The Fig. 8 baseline's kernel: one lane on the network made
  // single-server, each station's demand curve divided by its server count.
  const auto spec =
      core::mvasd_single_server_scenario("SS", jps_->table, kThink, 280);
  const auto via_facade = core::solve(spec.network, spec.demands, spec.options);
  std::vector<core::Station> stations = spec.network.stations();
  std::vector<std::shared_ptr<const interp::Interpolator1D>> curves;
  for (std::size_t k = 0; k < stations.size(); ++k) {
    curves.push_back(std::make_shared<PerServerCurve>(
        spec.demands.shared_interpolant(k), stations[k].servers));
    stations[k].servers = 1;
  }
  const auto legacy =
      lane_solve(core::ClosedNetwork(std::move(stations), kThink),
                 DemandModel::interpolated(std::move(curves)), 280);
  expect_identical(via_facade, legacy, kTol);
}

TEST_F(FacadeParity, EngineMatchesFacadeOnJPetStore) {
  const auto spec = core::mvasd_scenario("MVASD", jps_->table, kThink, 280);
  Engine engine(EngineOptions{.threads = 2});
  const auto via_engine = engine.evaluate(spec);
  const auto direct = core::solve(spec.network, spec.demands, spec.options);
  expect_identical(*via_engine.result, direct);  // bit-for-bit
}

// ------------------------------------------------------------------- json

TEST(Json, ParseDumpRoundTrip) {
  const auto v = service::Json::parse(
      R"({"a":[1,2.5,-3e2],"b":{"nested":true},"s":"x\ny","n":null})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[2].as_number(), -300.0);
  EXPECT_TRUE(v.at("b").at("nested").as_bool());
  EXPECT_EQ(v.at("s").as_string(), "x\ny");
  const auto redumped = service::Json::parse(v.dump());
  EXPECT_EQ(redumped.dump(), v.dump());
}

TEST(Json, ParseErrorsAreMtperfErrors) {
  EXPECT_THROW(service::Json::parse("{"), Error);
  EXPECT_THROW(service::Json::parse("[1,]"), Error);
  EXPECT_THROW(service::Json::parse("{} trailing"), Error);
}

TEST(Json, DuplicateObjectKeysAreRejected) {
  // Regression: duplicates used to resolve last-wins via insert_or_assign,
  // silently masking client bugs like {"think":1,...,"think":2}.  They are
  // parse errors now, at any nesting depth.
  try {
    service::Json::parse(R"({"think":1,"think":2})");
    FAIL() << "duplicate key accepted";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate object key"),
              std::string::npos);
  }
  EXPECT_THROW(service::Json::parse(R"({"a":{"x":1,"x":2}})"),
               invalid_argument_error);
  EXPECT_THROW(service::Json::parse(R"([{"k":null,"k":null}])"),
               invalid_argument_error);
  // Same key at different depths is fine — only siblings collide.
  const auto v = service::Json::parse(R"({"a":{"a":1},"b":{"a":2}})");
  EXPECT_DOUBLE_EQ(v.at("b").at("a").as_number(), 2.0);
}

}  // namespace
}  // namespace mtperf
