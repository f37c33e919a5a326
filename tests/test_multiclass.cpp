// Tests for multi-class MVA (exact, Method of Moments, and Schweitzer).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/mva_multiclass.hpp"
#include "core/seidmann.hpp"
#include "core/network.hpp"
#include "core/solve.hpp"
#include "interp/cubic_spline.hpp"

namespace mtperf::core {
namespace {

ClosedNetwork two_station_net(double think = 0.0) {
  return make_network({"cpu", "disk"}, {1, 1}, think);
}

constexpr SolverKind kExact = SolverKind::kExactMulticlass;
constexpr SolverKind kMom = SolverKind::kMomMulticlass;
constexpr SolverKind kSchweitzer = SolverKind::kSchweitzerMulticlass;

SolveOptions multiclass_options(SolverKind kind,
                                std::vector<CustomerClass> classes) {
  SolveOptions options;
  options.solver = kind;
  options.classes = std::move(classes);
  finalize_multiclass_options(options);
  return options;
}

MvaResult solve_mix(SolverKind kind, const ClosedNetwork& net,
                    std::vector<CustomerClass> classes) {
  return solve(net, nullptr, multiclass_options(kind, std::move(classes)));
}

/// Single-class constant-demand solve, the reference for one-class mixes.
MvaResult solve_single(SolverKind kind, const ClosedNetwork& net,
                       std::vector<double> demands, unsigned n) {
  return solve(net, DemandModel::constant(std::move(demands)), {kind, n});
}

TEST(Multiclass, SingleClassMatchesExactMva) {
  const auto net = two_station_net(1.0);
  const std::vector<double> demands{0.05, 0.12};
  const std::vector<CustomerClass> classes{{"only", 15, 1.0, demands}};
  const auto mc = solve_mix(kExact, net, classes);
  const auto sc =
      solve_single(SolverKind::kExactSingleServer, net, demands, 15);
  const std::size_t top = mc.levels() - 1;
  EXPECT_NEAR(mc.class_x(top, 0), sc.throughput.back(), 1e-10);
  EXPECT_NEAR(mc.class_r(top, 0), sc.response_time.back(), 1e-10);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_NEAR(mc.queue(top, k), sc.queue(sc.levels() - 1, k), 1e-10);
  }
}

TEST(Multiclass, TwoIdenticalClassesEqualOneMergedClass) {
  const auto net = two_station_net(2.0);
  const std::vector<double> demands{0.03, 0.08};
  const std::vector<CustomerClass> split{{"a", 6, 2.0, demands},
                                         {"b", 9, 2.0, demands}};
  const auto mc = solve_mix(kExact, net, split);
  const auto merged =
      solve_single(SolverKind::kExactSingleServer, net, demands, 15);
  const std::size_t top = mc.levels() - 1;
  EXPECT_NEAR(mc.throughput[top], merged.throughput.back(), 1e-9);
  // Throughput shares proportional to populations (identical classes).
  EXPECT_NEAR(mc.class_x(top, 0) / mc.class_x(top, 1), 6.0 / 9.0, 1e-9);
}

TEST(Multiclass, LittlesLawPerClass) {
  const auto net = two_station_net(1.5);
  const std::vector<CustomerClass> classes{
      {"renew", 8, 1.5, {0.05, 0.15}},
      {"read", 12, 1.5, {0.02, 0.01}},
  };
  const auto r = solve_mix(kExact, net, classes);
  const std::size_t top = r.levels() - 1;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    EXPECT_NEAR(r.class_x(top, c) * (r.class_r(top, c) + classes[c].think_time),
                static_cast<double>(classes[c].population), 1e-9);
  }
}

TEST(Multiclass, CustomersConserved) {
  const auto net = two_station_net(1.0);
  const std::vector<CustomerClass> classes{
      {"a", 5, 1.0, {0.05, 0.15}},
      {"b", 7, 1.0, {0.02, 0.01}},
  };
  const auto r = solve_mix(kExact, net, classes);
  const std::size_t top = r.levels() - 1;
  double total = 0.0;
  for (std::size_t k = 0; k < 2; ++k) total += r.queue(top, k);
  for (std::size_t c = 0; c < 2; ++c) {
    total += r.class_x(top, c) * classes[c].think_time;
  }
  EXPECT_NEAR(total, 12.0, 1e-9);
}

TEST(Multiclass, UtilizationsSumClassContributions) {
  const auto net = two_station_net(1.0);
  const std::vector<CustomerClass> classes{
      {"a", 5, 1.0, {0.05, 0.15}},
      {"b", 7, 1.0, {0.02, 0.01}},
  };
  const auto r = solve_mix(kExact, net, classes);
  const std::size_t top = r.levels() - 1;
  for (std::size_t k = 0; k < 2; ++k) {
    const double expected = r.class_x(top, 0) * classes[0].demands[k] +
                            r.class_x(top, 1) * classes[1].demands[k];
    EXPECT_NEAR(r.utilization(top, k), expected, 1e-12);
    EXPECT_LE(r.utilization(top, k), 1.0 + 1e-9);
  }
}

TEST(Multiclass, ZeroPopulationClassContributesNothing) {
  const auto net = two_station_net(1.0);
  const std::vector<CustomerClass> classes{
      {"active", 10, 1.0, {0.05, 0.15}},
      {"idle", 0, 1.0, {0.5, 0.5}},
  };
  const auto r = solve_mix(kExact, net, classes);
  const std::size_t top = r.levels() - 1;
  EXPECT_DOUBLE_EQ(r.class_x(top, 1), 0.0);
  const auto single =
      solve_single(SolverKind::kExactSingleServer, net, {0.05, 0.15}, 10);
  EXPECT_NEAR(r.class_x(top, 0), single.throughput.back(), 1e-10);
}

TEST(Multiclass, DelayStationsSupported) {
  const ClosedNetwork net(
      {Station{"q", 1.0, 1, StationKind::kQueueing},
       Station{"lan", 1.0, 1, StationKind::kDelay}},
      1.0);
  const std::vector<CustomerClass> classes{{"a", 10, 1.0, {0.05, 0.2}}};
  const auto r = solve_mix(kExact, net, classes);
  const std::size_t top = r.levels() - 1;
  EXPECT_GT(r.class_x(top, 0), 0.0);
  // Delay residence is exactly the demand, independent of load.
  EXPECT_GE(r.class_r(top, 0), 0.2);
}

TEST(Multiclass, SchweitzerCloseToExact) {
  const auto net = two_station_net(1.0);
  const std::vector<CustomerClass> classes{
      {"a", 10, 1.0, {0.05, 0.15}},
      {"b", 20, 1.0, {0.02, 0.01}},
  };
  const auto exact = solve_mix(kExact, net, classes);
  const auto approx = solve_mix(kSchweitzer, net, classes);
  const std::size_t top = exact.levels() - 1;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    // Schweitzer's proportional estimate carries a few percent of error at
    // small per-class populations; 10% is the usual engineering envelope.
    EXPECT_NEAR(approx.class_x(top, c), exact.class_x(top, c),
                0.10 * exact.class_x(top, c))
        << "class " << c;
  }
}

TEST(Multiclass, SchweitzerLittlesLawHolds) {
  const auto net = two_station_net(0.5);
  const std::vector<CustomerClass> classes{
      {"a", 40, 0.5, {0.02, 0.05}},
      {"b", 60, 0.5, {0.01, 0.002}},
  };
  const auto r = solve_mix(kSchweitzer, net, classes);
  const std::size_t top = r.levels() - 1;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    EXPECT_NEAR(r.class_x(top, c) * (r.class_r(top, c) + classes[c].think_time),
                static_cast<double>(classes[c].population), 1e-6);
  }
}

TEST(Multiclass, SchweitzerHandlesLargeMixesExactCannot) {
  // 3 classes x 200 users each: the exact state space would be 201^3.
  const auto net = two_station_net(1.0);
  const std::vector<CustomerClass> classes{
      {"a", 200, 1.0, {0.004, 0.002}},
      {"b", 200, 1.0, {0.001, 0.006}},
      {"c", 200, 1.0, {0.002, 0.002}},
  };
  const auto r = solve_mix(kSchweitzer, net, classes);
  const std::size_t top = r.levels() - 1;
  EXPECT_GT(r.throughput[top], 0.0);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_LE(r.utilization(top, k), 1.0 + 1e-9);
  }
}


TEST(Multiclass, SeidmannTransformEnablesMultiServerMulticlass) {
  // The workflow examples/multiclass_workload_mix uses: fold multi-core
  // CPUs via the Seidmann transform, then run multi-class MVA.  With a
  // single class the result must approximate the exact multi-server
  // solution of the original network.
  const ClosedNetwork net(
      {Station{"cpu", 1.0, 8, StationKind::kQueueing},
       Station{"disk", 1.0, 1, StationKind::kQueueing}},
      1.0);
  const std::vector<double> demands{0.08, 0.012};
  const auto t = seidmann_transform(net, demands);
  const std::vector<CustomerClass> classes{
      {"only", 60, 1.0, t.service_times}};
  const auto mc = solve_mix(kExact, t.network, classes);
  const auto exact = solve_single(SolverKind::kMvasd, net, demands, 60);
  const double e = exact.throughput.back();
  EXPECT_NEAR(mc.class_x(mc.levels() - 1, 0), e, 0.15 * e);  // Seidmann
}

TEST(Multiclass, RejectsMultiServerStations) {
  const auto net = make_network({"cpu"}, {4}, 1.0);
  const std::vector<CustomerClass> classes{{"a", 5, 1.0, {0.1}}};
  EXPECT_THROW(solve_mix(kExact, net, classes), invalid_argument_error);
}

TEST(Multiclass, Validation) {
  const auto net = two_station_net(1.0);
  EXPECT_THROW(solve_mix(kExact, net, {}), invalid_argument_error);
  EXPECT_THROW(solve_mix(kExact, net, {{"a", 5, 1.0, {0.1}}}),
               invalid_argument_error);  // demand width
  EXPECT_THROW(solve_mix(kExact, net, {{"a", 5, -1.0, {0.1, 0.1}}}),
               invalid_argument_error);
  EXPECT_THROW(solve_mix(kExact, net, {{"a", 0, 1.0, {0.1, 0.1}}}),
               invalid_argument_error);  // all-zero population
}

TEST(Multiclass, ExactRejectsHugeStateSpace) {
  const auto net = two_station_net(1.0);
  const std::vector<CustomerClass> classes{
      {"a", 4000, 1.0, {0.001, 0.001}},
      {"b", 4000, 1.0, {0.001, 0.001}},
      {"c", 4000, 1.0, {0.001, 0.001}},
  };
  EXPECT_THROW(solve_mix(kExact, net, classes), invalid_argument_error);
}

TEST(Multiclass, StateSpaceOverflowIsRejectedNotWrapped) {
  // Regression: the mixed-radix stride product used to be computed with
  // unchecked std::size_t multiplies, so populations whose product wraps
  // 2^64 could sneak a tiny bogus total past the size guard and index the
  // Q table out of bounds.  Every one of these must throw the same
  // too-large error instead.
  const auto net = two_station_net(1.0);
  const unsigned huge = 4'000'000'000u;
  const std::vector<std::vector<CustomerClass>> hostile{
      // Product of radices overflows 64 bits outright.
      {{"a", huge, 1.0, {0.001, 0.001}},
       {"b", huge, 1.0, {0.001, 0.001}},
       {"c", huge, 1.0, {0.001, 0.001}}},
      // Two classes: product is ~2^63.8 — wraps to a small residue.
      {{"a", huge, 1.0, {0.001, 0.001}},
       {"b", huge, 1.0, {0.001, 0.001}}},
      // One huge class mixed with a normal one.
      {{"a", huge, 1.0, {0.001, 0.001}}, {"b", 10, 1.0, {0.001, 0.001}}},
  };
  for (const auto& classes : hostile) {
    try {
      solve_mix(kExact, net, classes);
      FAIL() << "overflowing population-vector space accepted";
    } catch (const invalid_argument_error& e) {
      EXPECT_NE(std::string(e.what()).find("too large"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("schweitzer-multiclass"),
                std::string::npos);
    }
  }
}

TEST(Multiclass, DemandDimensionMismatchNamesTheClass) {
  // Pin the validation message: a class whose demand vector does not match
  // the station count must be rejected by name before any solving starts.
  const auto net = two_station_net(1.0);
  try {
    solve_mix(kExact, net, {{"renew", 5, 1.0, {0.1, 0.2, 0.3}}});
    FAIL() << "mismatched demand width accepted";
  } catch (const invalid_argument_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("renew"), std::string::npos) << what;
    EXPECT_NE(what.find("one demand per station"), std::string::npos) << what;
  }
  EXPECT_THROW(solve_mix(kSchweitzer, net, {{"renew", 5, 1.0, {0.1}}}),
               invalid_argument_error);
}

// ------------------------------------------------------------------ facade

TEST(MulticlassFacade, SingleClassSpecIsBitIdenticalToMvasd) {
  // A one-class multiclass spec collapses to the single-class recursion:
  // same wait = d (1 + Q_{n-1}) arithmetic, and the aggregate rows are
  // copied (not recomputed as weighted means), so every level matches the
  // mvasd kind bit for bit.
  const auto net = two_station_net(1.0);
  const std::vector<double> demands{0.05, 0.12};
  const std::vector<CustomerClass> classes{{"only", 15, 1.0, demands}};
  const auto mc = solve(
      net, nullptr, multiclass_options(SolverKind::kExactMulticlass, classes));
  const auto sc = solve(net, DemandModel::constant(demands),
                        {SolverKind::kMvasd, 15});
  ASSERT_EQ(mc.levels(), sc.levels());
  for (std::size_t t = 0; t < sc.levels(); ++t) {
    EXPECT_EQ(mc.throughput[t], sc.throughput[t]) << "level " << t;
    EXPECT_EQ(mc.response_time[t], sc.response_time[t]) << "level " << t;
    EXPECT_EQ(mc.cycle_time[t], sc.cycle_time[t]) << "level " << t;
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_EQ(mc.queue(t, k), sc.queue(t, k));
      EXPECT_EQ(mc.utilization(t, k), sc.utilization(t, k));
      EXPECT_EQ(mc.residence(t, k), sc.residence(t, k));
    }
  }
}

TEST(MulticlassFacade, SingleVaryingClassIsBitIdenticalToMvasd) {
  // Per-class concurrency-varying demands: with one class the total
  // population IS the concurrency, so the spec must reproduce MVASD.
  const auto net = two_station_net(1.0);
  auto spline = std::make_shared<interp::PiecewiseCubic>(
      interp::build_cubic_spline(
          interp::SampleSet({1, 10, 20}, {0.10, 0.07, 0.05})));
  const auto model = DemandModel::interpolated({spline, spline});
  CustomerClass cls{"only", 20, 1.0, {}};
  cls.demand_model = std::make_shared<DemandModel>(model);
  const auto mc = solve(net, nullptr,
                        multiclass_options(SolverKind::kExactMulticlass, {cls}));
  const auto sd = solve(net, model, {SolverKind::kMvasd, 20});
  ASSERT_EQ(mc.levels(), sd.levels());
  for (std::size_t t = 0; t < sd.levels(); ++t) {
    EXPECT_EQ(mc.throughput[t], sd.throughput[t]) << "level " << t;
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_EQ(mc.queue(t, k), sd.queue(t, k));
      EXPECT_EQ(mc.utilization(t, k), sd.utilization(t, k));
    }
  }
}

TEST(MulticlassFacade, KindNamesRoundTrip) {
  for (const auto kind :
       {SolverKind::kExactMulticlass, SolverKind::kMomMulticlass,
        SolverKind::kSchweitzerMulticlass}) {
    EXPECT_TRUE(is_multiclass(kind));
    EXPECT_EQ(parse_solver_kind(solver_kind_name(kind)), kind);
  }
  EXPECT_FALSE(is_multiclass(SolverKind::kMvasd));
}

TEST(MulticlassFacade, ClassesAndKindMustAgree) {
  const auto net = two_station_net(1.0);
  const auto demands = DemandModel::constant({0.05, 0.12});
  // Multiclass kind without classes.
  SolveOptions bare{SolverKind::kExactMulticlass, 5};
  EXPECT_THROW(solve(net, demands, bare), invalid_argument_error);
  // Single-class kind with classes.
  SolveOptions mixed{SolverKind::kMvasd, 5};
  mixed.classes = {{"a", 5, 1.0, {0.05, 0.12}}};
  EXPECT_THROW(solve(net, demands, mixed), invalid_argument_error);
  // Multiclass kind with a stale axis depth (invariant violated).
  SolveOptions stale{SolverKind::kExactMulticlass, 3};
  stale.classes = {{"a", 5, 1.0, {0.05, 0.12}}};
  EXPECT_THROW(solve(net, nullptr, stale), invalid_argument_error);
}

TEST(MulticlassFacade, DuplicateClassNamesRejected) {
  const auto net = two_station_net(1.0);
  try {
    solve_mix(kExact, net, {{"renew", 5, 1.0, {0.05, 0.12}},
                            {"renew", 3, 1.0, {0.02, 0.01}}});
    FAIL() << "duplicate class name accepted";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("renew"), std::string::npos);
  }
}

// ---------------------------------------------------------------- series

TEST(MulticlassSeries, PrefixEqualsShallowerMix) {
  // Level t of the axis series is a full solve of the mix with the axis
  // class at population t — the property the scenario cache's mix-prefix
  // reuse rests on.  Both sides must be bit-identical.
  const auto net = two_station_net(1.0);
  const std::vector<CustomerClass> deep{{"a", 4, 1.0, {0.05, 0.15}},
                                        {"b", 6, 1.0, {0.02, 0.01}}};
  const std::vector<CustomerClass> shallow{{"a", 4, 1.0, {0.05, 0.15}},
                                           {"b", 3, 1.0, {0.02, 0.01}}};
  const auto full = solve_mix(kExact, net, deep);
  ASSERT_EQ(full.levels(), 6u);
  EXPECT_EQ(full.mc_axis, 1u);
  const auto trimmed = full.prefix(3);
  const auto direct = solve_mix(kExact, net, shallow);
  ASSERT_EQ(trimmed.levels(), direct.levels());
  EXPECT_EQ(trimmed.class_population, direct.class_population);
  EXPECT_EQ(trimmed.throughput, direct.throughput);
  EXPECT_EQ(trimmed.response_time, direct.response_time);
  EXPECT_EQ(trimmed.cycle_time, direct.cycle_time);
  EXPECT_EQ(trimmed.station_queue, direct.station_queue);
  EXPECT_EQ(trimmed.station_utilization, direct.station_utilization);
  EXPECT_EQ(trimmed.class_throughput, direct.class_throughput);
  EXPECT_EQ(trimmed.class_response_time, direct.class_response_time);
  EXPECT_EQ(trimmed.class_station_queue, direct.class_station_queue);
}

TEST(MulticlassSeries, GridDeepeningIsBitIdentical) {
  const auto net = two_station_net(1.0);
  auto spline = std::make_shared<interp::PiecewiseCubic>(
      interp::build_cubic_spline(
          interp::SampleSet({1, 8, 16}, {0.10, 0.08, 0.05})));
  CustomerClass varying{"v", 6, 1.0, {}};
  varying.demand_model =
      std::make_shared<DemandModel>(DemandModel::interpolated({spline, spline}));
  const std::vector<CustomerClass> classes{{"c", 4, 1.0, {0.02, 0.03}},
                                           varying};
  const MulticlassGrid shallow(net, classes, 5);
  const MulticlassGrid deepened(net, classes, 10, &shallow);
  const MulticlassGrid direct(net, classes, 10);
  EXPECT_TRUE(deepened.varying());
  for (std::size_t c = 0; c < 2; ++c) {
    for (unsigned n = 1; n <= 10; ++n) {
      for (std::size_t k = 0; k < 2; ++k) {
        EXPECT_EQ(deepened.row(c, n)[k], direct.row(c, n)[k])
            << "class " << c << " n " << n << " station " << k;
      }
    }
  }
  // A pre-built grid drives the solver to the same result as local
  // tabulation.
  const auto options = multiclass_options(kExact, classes);
  const auto with_grid = solve(net, nullptr, options, nullptr, &direct);
  const auto without = solve(net, nullptr, options);
  EXPECT_EQ(with_grid.throughput, without.throughput);
  EXPECT_EQ(with_grid.class_throughput, without.class_throughput);
}

TEST(MulticlassSeries, VaryingDemandsReadTotalPopulation) {
  // Two classes whose model demands fall with total concurrency: the mix's
  // demands at the top level must be the model value at the *total*
  // population, not the per-class one.
  const auto net = two_station_net(0.0);
  auto flat = std::make_shared<interp::PiecewiseCubic>(
      interp::build_cubic_spline(interp::SampleSet({1, 12}, {0.10, 0.10})));
  auto falling = std::make_shared<interp::PiecewiseCubic>(
      interp::build_cubic_spline(interp::SampleSet({1, 12}, {0.10, 0.021})));
  CustomerClass a{"a", 4, 0.0, {}};
  a.demand_model = std::make_shared<DemandModel>(
      DemandModel::interpolated({flat, falling}));
  const std::vector<CustomerClass> classes{a, {"b", 8, 0.0, {0.05, 0.05}}};
  const auto r = solve_mix(kExact, net, classes);
  // At the full mix the total population is 12, where the falling spline
  // reads 0.021; a per-class read (n=4) would sit near 0.08.  Utilization
  // U_1 = X_a d_a1(12) + X_b 0.05 pins which one the solver used.
  const std::size_t top = r.levels() - 1;
  const double xa = r.class_x(top, 0);
  const double xb = r.class_x(top, 1);
  EXPECT_NEAR(r.utilization(top, 1), xa * 0.021 + xb * 0.05, 1e-12);
}

// -------------------------------------------------------- method of moments

TEST(MulticlassMom, MatchesExactOnSmallMixes) {
  const auto net = two_station_net(1.5);
  const std::vector<std::vector<CustomerClass>> mixes{
      {{"renew", 8, 1.5, {0.05, 0.15}}, {"read", 12, 1.5, {0.02, 0.01}}},
      {{"a", 5, 0.5, {0.03, 0.02}},
       {"b", 7, 2.0, {0.01, 0.04}},
       {"c", 4, 1.0, {0.02, 0.02}}},
      {{"solo", 15, 1.0, {0.05, 0.12}}},
  };
  for (const auto& classes : mixes) {
    const auto exact = solve_mix(kExact, net, classes);
    const std::size_t top = exact.levels() - 1;
    const auto mom = solve_mix(kMom, net, classes);
    ASSERT_EQ(mom.levels(), 1u);
    EXPECT_EQ(mom.mc_axis, MvaResult::kNoAxis);
    for (std::size_t c = 0; c < classes.size(); ++c) {
      EXPECT_NEAR(mom.class_x(0, c), exact.class_x(top, c), 1e-9)
          << "class " << c;
      EXPECT_NEAR(mom.class_r(0, c), exact.class_r(top, c), 1e-9)
          << "class " << c;
      for (std::size_t k = 0; k < 2; ++k) {
        EXPECT_NEAR(mom.class_queue(0, c, k), exact.class_queue(top, c, k),
                    1e-9);
      }
    }
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_NEAR(mom.queue(0, k), exact.queue(top, k), 1e-9);
      EXPECT_NEAR(mom.utilization(0, k), exact.utilization(top, k), 1e-9);
    }
  }
}

TEST(MulticlassMom, DelayStationsFoldIntoThinkTime) {
  const ClosedNetwork net(
      {Station{"q", 1.0, 1, StationKind::kQueueing},
       Station{"lan", 1.0, 1, StationKind::kDelay}},
      1.0);
  const std::vector<CustomerClass> classes{{"a", 10, 1.0, {0.05, 0.2}},
                                           {"b", 6, 0.5, {0.02, 0.4}}};
  const auto exact = solve_mix(kExact, net, classes);
  const std::size_t top = exact.levels() - 1;
  const auto mom = solve_mix(kMom, net, classes);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_NEAR(mom.class_x(0, c), exact.class_x(top, c), 1e-9);
    EXPECT_NEAR(mom.class_r(0, c), exact.class_r(top, c), 1e-9);
  }
}

TEST(MulticlassMom, DelayOnlyNetworkIsClosedForm) {
  const ClosedNetwork net({Station{"lan", 1.0, 1, StationKind::kDelay}}, 2.0);
  const std::vector<CustomerClass> classes{{"a", 10, 2.0, {0.5}}};
  const auto r = solve_mix(kMom, net, classes);
  EXPECT_NEAR(r.class_x(0, 0), 10.0 / 2.5, 1e-12);
}

TEST(MulticlassMom, SolvesMixesBeyondTheExactGuard) {
  // The acceptance fixture: 3 classes x 512 on two stations.  The exact
  // lattice would need 513^3 * 2 > 2^28 doubles — rejected — while the
  // moment recursion is polynomial in the total population and finishes.
  const auto net = two_station_net(2.0);
  const std::vector<CustomerClass> classes{
      {"renew", 512, 2.0, {0.0020, 0.0010}},
      {"read", 512, 2.0, {0.0005, 0.0015}},
      {"browse", 512, 2.0, {0.0010, 0.0005}},
  };
  try {
    solve_mix(kExact, net, classes);
    FAIL() << "exact recursion accepted an infeasible mix";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find("too large"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("schweitzer-multiclass"),
              std::string::npos);
  }
  const auto r = solve(
      net, nullptr, multiclass_options(SolverKind::kMomMulticlass, classes));
  ASSERT_EQ(r.levels(), 1u);
  EXPECT_EQ(r.population[0], 1536u);
  double queued = 0.0;
  for (std::size_t c = 0; c < 3; ++c) {
    // Little's law per class, on an exact solver, at mild load.
    EXPECT_NEAR(r.class_x(0, c) * (r.class_r(0, c) + 2.0), 512.0, 1e-6)
        << "class " << c;
  }
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_LE(r.utilization(0, k), 1.0 + 1e-9);
    queued += r.queue(0, k);
  }
  double thinking = 0.0;
  for (std::size_t c = 0; c < 3; ++c) thinking += r.class_x(0, c) * 2.0;
  EXPECT_NEAR(queued + thinking, 1536.0, 1e-5);
  // Schweitzer lands in the same neighborhood (sanity against a second,
  // independent solver).
  const auto approx = solve_mix(kSchweitzer, net, classes);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(approx.class_x(approx.levels() - 1, c), r.class_x(0, c),
                0.10 * r.class_x(0, c));
  }
}

TEST(MulticlassMom, RequiresConstantDemands) {
  const auto net = two_station_net(1.0);
  auto spline = std::make_shared<interp::PiecewiseCubic>(
      interp::build_cubic_spline(interp::SampleSet({1, 10}, {0.1, 0.05})));
  CustomerClass cls{"vary", 5, 1.0, {}};
  cls.demand_model = std::make_shared<DemandModel>(
      DemandModel::interpolated({spline, spline}));
  try {
    solve_mix(kMom, net, {cls});
    FAIL() << "varying demands accepted by the moment recursion";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find("constant demands"),
              std::string::npos);
  }
}

TEST(MulticlassMom, GuardSuggestsSchweitzer) {
  const auto net = two_station_net(1.0);
  const std::vector<CustomerClass> classes{
      {"a", 4000000, 1.0, {0.0001, 0.0001}},
      {"b", 4000000, 1.0, {0.0001, 0.0001}},
  };
  try {
    solve_mix(kMom, net, classes);
    FAIL() << "infeasible moment space accepted";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find("too large"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("schweitzer-multiclass"),
              std::string::npos);
  }
}

TEST(MulticlassMom, WrappedTotalPopulationIsRejected) {
  // Regression: populations summing past 2^32 - 1 wrapped the engine's
  // unsigned total (here to 5 customers), so it sized the moment lattice
  // for 5 while its runs added every customer and wrote past the buffers.
  const auto net = two_station_net(1.0);
  try {
    solve_mix(kMom, net,
              {{"a", 4'294'967'295u, 1.0, {0.01, 0.02}},
               {"b", 6, 1.0, {0.02, 0.01}}});
    FAIL() << "wrapped total population accepted";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find("too large"), std::string::npos)
        << e.what();
  }
}

/// Populations 4294967295 and 6 (the small class with a cubic-spline
/// demand model), whose 32-bit total wraps to 5.
std::vector<CustomerClass> wrapping_mix() {
  auto spline = std::make_shared<interp::PiecewiseCubic>(
      interp::build_cubic_spline(
          interp::SampleSet({1, 10, 20}, {0.02, 0.015, 0.01})));
  CustomerClass small{"small", 6, 1.0, {}};
  small.demand_model = std::make_shared<DemandModel>(
      DemandModel::interpolated({spline, spline}));
  return {{"big", 4'294'967'295u, 1.0, {0.01, 0.02}}, small};
}

void expect_wrapped_total_rejected(SolverKind kind) {
  try {
    solve_mix(kind, two_station_net(1.0), wrapping_mix());
    FAIL() << "wrapped total population accepted";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find("too large"), std::string::npos)
        << e.what();
  }
}

TEST(MulticlassSchweitzer, WrappedTotalPopulationIsRejected) {
  // Regression: the series kinds summed class populations in 32 bits, so
  // this mix's total wrapped to 5 and Schweitzer read the spline class's
  // demand row for total population 0 (row 2^32 - 1, far out of bounds).
  expect_wrapped_total_rejected(kSchweitzer);
}

TEST(MulticlassSeries, ExactWrappedTotalPopulationIsRejected) {
  expect_wrapped_total_rejected(kExact);
}

TEST(MulticlassMom, WideShallowMixMatchesExact) {
  // Two 1-customer classes over 1,000 and 3,000 single-server stations: a
  // tiny mix whose moment lattice is wide and shallow.  It must cost about
  // M multiply-adds per moment; a step that recomputes every neighbour's
  // lattice index pays O(M^2) per moment and holds a solver thread for
  // minutes at M = 3,000.
  for (const std::size_t m : {std::size_t{1000}, std::size_t{3000}}) {
    SCOPED_TRACE(m);
    std::vector<std::string> names;
    std::vector<double> a;
    std::vector<double> b;
    for (std::size_t k = 0; k < m; ++k) {
      names.push_back("s" + std::to_string(k));
      a.push_back(0.0003 + 0.0001 * static_cast<double>(k % 4));
      b.push_back(0.0002 + 0.0001 * static_cast<double>(k % 3));
    }
    const auto net = make_network(names, std::vector<unsigned>(m, 1), 1.0);
    const std::vector<CustomerClass> classes{{"a", 1, 1.0, a},
                                             {"b", 1, 1.0, b}};
    const auto exact = solve_mix(kExact, net, classes);
    const std::size_t top = exact.levels() - 1;
    const auto mom = solve_mix(kMom, net, classes);
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(mom.class_x(0, c), exact.class_x(top, c), 1e-9);
      EXPECT_NEAR(mom.class_r(0, c), exact.class_r(top, c), 1e-9);
    }
    for (std::size_t k = 0; k < m; ++k) {
      EXPECT_NEAR(mom.queue(0, k), exact.queue(top, k), 1e-9)
          << "station " << k;
    }
  }
}

// ------------------------------------------------------- MoM golden bits
//
// Every number mom-multiclass reports for a fixed set of mixes, pinned bit
// for bit: per-class X and R, every class-station queue, and every
// station's queue and utilization.  The mixes cover one to six queueing
// stations, with and without delay stations, zero demands, an idle class,
// a deep two-class mix whose levels get rescaled, and the cold-serving
// benchmark's three-class mix shape.  The literals were captured from the
// default build (Release, GCC 12.2, x86-64); the engine compiles with
// -ffp-contract=off, so a rewrite of its recursion that keeps the
// arithmetic and its order keeps these bits.

struct MomMix {
  ClosedNetwork network;
  std::vector<CustomerClass> classes;
};

struct MomGolden {
  std::vector<double> class_x;      ///< per class
  std::vector<double> class_r;      ///< per class
  std::vector<double> class_queue;  ///< [c * K + k]
  std::vector<double> queue;        ///< per station
  std::vector<double> utilization;  ///< per station
};

void expect_mom_golden(const MomMix& mix, const MomGolden& g) {
  const auto r = solve_mix(kMom, mix.network, mix.classes);
  ASSERT_EQ(r.levels(), 1u);
  const std::size_t c_count = mix.classes.size();
  const std::size_t k_count = mix.network.size();
  ASSERT_EQ(g.class_x.size(), c_count);
  ASSERT_EQ(g.class_r.size(), c_count);
  ASSERT_EQ(g.class_queue.size(), c_count * k_count);
  ASSERT_EQ(g.queue.size(), k_count);
  ASSERT_EQ(g.utilization.size(), k_count);
  for (std::size_t c = 0; c < c_count; ++c) {
    SCOPED_TRACE(mix.classes[c].name);
    EXPECT_EQ(r.class_x(0, c), g.class_x[c]);
    EXPECT_EQ(r.class_r(0, c), g.class_r[c]);
    for (std::size_t k = 0; k < k_count; ++k) {
      EXPECT_EQ(r.class_queue(0, c, k), g.class_queue[c * k_count + k])
          << "station " << k;
    }
  }
  for (std::size_t k = 0; k < k_count; ++k) {
    EXPECT_EQ(r.queue(0, k), g.queue[k]) << "station " << k;
    EXPECT_EQ(r.utilization(0, k), g.utilization[k]) << "station " << k;
  }
}

ClosedNetwork queues_and_delays(std::size_t queues, std::size_t delays) {
  std::vector<Station> stations;
  for (std::size_t k = 0; k < queues; ++k) {
    stations.push_back(
        {"q" + std::to_string(k), 1.0, 1, StationKind::kQueueing});
  }
  for (std::size_t k = 0; k < delays; ++k) {
    stations.push_back({"z" + std::to_string(k), 1.0, 1, StationKind::kDelay});
  }
  return ClosedNetwork(std::move(stations), 1.0);
}

/// The cold-serving benchmark's mom-multiclass shape without its demand
/// jitter: browse, search and buy at 5, 4 and 6 customers on four
/// single-server stations.
MomMix cold_corpus_mix() {
  constexpr double kBase[] = {0.006, 0.010, 0.008, 0.012};
  constexpr double kScale[] = {0.8, 1.2, 1.6};
  const char* names[] = {"browse", "search", "buy"};
  const unsigned pops[] = {5, 4, 6};
  const double thinks[] = {2.0, 3.0, 1.0};
  MomMix mix{make_network({"web/cpu", "app/cpu", "db/cpu", "db/disk"},
                          {1, 1, 1, 1}, 0.0),
             {}};
  for (std::size_t c = 0; c < 3; ++c) {
    std::vector<double> demands;
    for (const double base : kBase) demands.push_back(base * kScale[c]);
    mix.classes.push_back({names[c], pops[c], thinks[c], demands});
  }
  return mix;
}

TEST(MulticlassMom, GoldenOneQueueAndDelay) {
  expect_mom_golden(
      {queues_and_delays(1, 1),
       {{"a", 7, 1.0, {0.05, 0.2}}, {"b", 5, 0.5, {0.08, 0.1}}}},
      {{0x1.4ea58ef1bc4c9p+2, 0x1.8fda80277eb08p+2},
       {0x1.5adac9fcebcep-2, 0x1.338006e2ee327p-2},
       {0x1.73643d55bd20bp-1, 0x1.0bb7a58e303d4p+0,
        0x1.4059ffa136586p+0, 0x1.3fe2001f988d4p-1},
       {0x1.fa0c1e4c14e8cp+0, 0x1.aba8a59dfc83ep+0},
       {0x1.85c3d2e05ef6p-1, 0x1.aba8a59dfc83ep+0}});
}

TEST(MulticlassMom, GoldenTwoQueuesWithIdleClass) {
  expect_mom_golden(
      {two_station_net(1.0),
       {{"a", 9, 1.0, {0.03, 0.07}},
        {"idle", 0, 1.0, {0.5, 0.5}},
        {"b", 6, 2.0, {0.06, 0.02}}}},
      {{0x1.e633fb004d598p+2, 0x0p+0, 0x1.67914d36480e5p+1},
       {0x1.7a3ede9b77eeep-3, 0x0p+0, 0x1.16522699f675ap-3},
       {0x1.6cf77fa08811p-2, 0x1.0bf23416a895cp+0, 0x0p+0, 0x0p+0,
        0x1.0c314c066f31ep-2, 0x1.eae782543fa33p-4},
       {0x1.3c9465d37ba17p-1, 0x1.2aa0ac3bec8ffp+0},
       {0x1.95f84b9f51f46p-2, 0x1.2d0a0360abf5ep-1}});
}

TEST(MulticlassMom, GoldenTwoQueuesDeepMix) {
  expect_mom_golden(
      {two_station_net(1.0),
       {{"a", 60, 1.0, {0.012, 0.009}}, {"b", 45, 0.5, {0.004, 0.015}}}},
      {{0x1.57ef690fbf7c6p+5, 0x1.46f8d7fa5fd29p+5},
       {0x1.951b3ebdd3956p-2, 0x1.33b7c951e561bp-1},
       {0x1.8db77cf4d60fap+0, 0x1.ee8b6c22674c7p+3,
        0x1.027e452abd7adp-1, 0x1.80f335dc4a417p+4},
       {0x1.077b4fc51a668p+1, 0x1.3c1c75f6bef3dp+5},
       {0x1.5bd8d9e5ca4fcp-1, 0x1.fffff5538acc2p-1}});
}

TEST(MulticlassMom, GoldenThreeQueuesZeroDemand) {
  expect_mom_golden(
      {queues_and_delays(3, 1),
       {{"read", 8, 1.0, {0.02, 0.0, 0.05, 0.01}},
        {"write", 4, 1.5, {0.01, 0.04, 0.03, 0.0}}}},
      {{0x1.cc14d63e63cfap+2, 0x1.3f1d1a4be7e43p+1},
       {0x1.ce3833b106c44p-4, 0x1.abcd5cd4b27bep-4},
       {0x1.59e3839e76637p-3, 0x0p+0, 0x1.2411f59b27734p-1,
        0x1.2673bc50e3b81p-4, 0x1.e627b97b5736ap-6, 0x1.b8a1ef5d10979p-4,
        0x1.f85f34089ed2dp-4, 0x0p+0},
       {0x1.96a87acde14a4p-3, 0x1.b8a1ef5d10979p-4, 0x1.631ddc1c3b4dap-1,
        0x1.2673bc50e3b81p-4},
       {0x1.5982a1cdaca96p-3, 0x1.98772be6478a8p-4, 0x1.bca703a04a102p-2,
        0x1.2673bc50e3b81p-4}});
}

TEST(MulticlassMom, GoldenColdCorpusMix) {
  expect_mom_golden(
      cold_corpus_mix(),
      {{0x1.3adfb6bd1e6f3p+1, 0x1.4fdd8fb8a8ff2p+0, 0x1.68c7c771af22p+2},
       {0x1.0abae243fb77fp-5, 0x1.90185365f934p-5, 0x1.079dbbaa4ead3p-4},
       {0x1.a1250b0523535p-7, 0x1.6e6f5c9adae7dp-6, 0x1.1d727c1b3e123p-6,
        0x1.c3d4e4a8e62d9p-6, 0x1.4db73c041c42ap-7, 0x1.2525e3af15866p-6,
        0x1.c8b72cf863503p-7, 0x1.69771d53eb57ep-6, 0x1.da9d15c0d933fp-5,
        0x1.9ec4bd2b759a6p-4, 0x1.43f3673e5c48dp-4, 0x1.fe077449f901fp-4},
       {0x1.4b2a13c1948ccp-4, 0x1.21d5069ef8dbp-3, 0x1.c466ebe438376p-4,
        0x1.64ad3a6496b1ap-3},
       {0x1.34b844dc1c869p-4, 0x1.0144396217c58p-3, 0x1.9ba05bd02608bp-4,
        0x1.34b844dc1c869p-3}});
}

TEST(MulticlassMom, GoldenSixQueuesTwoDelays) {
  expect_mom_golden(
      {queues_and_delays(6, 2),
       {{"a", 3, 1.0, {0.01, 0.02, 0.0, 0.03, 0.015, 0.005, 0.1, 0.02}},
        {"b", 2, 0.5, {0.02, 0.01, 0.01, 0.0, 0.025, 0.01, 0.0, 0.05}},
        {"c", 4, 2.0, {0.005, 0.03, 0.02, 0.01, 0.0, 0.02, 0.2, 0.0}}}},
      {{0x1.3df250d1fe1ffp+1, 0x1.95c379dbbccfbp+1, 0x1.be89fb13f3ff1p+0},
       {0x1.a978ee11ef7f5p-3, 0x1.0c1a27d66b21cp-3, 0x1.2c3abd1f185dap-2},
       {0x1.bd8a3a9eeabb4p-6, 0x1.cc0b838d7a1a6p-5, 0x0p+0,
        0x1.46bf6bd9e53f4p-4, 0x1.5366cbb03a722p-5, 0x1.b784bc1d004cep-7,
        0x1.fcb6e7b663665p-3, 0x1.96f8b95eb5eb7p-5, 0x1.157e92cee239dp-4,
        0x1.25cbe5dec40d9p-5, 0x1.116d45de02cc7p-5, 0x0p+0,
        0x1.5eefce8140cf1p-4, 0x1.15095038fceb7p-5, 0x0p+0,
        0x1.449c617c970c9p-3, 0x1.3aed630190b3ep-7, 0x1.e667a442a5585p-5,
        0x1.2f1b1a3bf6015p-5, 0x1.388f4999e30d8p-6, 0x0p+0,
        0x1.332204ddc2681p-5, 0x1.653b2f432998ep-2, 0x0p+0},
       {0x1.ac3ecdd6ceff2p-4, 0x1.360fc36bb8e01p-3, 0x1.2044300cfc66ep-4,
        0x1.94e33e405e02ap-4, 0x1.04519a2caf041p-3, 0x1.5b06420effb36p-4,
        0x1.31cb518f2da6p-1, 0x1.aa5a8fd444877p-3},
       {0x1.8d279aa877476p-4, 0x1.11d59cd18b5e6p-3, 0x1.10bca04cb3756p-4,
        0x1.78acc7ae10c25p-4, 0x1.dd39a7001b44ep-4, 0x1.439bb7788a32cp-4,
        0x1.31cb518f2da6p-1, 0x1.aa5a8fd444877p-3}});
}

// ------------------------------------------------------------- schweitzer

TEST(MulticlassSchweitzer, ZeroPopulationMixThrowsLikeExact) {
  // Seed-era inconsistency: the exact solver rejected all-zero mixes while
  // Schweitzer silently returned zeros.  Both go through the shared
  // validation now.
  const auto net = two_station_net(1.0);
  const std::vector<CustomerClass> classes{{"a", 0, 1.0, {0.1, 0.1}}};
  EXPECT_THROW(solve_mix(kExact, net, classes), invalid_argument_error);
  EXPECT_THROW(solve_mix(kSchweitzer, net, classes),
               invalid_argument_error);
}

TEST(MulticlassSchweitzer, NonConvergenceNamesTheAxisLevel) {
  const auto net = two_station_net(1.0);
  auto options = multiclass_options(
      SolverKind::kSchweitzerMulticlass,
      {{"a", 10, 1.0, {0.05, 0.15}}, {"b", 20, 1.0, {0.02, 0.01}}});
  options.schweitzer.tolerance = 1e-14;
  options.schweitzer.max_iterations = 1;
  try {
    solve(net, nullptr, options);
    FAIL() << "one iteration cannot satisfy a 1e-14 tolerance";
  } catch (const numeric_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("mtperf: ", 0), 0u) << what;
    EXPECT_NE(what.find("did not converge"), std::string::npos) << what;
    EXPECT_NE(what.find("axis population"), std::string::npos) << what;
  }
}

TEST(MulticlassSchweitzer, ReportsIterationsThroughFacadeAndWrapper) {
  const auto net = two_station_net(1.0);
  const std::vector<CustomerClass> classes{
      {"a", 10, 1.0, {0.05, 0.15}},
      {"b", 20, 1.0, {0.02, 0.01}},
  };
  auto options = multiclass_options(SolverKind::kSchweitzerMulticlass, classes);
  options.schweitzer.max_iterations = 20000;
  const auto r = solve(net, nullptr, options);
  EXPECT_GT(r.mc_iterations, 0u);
}

}  // namespace
}  // namespace mtperf::core
