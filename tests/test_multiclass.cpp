// Tests for multi-class MVA (exact, Method of Moments, and Schweitzer).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/detail/batch_engine.hpp"
#include "core/mva_multiclass.hpp"
#include "core/seidmann.hpp"
#include "core/network.hpp"
#include "core/solve.hpp"
#include "core/sweep.hpp"
#include "golden_rows.hpp"
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

TEST(MulticlassFacade, SingleClassSchweitzerIsBitIdenticalToSchweitzer) {
  // One class through schweitzer-multiclass runs the single-class fixed
  // point's arithmetic (the (n - 1)/n discount, the even-spread start, the
  // max-delta stopping test) and copies its aggregates, so every level
  // matches the scalar schweitzer kind bit for bit in both row kinds.
  struct Fixture {
    ClosedNetwork network;
    std::vector<double> demands;
  };
  const std::vector<Fixture> fixtures = {
      {ClosedNetwork({Station{"cpu", 1.0, 1, StationKind::kQueueing},
                      Station{"disk", 1.0, 1, StationKind::kQueueing},
                      Station{"lan", 1.0, 1, StationKind::kDelay}},
                     1.0),
       {0.05, 0.12, 0.3}},
      {ClosedNetwork({Station{"web", 1.0, 1, StationKind::kQueueing},
                      Station{"wan", 1.0, 1, StationKind::kDelay},
                      Station{"db", 1.0, 1, StationKind::kQueueing},
                      Station{"cache", 1.0, 1, StationKind::kQueueing}},
                     0.0),
       {0.02, 0.4, 0.035, 0.0}}};
  for (const Fixture& f : fixtures) {
    for (const StationRows rows :
         {StationRows::kAll, StationRows::kUtilization}) {
      SolveOptions mc_options = multiclass_options(
          kSchweitzer,
          {{"only", 25, f.network.think_time(), f.demands}});
      mc_options.station_rows = rows;
      SolveOptions sc_options{SolverKind::kSchweitzer, 25};
      sc_options.station_rows = rows;
      const auto mc = solve(f.network, nullptr, mc_options);
      const auto sc =
          solve(f.network, DemandModel::constant(f.demands), sc_options);
      EXPECT_EQ(mc.throughput, sc.throughput);
      EXPECT_EQ(mc.response_time, sc.response_time);
      EXPECT_EQ(mc.cycle_time, sc.cycle_time);
      EXPECT_EQ(mc.station_queue, sc.station_queue);
      EXPECT_EQ(mc.station_utilization, sc.station_utilization);
      EXPECT_EQ(mc.station_residence, sc.station_residence);
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

// ------------------------------------------------- series kinds' golden bits
//
// Every number exact-multiclass and schweitzer-multiclass report at the
// first, a middle and the top axis level of a fixed set of mixes, pinned
// bit for bit (golden_rows.hpp): X, R, Z, every station's Q, U and
// residence, every class's X and R, every class-station queue, and the
// Schweitzer kind's iteration count.  core::solve, a one-lane solve_batch
// block and one lane of a ragged 12-lane block must all give the same
// literals.  The mixes cover delay stations, a class whose spline demands
// are read at the total population, an idle class, one to six classes (the
// Schweitzer kernel's fused paths for 1-4 classes and its fallback past
// 4), and the cold-serving benchmark's fleet-mix shape without its jitter.
// The literals were captured from the default build (Release, GCC 12.2,
// x86-64); the kernels compile with -ffp-contract=off, so a rewrite that
// keeps the arithmetic and its order keeps these bits.

/// A series mix at demand scale `scale` with the axis class at `depth`.
using SeriesMixAt = std::function<ScenarioSpec(double scale, unsigned depth)>;

ScenarioSpec series_spec(ClosedNetwork network,
                         std::vector<CustomerClass> classes) {
  ScenarioSpec spec;
  spec.label = "golden";
  spec.network = std::move(network);
  spec.options.classes = std::move(classes);
  return spec;
}

/// Demands falling with the mix's total population: `base` at 1 customer,
/// 0.9 base at 10 and 0.8 base at 40.
std::shared_ptr<const DemandModel> falling_demands(
    const std::vector<double>& base) {
  std::vector<std::shared_ptr<const interp::Interpolator1D>> fns;
  for (const double b : base) {
    fns.push_back(std::make_shared<interp::PiecewiseCubic>(
        interp::build_cubic_spline(
            interp::SampleSet({1, 10, 40}, {b, 0.9 * b, 0.8 * b}))));
  }
  return std::make_shared<DemandModel>(DemandModel::interpolated(fns));
}

std::vector<double> scaled(std::vector<double> demands, double scale) {
  for (double& d : demands) d *= scale;
  return demands;
}

/// Three queues and a delay; browse (constant), search (spline demands)
/// and buy (the axis class).
ScenarioSpec spline_mix(double scale, unsigned depth) {
  CustomerClass search{"search", 3, 2.0, {}};
  search.demand_model =
      falling_demands(scaled({0.016, 0.009, 0.004, 0.080}, scale));
  return series_spec(queues_and_delays(3, 1),
                     {{"browse", 4, 1.0, scaled({0.010, 0.024, 0.006, 0.150},
                                                scale)},
                      search,
                      {"buy", depth, 0.5,
                       scaled({0.007, 0.031, 0.005, 0.400}, scale)}});
}

/// Two queues and a delay with an idle middle class.
ScenarioSpec idle_class_mix(double scale, unsigned depth) {
  return series_spec(queues_and_delays(2, 1),
                     {{"a", 5, 1.0, scaled({0.04, 0.02, 0.3}, scale)},
                      {"idle", 0, 1.0, {0.5, 0.5, 0.5}},
                      {"b", depth, 2.0, scaled({0.01, 0.06, 0.1}, scale)}});
}

/// `count` classes of 1-3 customers over two queues and a delay, the last
/// the axis class.
ScenarioSpec many_class_mix(std::size_t count, double scale, unsigned depth) {
  std::vector<CustomerClass> classes;
  for (std::size_t c = 0; c < count; ++c) {
    const double f = 1.0 + 0.25 * static_cast<double>(c);
    classes.push_back(
        {"c" + std::to_string(c),
         c + 1 == count ? depth : static_cast<unsigned>(1 + c % 3),
         0.5 * f,
         scaled({0.012 * f, 0.030 / f, 0.05 * static_cast<double>(c % 2)},
                scale)});
  }
  return series_spec(queues_and_delays(2, 1), std::move(classes));
}

/// One class over three queues and a delay.
ScenarioSpec one_class_mix(double scale, unsigned depth) {
  return series_spec(queues_and_delays(3, 1),
                     {{"only", depth, 1.0,
                       scaled({0.02, 0.05, 0.01, 0.2}, scale)}});
}

/// The cold-serving benchmark's schweitzer-multiclass shape without its
/// demand jitter: browse, search and buy at 20, 12 and 120 customers on a
/// 12-station fleet whose three 16-core CPUs are Seidmann-split into a
/// queue (D / 16) and a delay (15 D / 16).
ScenarioSpec fleet_mix(double scale, unsigned depth) {
  constexpr double kDemand[] = {0.004, 0.010, 0.002, 0.002, 0.012, 0.008,
                                0.003, 0.003, 0.020, 0.034, 0.004, 0.004};
  constexpr double kScale[] = {1.0, 0.6, 1.8};
  const char* names[] = {"browse", "search", "buy"};
  const unsigned pops[] = {20, 12, depth};
  const double thinks[] = {2.0, 4.0, 1.0};
  std::vector<CustomerClass> classes;
  for (std::size_t c = 0; c < 3; ++c) {
    std::vector<double> demands;
    std::vector<double> waits;
    for (std::size_t k = 0; k < 12; ++k) {
      const double d = kDemand[k] * kScale[c] * scale;
      demands.push_back(k % 4 == 0 ? d / 16.0 : d);
      if (k % 4 == 0) waits.push_back(d * 15.0 / 16.0);
    }
    demands.insert(demands.end(), waits.begin(), waits.end());
    classes.push_back({names[c], pops[c], thinks[c], demands});
  }
  return series_spec(queues_and_delays(12, 3), std::move(classes));
}

/// Check `mix` at (scale 1, `depth`) against the literals through
/// core::solve, a one-lane block and lane 3 of a ragged 12-lane block whose
/// other lanes differ in demand scale and axis depth.
void expect_series_golden(SolverKind kind, const SeriesMixAt& mix,
                          unsigned depth, unsigned iterations,
                          const std::vector<std::vector<double>>& golden) {
  const std::vector<unsigned> levels = {1, depth / 2, depth};
  const auto spec_at = [&](double scale, unsigned n) {
    ScenarioSpec spec = mix(scale, n);
    spec.options.solver = kind;
    finalize_multiclass_options(spec.options);
    return spec;
  };
  const ScenarioSpec spec = spec_at(1.0, depth);
  // Other lanes' depths, in eighths of the golden depth (at least 1).
  constexpr unsigned kEighths[] = {8, 4, 2, 8, 6, 8, 1, 5, 3, 7, 0, 8};
  constexpr std::size_t kGoldenLane = 3;
  std::vector<ScenarioSpec> block;
  for (std::size_t l = 0; l < std::size(kEighths); ++l) {
    block.push_back(l == kGoldenLane
                        ? spec
                        : spec_at(0.9 + 0.02 * static_cast<double>(l),
                                  std::max(1u, depth * kEighths[l] / 8)));
  }
  std::vector<const ScenarioSpec*> ptrs;
  for (const auto& s : block) ptrs.push_back(&s);
  const auto plan = detail::plan_batch(ptrs);
  EXPECT_EQ(plan.blocks.size(), 1u);
  EXPECT_TRUE(plan.scalars.empty());

  const std::vector<std::pair<const char*, MvaResult>> paths = {
      {"core::solve", solve(spec.network, nullptr, spec.options)},
      {"one lane", solve_batch({spec})[0]},
      {"ragged block", solve_batch(block)[kGoldenLane]}};
  for (const auto& [path, r] : paths) {
    SCOPED_TRACE(path);
    golden::expect_rows(r, levels, golden);
    EXPECT_EQ(r.mc_iterations, iterations);
  }
}

TEST(MulticlassExact, GoldenSplineClassAndDelay) {
  const std::vector<std::vector<double>> kGolden = {
      {0x1.756ffee56ad03p+2, 0x1.bc6f1bd3606d8p-3, 0x1.5efce058badfdp+0,
       0x1.0c086d32298dep-4, 0x1.1cc625a581364p-3, 0x1.01bc6b3d18a38p-5,
       0x1.07c0fa3c8dc5fp+0, 0x1.fb2a8c5559a32p-5, 0x1.fffdfa531be8ep-4,
       0x1.f606cebb77a0dp-6, 0x1.07c0fa3c8dc5fp+0, 0x1.6f7c487a584acp-7,
       0x1.867034156a821p-6, 0x1.615e31f54a926p-8, 0x1.699e5f396344p-3,
       0x1.ad00a1f492805p+1, 0x1.6d4f7a16df0dbp+0, 0x1.0e6f3d95a7329p+0,
       0x1.8c3811b82b5c2p-3, 0x1.a31bca7a00692p-4, 0x1.c957f9fe15c5dp-2,
       0x1.220a28f19b9bp-5, 0x1.6f28bc57e1c27p-4, 0x1.521ed01c37facp-6,
       0x1.0166c792be4dp-1, 0x1.6bef7b86bb71ep-6, 0x1.b6fa689d341c4p-7,
       0x1.6241a86736903p-8, 0x1.ae1176a855802p-4, 0x1.003bcebd671f2p-7,
       0x1.270883bef44cfp-5, 0x1.63267110aea09p-8, 0x1.b0b1fc22a51dcp-2},
      {0x1.408987cb538edp+3, 0x1.4510f4bd52f64p-2, 0x1.32af645dc55dfp+0,
       0x1.930eaea14a2bp-4, 0x1.4dc9561710af4p-2, 0x1.b8e26fdc63dacp-5,
       0x1.59ceaa7662aa4p+1, 0x1.71e2512dc1829p-4, 0x1.0451618153bf7p-2,
       0x1.a46f641ac6996p-5, 0x1.59ceaa7662aa4p+1, 0x1.41e7cbdd06cd2p-7,
       0x1.0a94e5998de11p-5, 0x1.601dd0e69095ap-8, 0x1.142ea2679ec15p-2,
       0x1.ab4d2aec1635bp+1, 0x1.6dae08b21188cp+0, 0x1.5000f7f417a0ap+2,
       0x1.95f2fc16548cep-3, 0x1.9a692401ce6fp-4, 0x1.cf3a2422508bp-2,
       0x1.29c2426b1be8ep-5, 0x1.a86a0510f2cd7p-4, 0x1.580debf2d14ccp-6,
       0x1.006180274086ap-1, 0x1.6867123fbce6cp-6, 0x1.ea9dbd508dc4bp-7,
       0x1.5ba85270cf123p-8, 0x1.9d16e85cc1027p-4, 0x1.482791b799f9cp-5,
       0x1.a8b3cdd09f1b7p-3, 0x1.c2ccdf29c2a42p-6, 0x1.0ccd9329ac808p+1},
      {0x1.e466beeb3ad6p+3, 0x1.7cd7551141e45p-2, 0x1.1f7f442b7bdcep+0,
       0x1.22b2cebafb56p-3, 0x1.4ec8d267a5215p-1, 0x1.526b9f0e2d866p-4,
       0x1.30179c141eaf8p+2, 0x1.009eb1e2306ccp-3, 0x1.a691b2428b448p-2,
       0x1.3a31cc9fae527p-4, 0x1.30179c141eaf8p+2, 0x1.3342cd100d4c7p-7,
       0x1.61dbd55390235p-5, 0x1.65b3aa2fe1125p-8, 0x1.416af5558ff13p-2,
       0x1.a86fd48bacaccp+1, 0x1.6dce2c51e59b7p+0, 0x1.4c91043e12f76p+3,
       0x1.a682e447abba2p-3, 0x1.9775583ac35c8p-4, 0x1.d94e8965cf8cfp-2,
       0x1.3368ad0ce4204p-5, 0x1.05a0613bcbea4p-3, 0x1.5f1165515b818p-6,
       0x1.fd52ff0e0268ep-2, 0x1.684625207a33bp-6, 0x1.25f8e14319e7dp-6,
       0x1.576eaf829fc1fp-8, 0x1.8d33c9323d8f8p-4, 0x1.519fbda7660eep-4,
       0x1.0430f30e99578p-1, 0x1.ca60b5835953bp-5, 0x1.0a0d9cfe7592bp+2}};
  expect_series_golden(kExact, spline_mix, 10, 0, kGolden);
}

TEST(MulticlassExact, GoldenIdleClass) {
  const std::vector<std::vector<double>> kGolden = {
      {0x1.077644be4ae04p+2, 0x1.6232935b8c1ebp-2, 0x1.751fc0e5093d1p+0,
       0x1.5eae60d4a46a4p-3, 0x1.c0ef0a896d609p-4, 0x1.24a0db0c86096p+0,
       0x1.350006198a9fcp-3, 0x1.9c83c1bab3ba2p-4, 0x1.24a0db0c86096p+0,
       0x1.54bfb6f5630c6p-5, 0x1.b437fbb64b4b4p-6, 0x1.1c571cc17b087p-2,
       0x1.d41bdee104375p+1, 0x0p+0, 0x1.d68554dc8c495p-2,
       0x1.780425916eb45p-2, 0x0p+0, 0x1.691621c814f73p-3,
       0x1.53b77ad717499p-3, 0x1.473cd28deed6bp-4, 0x1.18dd85ba35bacp+0,
       0x0p+0, 0x0p+0, 0x0p+0,
       0x1.5edcbfb1a417p-8, 0x1.e6c8dfedfa278p-6, 0x1.786aaa4a09d44p-5},
      {0x1.5edf1188b71eep+2, 0x1.3ab6fe15e74cp-2, 0x1.a441af8a73bb5p+0,
       0x1.84aed86148c32p-3, 0x1.bc62b7a9aeffcp-3, 0x1.47363856218b4p+0,
       0x1.5083c5eb1531ap-3, 0x1.76b11a6dc814p-3, 0x1.47363856218b4p+0,
       0x1.1b967b8491c28p-5, 0x1.443aa87db4d2ep-5, 0x1.dd79b32b3cf2bp-3,
       0x1.d3287b4e9cbd6p+1, 0x0p+0, 0x1.d52b4f85a300cp+0,
       0x1.7add8dcbb4affp-2, 0x0p+0, 0x1.75ed50957a0bbp-3,
       0x1.58428d29bf72ep-3, 0x1.65b3a8e63bee4p-4, 0x1.184b7d2f2ad8p+0,
       0x0p+0, 0x0p+0, 0x0p+0,
       0x1.636259bc4a81ep-6, 0x1.0988e3369108ap-3, 0x1.7755d937b59a4p-3},
      {0x1.eef1a67975a5ap+2, 0x1.1f08cbb63b101p-2, 0x1.cf7036ed2982ap+0,
       0x1.c5c9384b2a578p-3, 0x1.c894535fbca68p-2, 0x1.8013af27fb3b3p+0,
       0x1.7db38459fbef2p-3, 0x1.464448f65cf69p-2, 0x1.8013af27fb3b3p+0,
       0x1.d56c7a67a9d4ep-6, 0x1.d8503a151526cp-5, 0x1.8d4ff99a3b9bdp-3,
       0x1.d13f8f6a7e6e6p+1, 0x0p+0, 0x1.0651dec4366e7p+2,
       0x1.809fcd1861c4bp-2, 0x0p+0, 0x1.90fbef7b208e4p-3,
       0x1.5fc8cda5ee144p-3, 0x1.a61a49cc651a4p-4, 0x1.172622d97f0fp+0,
       0x0p+0, 0x0p+0, 0x0p+0,
       0x1.9801aa94f10d2p-5, 0x1.5f0dc0eca35ffp-2, 0x1.a3b63139f0b0cp-2}};
  expect_series_golden(kExact, idle_class_mix, 9, 0, kGolden);
}

TEST(MulticlassExact, GoldenOneClass) {
  const std::vector<std::vector<double>> kGolden = {
      {0x1.9p-1, 0x1.1eb851eb851ecp-2, 0x1.47ae147ae147bp+0,
       0x1p-6, 0x1.4p-5, 0x1p-7,
       0x1.4p-3, 0x1p-6, 0x1.4p-5,
       0x1p-7, 0x1.4p-3, 0x1.47ae147ae147bp-6,
       0x1.999999999999ap-5, 0x1.47ae147ae147bp-7, 0x1.999999999999ap-3,
       0x1.9p-1, 0x1.1eb851eb851ecp-2, 0x1p-6,
       0x1.4p-5, 0x1p-7, 0x1.4p-3},
      {0x1.676f7bfd135bap+3, 0x1.577a487f9c94cp-2, 0x1.55de921fe7253p+0,
       0x1.221b4c265a926p-2, 0x1.1cc80e438a9b1p+0, 0x1.00e3c3445a847p-3,
       0x1.1f8c6330dc495p+1, 0x1.cc13d1e7c6dbbp-3, 0x1.1f8c6330dc495p-1,
       0x1.cc13d1e7c6dbbp-4, 0x1.1f8c6330dc495p+1, 0x1.9d3e7d8b91af6p-6,
       0x1.95a89cd761cdcp-4, 0x1.6ded9487c7307p-7, 0x1.999999999999ap-3,
       0x1.676f7bfd135bap+3, 0x1.577a487f9c94cp-2, 0x1.221b4c265a926p-2,
       0x1.1cc80e438a9b1p+0, 0x1.00e3c3445a847p-3, 0x1.1f8c6330dc495p+1},
      {0x1.2f8899ff5f7a2p+4, 0x1.29a9ca8e23c4p-1, 0x1.94d4e54711e2p+0,
       0x1.345f25cc25b86p-1, 0x1.9992824c16337p+2, 0x1.dd7052e026316p-3,
       0x1.e5a75ccbcbf6ap+1, 0x1.8485e3d63cc55p-2, 0x1.e5a75ccbcbf6ap-1,
       0x1.8485e3d63cc55p-3, 0x1.e5a75ccbcbf6ap+1, 0x1.041496bbd60aap-5,
       0x1.596ed64753a67p-2, 0x1.92abe6158a6b3p-7, 0x1.999999999999ap-3,
       0x1.2f8899ff5f7a2p+4, 0x1.29a9ca8e23c4p-1, 0x1.345f25cc25b86p-1,
       0x1.9992824c16337p+2, 0x1.dd7052e026316p-3, 0x1.e5a75ccbcbf6ap+1}};
  expect_series_golden(kExact, one_class_mix, 30, 0, kGolden);
}

TEST(MulticlassExact, GoldenFiveClasses) {
  const std::vector<std::vector<double>> kGolden = {
      {0x1.4ae05e7b3d751p+3, 0x1.0ca1192a1496cp-4, 0x1.8c22c303062a3p-1,
       0x1.a7842541605a8p-3, 0x1.2024c9f62135bp-2, 0x1.84feb0fd4f328p-3,
       0x1.67e2849eb69bep-3, 0x1.d39f90de8b1d7p-3, 0x1.84feb0fd4f328p-3,
       0x1.47acf5e65e6d7p-6, 0x1.bde008cafb44ap-6, 0x1.2cf765f6f8a8ep-6,
       0x1.d142669e72426p+0, 0x1.6273832431063p+1, 0x1.e263e9dd9f074p+1,
       0x1.0795b430e3f1fp+0, 0x1.e8f7fe0deab2fp-1, 0x1.9b7d714e2aa76p-5,
       0x1.8e4eef6dcb995p-4, 0x1.792056ad7e7c6p-5, 0x1.8a22b6b493b63p-4,
       0x1.81db847a43516p-5, 0x1.a4a20e36bc03ep-6, 0x1.0cc4477ebeec6p-4,
       0x0p+0, 0x1.90ff41136c612p-5, 0x1.4f5ae8688d499p-4,
       0x1.1b8f9c1cf404fp-3, 0x1.46c1721eeb48bp-4, 0x1.7fe0a11a2c09dp-4,
       0x0p+0, 0x1.a10b2bdc07829p-6, 0x1.6abcc26f42236p-6,
       0x1.a5bc53816cb65p-5, 0x1.b96fa555b968bp-6, 0x1.279098ecf038dp-6,
       0x0p+0},
      {0x1.86f7dcddee18ap+3, 0x1.0950430420f38p-4, 0x1.a30fec5d30e04p-1,
       0x1.18d09ba0a79aap-2, 0x1.4f9405bcce386p-2, 0x1.83fb5b04cba32p-3,
       0x1.c49f1f07afd34p-3, 0x1.066de31aa8eeap-2, 0x1.83fb5b04cba32p-3,
       0x1.6fbf1e92e147bp-6, 0x1.b77683ebfaf9cp-6, 0x1.fc16d3234f191p-7,
       0x1.cf8fe8110e09ep+0, 0x1.6178a693eb651p+1, 0x1.e1294dc6d6a7dp+1,
       0x1.07031664264d9p+0, 0x1.6df3ffe25c29fp+1, 0x1.abfe4a0a653fcp-5,
       0x1.968278c8aa656p-4, 0x1.89c835927ac2ap-5, 0x1.92cc5495aedf1p-4,
       0x1.93fc781c98a5ap-5, 0x1.ba0ada707bab8p-6, 0x1.14fe08db70c5fp-4,
       0x0p+0, 0x1.a5c7ef3db7ea9p-5, 0x1.5a212d7fadea3p-4,
       0x1.1ac6eba9891dbp-3, 0x1.57ba35aeb4035p-4, 0x1.8c667fad2c401p-4,
       0x0p+0, 0x1.b6e1e6c2db59ap-6, 0x1.76cdb87aaf84fp-6,
       0x1.a4d1bd6d0a15cp-5, 0x1.5c6910e838b08p-4, 0x1.ca2de598841fep-5,
       0x0p+0},
      {0x1.e06e2972406aap+3, 0x1.0ba9b0127a369p-4, 0x1.bb55fc6a15f1ap-1,
       0x1.8ec72cc0cc9a6p-2, 0x1.9cb441df42a5ep-2, 0x1.824e84479e502p-3,
       0x1.2760728aa8bep-2, 0x1.30ff8b06b00d1p-2, 0x1.824e84479e502p-3,
       0x1.a8fb738cce05p-6, 0x1.b7d2ccc730323p-6, 0x1.9bb0ffebd5468p-7,
       0x1.ccc87ee28eeafp+0, 0x1.5fdab3d85827ep+1, 0x1.df1faa1e4bd8dp+1,
       0x1.060ee3025b789p+0, 0x1.6ca94b6ff43cp+2, 0x1.c746f5493c6b1p-5,
       0x1.a4247fdc548ecp-4, 0x1.a596210ad97a8p-5, 0x1.a14f74bce3807p-4,
       0x1.b270043f32fc9p-5, 0x1.de453bf1f7f51p-6, 0x1.222ab9ef0aab6p-4,
       0x0p+0, 0x1.c8ff33d805472p-5, 0x1.6b72d30626cacp-4,
       0x1.197bc31379b98p-3, 0x1.747b6fd0eb95fp-4, 0x1.a08c9d57f817cp-4,
       0x0p+0, 0x1.dbe89c67697c8p-6, 0x1.8a3fb1736f6edp-6,
       0x1.a34b04d0925a8p-5, 0x1.79cb1997f5e9dp-3, 0x1.e216f0d3052dcp-4,
       0x0p+0}};
  expect_series_golden(
      kExact,
      [](double scale, unsigned depth) {
        return many_class_mix(5, scale, depth);
      },
      6, 0, kGolden);
}

TEST(MulticlassExact, GoldenColdFleetMix) {
  const std::vector<std::vector<double>> kGolden = {
      {0x1.a4505d662d52cp+3, 0x1.02bbefd4a62bbp-3, 0x1.4196947d47e88p+1,
       0x1.9e610259bff21p-9, 0x1.2572863fc7c61p-3, 0x1.a758166d3f46ap-6,
       0x1.a758166d3f46ap-6, 0x1.38ad657a1fd54p-7, 0x1.c919b378b5efap-4,
       0x1.4179ff6b4324ap-5, 0x1.4179ff6b4324ap-5, 0x1.06291934d60c7p-6,
       0x1.6da625658bedcp-1, 0x1.b20df149d4af8p-5, 0x1.b20df149d4af8p-5,
       0x1.834eac53296bap-5, 0x1.227b013e5f10bp-3, 0x1.e4225767f3c67p-3,
       0x1.9d20b7d02c2e8p-9, 0x1.023472e21b9d1p-3, 0x1.9d20b7d02c2e8p-6,
       0x1.9d20b7d02c2e8p-6, 0x1.35d889dc2122ep-7, 0x1.9d20b7d02c2e8p-4,
       0x1.35d889dc2122ep-5, 0x1.35d889dc2122ep-5, 0x1.023472e21b9d1p-6,
       0x1.b6f2c34d2ef17p-2, 0x1.9d20b7d02c2e8p-5, 0x1.9d20b7d02c2e8p-5,
       0x1.834eac53296bap-5, 0x1.227b013e5f10bp-3, 0x1.e4225767f3c67p-3,
       0x1.f8c537697d788p-13, 0x1.6575895b971b4p-7, 0x1.01d877e5edb1cp-9,
       0x1.01d877e5edb1cp-9, 0x1.7ce2450c76eafp-11, 0x1.1667cdb0851eep-7,
       0x1.879a3f3f0a40cp-9, 0x1.879a3f3f0a40cp-9, 0x1.3f58f51758db8p-10,
       0x1.bd691f5a69203p-5, 0x1.085e722d4d2ccp-8, 0x1.085e722d4d2ccp-8,
       0x1.d7cb1de51c9a3p-9, 0x1.61d8566bd573ap-7, 0x1.26def2af31e05p-6,
       0x1.2c36d2c1e9262p+3, 0x1.787ed2b0fd0e3p+1, 0x1.9f9d5f804e915p-1,
       0x1.0df336e647814p-3, 0x1.46941ca5b02bep-4, 0x1.daf3b0a5281a1p-3,
       0x1.345b0d3b4ae68p-9, 0x1.b50d69ff6befep-4, 0x1.3b10e657ed3a4p-6,
       0x1.3b10e657ed3a4p-6, 0x1.d15e082f99078p-8, 0x1.54578a0e8628fp-4,
       0x1.de8a61dd8b721p-6, 0x1.de8a61dd8b721p-6, 0x1.863205b6d10c2p-7,
       0x1.10ef29fecb036p-1, 0x1.4315862d2be23p-5, 0x1.4315862d2be23p-5,
       0x1.2034a15dfe8bp-5, 0x1.b04ef20cfdd08p-4, 0x1.6841c9b57e2dcp-3,
       0x1.d0155b255fbdfp-12, 0x1.4a0996bc1ce08p-6, 0x1.da739d151516p-9,
       0x1.da739d151516p-9, 0x1.5e403de12e9a7p-10, 0x1.00ce22931bcbcp-6,
       0x1.686ed7c9e6406p-8, 0x1.686ed7c9e6406p-8, 0x1.25b8b3d6e4549p-9,
       0x1.a1e154b70bbb1p-4, 0x1.e6db0fe1c5ec3p-8, 0x1.e6db0fe1c5ec3p-8,
       0x1.b1b90319b6f9cp-8, 0x1.454ac253493b6p-6, 0x1.0f13a1f0125c2p-5,
       0x1.801a4dce489e7p-12, 0x1.0d54f34471908p-6, 0x1.87c5e3957b4d4p-9,
       0x1.87c5e3957b4d4p-9, 0x1.21b2cd316bf1cp-10, 0x1.a475062b469dcp-7,
       0x1.29379c1a051cbp-8, 0x1.29379c1a051cbp-8, 0x1.e58ffde90fbcbp-10,
       0x1.43d6867efb97fp-4, 0x1.90e84903807e8p-8, 0x1.90e84903807e8p-8,
       0x1.6717548fa00afp-8, 0x1.0d517f6bb8082p-6, 0x1.c0dd29b3880dap-6},
      {0x1.40f05d551c9abp+4, 0x1.7fc3d1977c52dp+1, 0x1.2589e95a082fcp+2,
       0x1.e573ac901e572p-8, 0x1.aaaaaaaaaaaabp-2, 0x1.fffffffffffffp-5,
       0x1.fffffffffffffp-5, 0x1.71905c641718fp-6, 0x1.3b13b13b13b14p-2,
       0x1.8c6318c6318c4p-4, 0x1.8c6318c6318c4p-4, 0x1.38abf82ee6986p-5,
       0x1.ce269df0f1f73p+5, 0x1.1111111111111p-3, 0x1.1111111111111p-3,
       0x1.c3c3c3c3c3c3cp-4, 0x1.52d2d2d2d2d2cp-2, 0x1.1a5a5a5a5a5a5p-1,
       0x1.e1e1e1e1e1e1ep-8, 0x1.2d2d2d2d2d2d2p-2, 0x1.e1e1e1e1e1e1ep-5,
       0x1.e1e1e1e1e1e1ep-5, 0x1.6969696969696p-6, 0x1.e1e1e1e1e1e1ep-3,
       0x1.6969696969696p-4, 0x1.6969696969696p-4, 0x1.2d2d2d2d2d2d2p-5,
       0x1.fffffffffffffp-1, 0x1.e1e1e1e1e1e1ep-4, 0x1.e1e1e1e1e1e1ep-4,
       0x1.c3c3c3c3c3c3cp-4, 0x1.52d2d2d2d2d2cp-2, 0x1.1a5a5a5a5a5a5p-1,
       0x1.8339add9f38c8p-12, 0x1.5455b1cc8f0e9p-6, 0x1.9866d55bdede3p-9,
       0x1.9866d55bdede3p-9, 0x1.26c9436308ce9p-10, 0x1.f6a5f2e739af2p-7,
       0x1.3c2e94aa38eep-8, 0x1.3c2e94aa38eep-8, 0x1.f2cfaca6ed079p-10,
       0x1.70a39823758e6p+1, 0x1.b3a0e39531fe2p-8, 0x1.b3a0e39531fe2p-8,
       0x1.685abc4200e23p-8, 0x1.0e440d3180a9ap-6, 0x1.c2716b52811acp-6,
       0x1.3baeef4b2f1a7p+2, 0x1.2519dfad2c86ep+1, 0x1.9ac2cb1956867p+3,
       0x1.0700481155a01p+1, 0x1.3d92449e7671cp+0, 0x1.d64de37848353p+1,
       0x1.45a77d4aa9419p-10, 0x1.1e38351e9ec2bp-4, 0x1.5776a624be833p-7,
       0x1.5776a624be833p-7, 0x1.efd3b42d58518p-9, 0x1.a6b96a05d6c8dp-5,
       0x1.09e83e900f5d4p-6, 0x1.09e83e900f5d4p-6, 0x1.a37f53b7a061bp-8,
       0x1.37988bfbb2511p+3, 0x1.6e5c6cf3fe69dp-6, 0x1.6e5c6cf3fe69dp-6,
       0x1.2f0e565ca8196p-6, 0x1.c695818afc261p-5, 0x1.7ad1ebf3d21fbp-4,
       0x1.6ad4995aaeab1p-12, 0x1.3ee4dac8b3847p-6, 0x1.7eac39bda4387p-9,
       0x1.7eac39bda4387p-9, 0x1.1437051b2b77bp-10, 0x1.d6fb5ac20531dp-7,
       0x1.2843457a0b869p-8, 0x1.2843457a0b869p-8, 0x1.d362f666a5664p-10,
       0x1.5d6c3a2de8021p+1, 0x1.982f2c8604808p-8, 0x1.982f2c8604808p-8,
       0x1.51a705c572c86p-8, 0x1.fa7a88a82c2cap-7, 0x1.a610c736cf7a8p-6,
       0x1.7d5c83a7c91c1p-8, 0x1.4f2e4fb677c1cp-2, 0x1.923792daf61bap-5,
       0x1.923792daf61bap-5, 0x1.2252758cb9574p-6, 0x1.ef095248915d2p-3,
       0x1.3764d4ca8cfc9p-4, 0x1.3764d4ca8cfc9p-4, 0x1.eb41ec097ac2p-6,
       0x1.6a69b74f26e2dp+5, 0x1.ad08141cc23fap-4, 0x1.ad08141cc23fap-4,
       0x1.62e5bdd04290ep-4, 0x1.0a2c4e5c31ecap-2, 0x1.bb9f2d4453351p-2},
      {0x1.2fce97cc0f12cp+4, 0x1.a2f9cf82fb999p+2, 0x1.0029a1e26b597p+3,
       0x1.e573ac901e572p-8, 0x1.aaaaaaaaaaaabp-2, 0x1.fffffffffffffp-5,
       0x1.fffffffffffffp-5, 0x1.71905c641718ep-6, 0x1.3b13b13b13b14p-2,
       0x1.8c6318c6318c5p-4, 0x1.8c6318c6318c5p-4, 0x1.38abf82ee6986p-5,
       0x1.e7bc8c4b0394ap+6, 0x1.1111111111111p-3, 0x1.1111111111111p-3,
       0x1.c3c3c3c3c3c3cp-4, 0x1.52d2d2d2d2d2cp-2, 0x1.1a5a5a5a5a5a5p-1,
       0x1.e1e1e1e1e1e1ep-8, 0x1.2d2d2d2d2d2d2p-2, 0x1.e1e1e1e1e1e1ep-5,
       0x1.e1e1e1e1e1e1ep-5, 0x1.6969696969696p-6, 0x1.e1e1e1e1e1e1ep-3,
       0x1.6969696969696p-4, 0x1.6969696969696p-4, 0x1.2d2d2d2d2d2d2p-5,
       0x1.fffffffffffffp-1, 0x1.e1e1e1e1e1e1ep-4, 0x1.e1e1e1e1e1e1ep-4,
       0x1.c3c3c3c3c3c3cp-4, 0x1.52d2d2d2d2d2cp-2, 0x1.1a5a5a5a5a5a5p-1,
       0x1.990fae5fe2378p-12, 0x1.6786c84245d2ep-6, 0x1.af6e89e920969p-9,
       0x1.af6e89e920969p-9, 0x1.3768cf558163p-10, 0x1.097f19ca8a355p-6,
       0x1.4e02ff6a29beep-8, 0x1.4e02ff6a29beep-8, 0x1.077844962f429p-9,
       0x1.9afc84fb51849p+2, 0x1.cc31a42bde7e9p-8, 0x1.cc31a42bde7e9p-8,
       0x1.7cacd409ef93fp-8, 0x1.1d819f0773aefp-6, 0x1.dbd8090c6b78ep-6,
       0x1.9ab795595dfa1p+1, 0x1.d53c46d269f29p+0, 0x1.be47c1677968ap+3,
       0x1.0ee97a9d78caep+2, 0x1.45fe31733ed95p+1, 0x1.e6af701b03022p+2,
       0x1.a7b0901d52e1dp-11, 0x1.74622ea9c5d88p-5, 0x1.bedc37feed6a3p-8,
       0x1.bedc37feed6a3p-8, 0x1.428bb4ede7094p-9, 0x1.12fdac4e1bf29p-5,
       0x1.59f4d0834c733p-7, 0x1.59f4d0834c733p-7, 0x1.10e44947a67b8p-8,
       0x1.aa5dc6866f379p+3, 0x1.dca6a220fd3e2p-7, 0x1.dca6a220fd3e2p-7,
       0x1.8a49d70e1cc71p-7, 0x1.27b7614a95955p-5, 0x1.ecdc4cd1a3f8ep-5,
       0x1.226f0df3e534fp-12, 0x1.fe873686b8e73p-7, 0x1.325120b73bbdep-9,
       0x1.325120b73bbdep-9, 0x1.ba33ac576f442p-11, 0x1.79016357abfd6p-7,
       0x1.da4c119fd85fcp-9, 0x1.da4c119fd85fcp-9, 0x1.7620a506e165p-10,
       0x1.251790a84a8fcp+2, 0x1.46bcefb261db9p-8, 0x1.46bcefb261db9p-8,
       0x1.0e47955661e3cp-8, 0x1.956b600192d5bp-7, 0x1.51d97aabfa5cbp-6,
       0x1.9e56a9ad35a79p-8, 0x1.6c2a2b213c286p-2, 0x1.b4ff66f4ae96dp-5,
       0x1.b4ff66f4ae96dp-5, 0x1.3b6d48639ebdap-6, 0x1.0cebf09692d3p-2,
       0x1.52521e28c93afp-4, 0x1.52521e28c93afp-4, 0x1.0ade69ddbabddp-5,
       0x1.a01f5a6fb104bp+6, 0x1.d2217ee2dc5cap-4, 0x1.d2217ee2dc5cap-4,
       0x1.81960f8c9a0cap-4, 0x1.21308ba973897p-2, 0x1.e1fb936fc08fcp-2}};
  expect_series_golden(kExact, fleet_mix, 120, 0, kGolden);
}

TEST(MulticlassSchweitzer, GoldenOneClass) {
  const std::vector<std::vector<double>> kGolden = {
      {0x1.9p-1, 0x1.1eb851eb851ecp-2, 0x1.47ae147ae147bp+0,
       0x1p-6, 0x1.4p-5, 0x1p-7,
       0x1.4p-3, 0x1p-6, 0x1.4p-5,
       0x1p-7, 0x1.4p-3, 0x1.47ae147ae147bp-6,
       0x1.999999999999ap-5, 0x1.47ae147ae147bp-7, 0x1.999999999999ap-3,
       0x1.9p-1, 0x1.1eb851eb851ecp-2, 0x1p-6,
       0x1.4p-5, 0x1p-7, 0x1.4p-3},
      {0x1.ca91afe433b16p+3, 0x1.95242893325d6p-2, 0x1.65490a24cc976p+0,
       0x1.934a4c16869b2p-2, 0x1.1f39417224a49p+1, 0x1.53bc25d459acdp-3,
       0x1.6edaf31cf6278p+1, 0x1.257bf5b0c4ec7p-2, 0x1.6edaf31cf6278p-1,
       0x1.257bf5b0c4ec7p-3, 0x1.6edaf31cf6278p+1, 0x1.c247bd04c97ccp-6,
       0x1.40b0a261170a7p-3, 0x1.7b51d8b1ae71ap-7, 0x1.999999999999ap-3,
       0x1.ca91afe433b16p+3, 0x1.95242893325d6p-2, 0x1.934a4c16869b2p-2,
       0x1.1f39417224a49p+1, 0x1.53bc25d459acdp-3, 0x1.6edaf31cf6278p+1},
      {0x1.34726373ab556p+4, 0x1.132d6d3ad6267p+0, 0x1.0996b69d6b134p+1,
       0x1.3c50a0d31b19fp-1, 0x1.002e38194b2dcp+4, 0x1.e632910d9641fp-3,
       0x1.ed83d252abbbdp+1, 0x1.8acfdb75562fep-2, 0x1.ed83d252abbbdp-1,
       0x1.8acfdb75562fep-3, 0x1.ed83d252abbbdp+1, 0x1.0687bf7d4577fp-5,
       0x1.a93ddca24e6fp-1, 0x1.9386dd48c7feep-7, 0x1.999999999999ap-3,
       0x1.34726373ab556p+4, 0x1.132d6d3ad6267p+0, 0x1.3c50a0d31b19fp-1,
       0x1.002e38194b2dcp+4, 0x1.e632910d9641fp-3, 0x1.ed83d252abbbdp+1}};
  expect_series_golden(kSchweitzer, one_class_mix, 40, 57, kGolden);
}

TEST(MulticlassSchweitzer, GoldenTwoClassesWithSpline) {
  const std::vector<std::vector<double>> kGolden = {
      {0x1.3e007eb57ac03p+1, 0x1.ffd6e6bf7f7ecp-3, 0x1.9c2c70b2aa3eap+0,
       0x1.ec833e1b0ecdcp-6, 0x1.7a1f6a6e285f7p-5, 0x1.6447187a2e478p-7,
       0x1.114fcb029b724p-1, 0x1.e1a7576d3abbap-6, 0x1.726a7f2d20ee5p-5,
       0x1.61b0a9da35cep-7, 0x1.114fcb029b724p-1, 0x1.8c7c5ba9af372p-7,
       0x1.306619929be31p-6, 0x1.1ed0223a4c46fp-8, 0x1.b80bdcc0beacbp-3,
       0x1.6cb2ae32ee72ap+0, 0x1.0f4e4f38070dcp+0, 0x1.b192022b0861ap-4,
       0x1.c63afa5c9fa3ep-2, 0x1.703c614ad120cp-6, 0x1.a6150c3ff5054p-7,
       0x1.6b5bc4c69eff3p-8, 0x1.c222c37b14d36p-4, 0x1.f11b7340f6b4p-8,
       0x1.109a275e2b1e2p-5, 0x1.5d326c2dbd8fcp-8, 0x1.b216e52671afap-2},
      {0x1.0e1e2fd14e0d6p+4, 0x1.c1dde9841c358p-2, 0x1.10f28ce35d28p+0,
       0x1.28b41949dbf28p-3, 0x1.cf55871551526p-1, 0x1.6c5525c9b7991p-4,
       0x1.91cb720e20876p+2, 0x1.04fefd58bd728p-3, 0x1.f5ad37cb6a8d7p-2,
       0x1.503a022f5310fp-4, 0x1.91cb720e20876p+2, 0x1.19323223e63adp-7,
       0x1.b71e1a1b38c67p-5, 0x1.594a5d77478efp-8, 0x1.7ccb6b39b8cc8p-2,
       0x1.6d916ac85e8eep+0, 0x1.ee8a32499048ep+3, 0x1.9d0a8aa8532bcp-4,
       0x1.e1e4c6b4a68e6p-2, 0x1.66f262811dd46p-6, 0x1.50e49039319fbp-6,
       0x1.570dbda53cbedp-8, 0x1.8a6c0e6b467ap-4, 0x1.f7ab99f3706ffp-4,
       0x1.c4ce629387c56p-1, 0x1.56e449ef63cd2p-4, 0x1.8ba1c1d4736d8p+2},
      {0x1.cc244a4053072p+4, 0x1.25da90caa2f32p-1, 0x1.25c0c17f96a15p+0,
       0x1.0d54f9e3c09adp-2, 0x1.431f11bcb2859p+2, 0x1.4f31a3c606fb9p-3,
       0x1.60f76ce6edb52p+3, 0x1.ad32b42fd65bcp-3, 0x1.b74d79b2c106bp-1,
       0x1.21557d08de4a5p-3, 0x1.60f76ce6edb52p+3, 0x1.2baf90ca11bap-7,
       0x1.67898e62a7858p-3, 0x1.74f86f8b990dap-8, 0x1.88befc1f73319p-2,
       0x1.68f1b340ff564p+0, 0x1.b5952f0c4311cp+4, 0x1.05a364eaec24ap-3,
       0x1.31a183ad49602p-1, 0x1.74da5bfb7197cp-6, 0x1.f789095d092ebp-5,
       0x1.59140d6ad948ap-8, 0x1.733d3b5c06a49p-4, 0x1.ec0ea8481302bp-3,
       0x1.3f2fffa9f8733p+2, 0x1.4469035ab0315p-3, 0x1.5e10f27035a7dp+3}};
  expect_series_golden(
      kSchweitzer,
      [](double scale, unsigned depth) {
        ScenarioSpec spec = spline_mix(scale, depth);
        spec.options.classes.erase(spec.options.classes.begin());
        return spec;
      },
      30, 63, kGolden);
}

TEST(MulticlassSchweitzer, GoldenSplineClassAndDelay) {
  const std::vector<std::vector<double>> kGolden = {
      {0x1.756af88a4326ap+2, 0x1.bc8bc80bc9f32p-3, 0x1.5f01996f6bf3dp+0,
       0x1.0c142e219e9cdp-4, 0x1.1d6ca09a97136p-3, 0x1.01bc01c4cfa46p-5,
       0x1.07bbfef52ea78p+0, 0x1.fb24d103ab2f2p-5, 0x1.fff57a2950a9dp-4,
       0x1.f5ffab4b7dd9ep-6, 0x1.07bbfef52ea78p+0, 0x1.6f91580103f88p-7,
       0x1.8759b8b2bc307p-6, 0x1.616262a264b9ap-8, 0x1.699c68604f07bp-3,
       0x1.acfacff8c3d5ep+1, 0x1.6d4f05fbf7f29p+0, 0x1.0e673c3b8cfc4p+0,
       0x1.8c593b45cce85p-3, 0x1.a3267b5283efap-4, 0x1.c974ac86606ebp-2,
       0x1.2215da04e3651p-5, 0x1.6ff8f98f4a3bp-4, 0x1.521f36aedbadfp-6,
       0x1.01634995424d2p-1, 0x1.6c05d134e6602p-6, 0x1.b745fd11f2ce7p-7,
       0x1.6241e9904c8bbp-8, 0x1.ae10edf884f3ap-4, 0x1.003e668f9a92p-7,
       0x1.27ef10074b23dp-5, 0x1.632149dac1df6p-8, 0x1.b0a52d2c14c6dp-2},
      {0x1.11c8e82bdb1f6p+4, 0x1.8e0055e0e9d06p-2, 0x1.1c40a10590f09p+0,
       0x1.4762f6ed21f48p-3, 0x1.b4c9a5ffc650fp-1, 0x1.81ccfcc3d3464p-4,
       0x1.62cb3461fc745p+2, 0x1.1c56fd980c558p-3, 0x1.e535dd1586f24p-2,
       0x1.6252aada34c6dp-4, 0x1.62cb3461fc745p+2, 0x1.321eafa96580ep-7,
       0x1.986a154eca98cp-5, 0x1.68bd4f6e190abp-8, 0x1.4bbf287c0ced1p-2,
       0x1.a690b87fbf022p+1, 0x1.6db3774a76644p+0, 0x1.8c37334e77b1bp+3,
       0x1.b173fc969ec3ap-3, 0x1.99e95cf039b46p-4, 0x1.e06de71aac6e2p-2,
       0x1.371b2a4195bp-5, 0x1.26da6b38466c5p-3, 0x1.6159084666722p-6,
       0x1.fb1410994b9c2p-2, 0x1.69a6e337145adp-6, 0x1.45ec4a9d585b1p-6,
       0x1.56ceb3a19ffd3p-8, 0x1.883f6001fe4bdp-4, 0x1.98ce9febb3fa4p-4,
       0x1.60e3a8dcc9f3p-1, 0x1.1409cf781fa9ep-4, 0x1.3cf8f5d85fc16p+2},
      {0x1.b76f85107977bp+4, 0x1.f9fbec70187edp-2, 0x1.20f3d3bb25097p+0,
       0x1.0de9aaa27c366p-2, 0x1.b62b3fe7f0f1ep+1, 0x1.45f465eb82266p-3,
       0x1.3733c7f159fc1p+3, 0x1.ae1fb2e81b029p-3, 0x1.976d2a97f34ecp-1,
       0x1.1a8245261212ep-3, 0x1.3733c7f159fc1p+3, 0x1.3a7bd2955711ep-7,
       0x1.fe862ecf071aep-4, 0x1.7bc7a45f64cep-8, 0x1.6a9763962e6c4p-2,
       0x1.91fe489f9fa35p+1, 0x1.6ae53abd37b0bp+0, 0x1.6e816850b2084p+4,
       0x1.18388378f071fp-2, 0x1.dc6a1f30c4c39p-4, 0x1.18707e6892b39p-1,
       0x1.428ec03072927p-5, 0x1.4f1482aa37633p-2, 0x1.643092cca6bb9p-6,
       0x1.e2645725f2c3fp-2, 0x1.77efeab645eadp-6, 0x1.73197d9322d08p-5,
       0x1.5a70cad842863p-8, 0x1.7628e23462deep-4, 0x1.9c31a7e2130adp-3,
       0x1.867c499c5d7a4p+1, 0x1.0e9acd3b2b3acp-3, 0x1.25345373c1a03p+3}};
  expect_series_golden(kSchweitzer, spline_mix, 24, 59, kGolden);
}

TEST(MulticlassSchweitzer, GoldenIdleClass) {
  const std::vector<std::vector<double>> kGolden = {
      {0x1.076c4e55cfff6p+2, 0x1.6268c0c30bcf3p-2, 0x1.752ddd67b1822p+0,
       0x1.6007f6465924cp-3, 0x1.c193d1583f83ep-4, 0x1.249552ce1bc5bp+0,
       0x1.34f3c778f5ceap-3, 0x1.9c75a6d1e48e7p-4, 0x1.249552ce1bc5bp+0,
       0x1.561c727580c4fp-5, 0x1.b4e89d380f52fp-6, 0x1.1c56a8a0dac16p-2,
       0x1.d40900ad756eep+1, 0x0p+0, 0x1.d67cdff1547f4p-2,
       0x1.783c95f85299ep-2, 0x0p+0, 0x1.69663ec605f16p-3,
       0x1.550de8e6326e6p-3, 0x1.47a0ded085e9ep-4, 0x1.18d2339b4675bp+0,
       0x0p+0, 0x0p+0, 0x0p+0,
       0x1.5f41ac04d6cb1p-8, 0x1.e7cbca1ee6682p-6, 0x1.7863e65aa9ff7p-5},
      {0x1.0595a35c2f94ep+3, 0x1.1db2df4928e6p-2, 0x1.d5c0a7d458473p+0,
       0x1.d50181ee15513p-3, 0x1.04407b40d0af1p-1, 0x1.8b1c4c4478a8ap+0,
       0x1.866cf40bb4c3cp-3, 0x1.6191653019481p-2, 0x1.8b1c4c4478a8ap+0,
       0x1.cafe3fcebcfd1p-6, 0x1.fd6440d575d68p-5, 0x1.82ace6631cb6dp-3,
       0x1.d09b77f2ce7bep+1, 0x0p+0, 0x1.22dd8abef7ebcp+2,
       0x1.82914dd9a0871p-2, 0x0p+0, 0x1.9a46dd28040bp-3,
       0x1.63219978367f8p-3, 0x1.ba12e8ce05481p-4, 0x1.16c3ae5e7be3fp+0,
       0x0p+0, 0x0p+0, 0x0p+0,
       0x1.c77fa1d77b46bp-5, 0x1.99fc3c4e200c2p-2, 0x1.d1627797f312dp-2},
      {0x1.8e3c08e37885ep+3, 0x1.2f4eb1518337p-2, 0x1.01228a46c65f3p+1,
       0x1.2d5058a1731c6p-2, 0x1.6ea7ba86f4ad5p+0, 0x1.f5ab209d2efa9p+0,
       0x1.da912e884f3f4p-3, 0x1.3512a22bf81e3p-1, 0x1.f5ab209d2efa9p+0,
       0x1.83643df3cbd24p-6, 0x1.d76636800ce96p-4, 0x1.427dbfa4867efp-3,
       0x1.c9b3bfc20466ap+1, 0x0p+0, 0x1.1bcf18f2f76c4p+3,
       0x1.97d924c4af43ap-2, 0x0p+0, 0x1.0528a93a93fp-2,
       0x1.7094a2fb45174p-3, 0x1.5f36fba792935p-3, 0x1.129f0ca79c3d9p+0,
       0x0p+0, 0x0p+0, 0x0p+0,
       0x1.d4181c8f4242ep-4, 0x1.42c0db12025aep+0, 0x1.c61827eb257ap-1}};
  expect_series_golden(kSchweitzer, idle_class_mix, 20, 40, kGolden);
}

TEST(MulticlassSchweitzer, GoldenFourClasses) {
  const std::vector<std::vector<double>> kGolden = {
      {0x1.2c980245644eap+3, 0x1.1186b5e41bcc3p-4, 0x1.7d89c4f63c455p-1,
       0x1.687aa781a3e98p-3, 0x1.0b6f099b4741fp-2, 0x1.85586389d53f9p-3,
       0x1.393b3cb6bc3b6p-3, 0x1.b6b193ebd96b7p-3, 0x1.85586389d53f9p-3,
       0x1.33004f04b2759p-6, 0x1.c784c642d70c5p-6, 0x1.4b95c248e5aeep-6,
       0x1.d1b813e53887dp+0, 0x1.62c79714be9e7p+1, 0x1.e2d582b6aa672p+1,
       0x1.07cdcaaf17e2p+0, 0x1.970a7fff064c5p-5, 0x1.8b91db60db40bp-4,
       0x1.73221a8e3b119p-5, 0x1.86d4ea1749451p-4, 0x1.9ba440437d0c8p-6,
       0x1.0b5650c55c7ecp-4, 0x0p+0, 0x1.8861656ba5011p-5,
       0x1.4c91c123b1bbfp-4, 0x1.1bd2df43cbb1fp-3, 0x1.3fd36a2251302p-4,
       0x1.7c2854bdb5235p-4, 0x0p+0, 0x1.98208869137cep-6,
       0x1.66aeff1966a7p-6, 0x1.a616111826367p-5},
      {0x1.06e38fcb4d3p+4, 0x1.68566b4c9721ap-4, 0x1.b442a404c525cp-1,
       0x1.ac64dabcd19fap-2, 0x1.ed30113164a41p-2, 0x1.17470bb8d244p-1,
       0x1.348a6c76880fap-2, 0x1.56225867d14ep-2, 0x1.17470bb8d244p-1,
       0x1.a12b052609e4p-6, 0x1.e04392172a1edp-6, 0x1.0ff58afa9441fp-5,
       0x1.ca1611bcf26fap+0, 0x1.5e8d912ebe581p+1, 0x1.ddae3adfd4f49p+1,
       0x1.05756a5b573efp+3, 0x1.e212a1a448a3ap-5, 0x1.af34920c26d42p-4,
       0x1.b96be765a022ep-5, 0x1.aa7c26547c2bfp-4, 0x1.e88071cff30cbp-6,
       0x1.352f55a46fbf9p-4, 0x0p+0, 0x1.d3b67b3fd58b7p-5,
       0x1.8232e8d4d299ep-4, 0x1.187140f231e01p-3, 0x1.7db461fff6c1bp-4,
       0x1.b9f619041250ep-4, 0x0p+0, 0x1.e7f1d76fb41ap-3,
       0x1.a1b3f6a41ef2ep-3, 0x1.a25576f88b97fp-2},
      {0x1.83237f428bd18p+4, 0x1.ba167a03f610bp-4, 0x1.d1873e3dc6279p-1,
       0x1.ac9ffda35a31ep-1, 0x1.ab87a62dc0081p-1, 0x1.e0f2eac460608p-1,
       0x1.dc7db38623134p-2, 0x1.dd45d513bd762p-2, 0x1.e0f2eac460608p-1,
       0x1.1b6eed326aa75p-5, 0x1.1ab58c1e7484fp-5, 0x1.3e087ab70cf5p-5,
       0x1.be10123a49bd2p+0, 0x1.57c5bea0624f9p+1, 0x1.d5555b2157caap+1,
       0x1.019f1ae6aff26p+4, 0x1.2ebc835a4a37ap-4, 0x1.ea342bb5e1202p-4,
       0x1.1745a80fcd1b6p-4, 0x1.e6381f4fc6a53p-4, 0x1.343d02cc71a6bp-5,
       0x1.7560ecc77943bp-4, 0x0p+0, 0x1.292a448ab16c1p-4,
       0x1.d559a5ed0311ap-4, 0x1.130498804ea61p-3, 0x1.e5f57f650542ep-4,
       0x1.0d04fabd5fdeep-3, 0x0p+0, 0x1.377834f89c419p-1,
       0x1.fdde2a4fb10b6p-2, 0x1.9c31c4a44cb7p-1}};
  expect_series_golden(
      kSchweitzer,
      [](double scale, unsigned depth) {
        return many_class_mix(4, scale, depth);
      },
      16, 28, kGolden);
}

TEST(MulticlassSchweitzer, GoldenSixClasses) {
  const std::vector<std::vector<double>> kGolden = {
      {0x1.827212d728098p+3, 0x1.1952d9da28292p-4, 0x1.a7f76e800c00fp-1,
       0x1.19098256c78d3p-2, 0x1.4c9f06a1eb60fp-2, 0x1.d7600e5f78899p-3,
       0x1.c2c05b6269412p-3, 0x1.02d4a11792355p-2, 0x1.d7600e5f78899p-3,
       0x1.745846470ab7p-6, 0x1.b8b033f951b0bp-6, 0x1.3842ed28443c7p-6,
       0x1.cf3564dc24039p+0, 0x1.6158345243b67p+1, 0x1.e10846a9cd777p+1,
       0x1.06f6d4afd53fep+0, 0x1.e7da809ad401cp+0, 0x1.a191cd34a1565p-1,
       0x1.af724af9209ecp-5, 0x1.9792e016db7bdp-4, 0x1.8b891847640acp-5,
       0x1.9386274c866dcp-4, 0x1.95773f4b90b25p-5, 0x1.9e48359ae377p-4,
       0x1.bbbe4b5707037p-6, 0x1.176546491e228p-4, 0x0p+0,
       0x1.a789d66ed61e7p-5, 0x1.5bfd110ade58bp-4, 0x1.1aacf6a8362b9p-3,
       0x1.5954c855fa934p-4, 0x1.8de497bec239fp-4, 0x0p+0,
       0x1.b8e9006e9749bp-6, 0x1.779c36e818545p-6, 0x1.a4be21195533p-5,
       0x1.d2d32724a93e9p-5, 0x1.31dcc580d6894p-5, 0x0p+0,
       0x1.c1e3bd27f17ffp-6, 0x1.d2fdd7d3eba6cp-7, 0x1.4e0e3dc3b4451p-5},
      {0x1.19e8e944efe9p+4, 0x1.67680ec002f7ap-4, 0x1.ee0080d325a29p-1,
       0x1.23bafde76d279p-1, 0x1.dc36ef6b2541bp-2, 0x1.05b9f65c3e847p-1,
       0x1.7bcc03025f506p-2, 0x1.4d77ed4d27d04p-2, 0x1.05b9f65c3e847p-1,
       0x1.08eb041f62a22p-5, 0x1.b0725398f15c3p-6, 0x1.db57df28553dfp-6,
       0x1.c903336f23687p+0, 0x1.5dab7859320a7p+1, 0x1.dc4a55b69bed3p+1,
       0x1.04b4054b68985p+0, 0x1.e3b315d83220cp+0, 0x1.9e4e2a67291fcp+2,
       0x1.ecd418658e73p-5, 0x1.b6c2b0320a5c8p-4, 0x1.cca4aed072fe2p-5,
       0x1.b61b34dc178c5p-4, 0x1.df4cd6d7f28adp-5, 0x1.c5d9ef68d2d67p-4,
       0x1.0db554fec7857p-5, 0x1.310bba0780f9bp-4, 0x0p+0,
       0x1.022f780c63744p-4, 0x1.7cf2606cfd43ep-4, 0x1.17bc60475b3b9p-3,
       0x1.a5415575428d3p-4, 0x1.b3c6a16c1f369p-4, 0x0p+0,
       0x1.0d41ad5810438p-5, 0x1.9bdb6bdfaf72fp-6, 0x1.a1200878a75a2p-5,
       0x1.1d1bd09de3caep-4, 0x1.4f65a3bdf4541p-5, 0x0p+0,
       0x1.12f3f3fc1ce2ep-2, 0x1.0036aa7a88c6p-3, 0x1.4b71bb85ba7fdp-2},
      {0x1.7bb9dc9458b7p+4, 0x1.bf6b5dd0b4e9fp-4, 0x1.0dab097c368bbp+0,
       0x1.1c995fc460c8fp+0, 0x1.50af96bf4f918p-1, 0x1.a56f3db491ab6p-1,
       0x1.13582774d115bp-1, 0x1.9f4978044a01p-2, 0x1.a56f3db491ab6p-1,
       0x1.7fbc8d995889ep-5, 0x1.c5f79da6ba39p-6, 0x1.1c1e5f34b42d7p-5,
       0x1.bf7f72652867bp+0, 0x1.57d0356cd8d84p+1, 0x1.d48bdecada9c6p+1,
       0x1.00ef0982e24afp+0, 0x1.dcae303cfd1e8p+0, 0x1.98b91e962396bp+3,
       0x1.2732a9f9d15b4p-4, 0x1.e9d7563fe2e8cp-4, 0x1.1ce6c7ca0ef09p-4,
       0x1.f11d4e039a7ccp-4, 0x1.2f7e1b953c27fp-4, 0x1.057e0365c05e3p-3,
       0x1.636b8204eddfbp-5, 0x1.524eabd445d33p-4, 0x0p+0,
       0x1.559d817bd5f1ap-4, 0x1.a80462eeab023p-4, 0x1.130cf78a47137p-3,
       0x1.16d56b3d4ca95p-3, 0x1.e5384680e8041p-4, 0x0p+0,
       0x1.6514e2d385ccp-5, 0x1.cb5c0747d314ap-6, 0x1.9b180f37d077fp-5,
       0x1.7a175fa46098bp-4, 0x1.760b39179afd6p-5, 0x0p+0,
       0x1.6cfec247e05b9p-1, 0x1.1e053096385bbp-2, 0x1.46fa7ede82dfp-1}};
  expect_series_golden(
      kSchweitzer,
      [](double scale, unsigned depth) {
        return many_class_mix(6, scale, depth);
      },
      16, 35, kGolden);
}

TEST(MulticlassSchweitzer, GoldenColdFleetMix) {
  const std::vector<std::vector<double>> kGolden = {
      {0x1.a419b7cc6efddp+3, 0x1.04aff58cdf94p-3, 0x1.41c0699269162p+1,
       0x1.9e1aa6855dc1bp-9, 0x1.256def8b4f59p-3, 0x1.a70f994aede29p-6,
       0x1.a70f994aede29p-6, 0x1.3877da272c5dp-7, 0x1.c8f337edede7cp-4,
       0x1.41443d179a357p-5, 0x1.41443d179a357p-5, 0x1.05fc09ff53ffep-6,
       0x1.73e1eb89266e1p-1, 0x1.b1c8c0eed7edap-5, 0x1.b1c8c0eed7edap-5,
       0x1.830d4ebc16d74p-5, 0x1.2249fb0d11216p-3, 0x1.e3d0a26b1c8dp-3,
       0x1.9cdafea67ec37p-9, 0x1.0208df280f3a3p-3, 0x1.9cdafea67ec37p-6,
       0x1.9cdafea67ec37p-6, 0x1.35a43efcdf12ap-7, 0x1.9cdafea67ec37p-4,
       0x1.35a43efcdf12ap-5, 0x1.35a43efcdf12ap-5, 0x1.0208df280f3a3p-6,
       0x1.b6a8ae90e6afbp-2, 0x1.9cdafea67ec37p-5, 0x1.9cdafea67ec37p-5,
       0x1.830d4ebc16d74p-5, 0x1.2249fb0d11216p-3, 0x1.e3d0a26b1c8dp-3,
       0x1.f8b1208b85e37p-13, 0x1.659e7148f7a33p-7, 0x1.01cdd6009e814p-9,
       0x1.01cdd6009e814p-9, 0x1.7cd28ed3f95p-11, 0x1.167491729c1cfp-7,
       0x1.878baaedb6392p-9, 0x1.878baaedb6392p-9, 0x1.3f4b94f3431c6p-10,
       0x1.c53bebc5cad1ap-5, 0x1.0856ac4d63ac7p-8, 0x1.0856ac4d63ac7p-8,
       0x1.d7b8d2bcd0f17p-9, 0x1.61ca9e0d9cb5p-7, 0x1.26d383b60296ep-6,
       0x1.2c14271668e36p+3, 0x1.78765c48dd9abp+1, 0x1.9e7f9a3ceb3bap-1,
       0x1.0feba61e84a2ap-3, 0x1.480bc013621c2p-4, 0x1.e1bf1b3bb1e3dp-3,
       0x1.34371d78d1d08p-9, 0x1.b515774bda831p-4, 0x1.3aeb760b884edp-6,
       0x1.3aeb760b884edp-6, 0x1.d1270f76a4ab6p-8, 0x1.5448d2357d276p-4,
       0x1.de52f70cecba6p-6, 0x1.de52f70cecba6p-6, 0x1.860398fd9a88ep-7,
       0x1.1563b12d51ee2p-1, 0x1.42f233d9ffbe6p-5, 0x1.42f233d9ffbe6p-5,
       0x1.201358b95a73ep-5, 0x1.b01d051607addp-4, 0x1.68182ee7b110dp-3,
       0x1.d00a98071e562p-12, 0x1.4a0fe7dee81dcp-6, 0x1.da670322f7513p-9,
       0x1.da670322f7513p-9, 0x1.5e37ad25a7a42p-10, 0x1.00ccceab05fccp-6,
       0x1.68651e020c152p-8, 0x1.68651e020c152p-8, 0x1.25b1374fd50dbp-9,
       0x1.a624c58962bccp-4, 0x1.e6ce5c118a674p-8, 0x1.e6ce5c118a674p-8,
       0x1.b1af43665f8b4p-8, 0x1.4543728cc7a87p-6, 0x1.0f0d8a1ffbb71p-5,
       0x1.7f11b05d4133bp-12, 0x1.0d09b74c289e4p-6, 0x1.86ba16d8354cep-9,
       0x1.86ba16d8354cep-9, 0x1.20eae6392896cp-10, 0x1.a3b9906d7a09bp-7,
       0x1.2870ee8712acep-8, 0x1.2870ee8712acep-8, 0x1.e4416968c19b9p-10,
       0x1.4dcd0d5541425p-4, 0x1.8fe60c953712cp-8, 0x1.8fe60c953712cp-8,
       0x1.66206caf838fcp-8, 0x1.0c985183a2abcp-6, 0x1.bfa887db6473ap-6},
      {0x1.3f686776f0322p+4, 0x1.82599d144185ap+1, 0x1.26f22072405a1p+2,
       0x1.e2c7340226cacp-8, 0x1.a55ab2827b5fap-2, 0x1.fcb2d58a3deaep-5,
       0x1.fcb2d58a3deaep-5, 0x1.6f6ece6198b1cp-6, 0x1.37bbc17bf2795p-2,
       0x1.89997fb953a72p-4, 0x1.89997fb953a72p-4, 0x1.36c910c8ec8e5p-5,
       0x1.cf3a70bc6a77ap+5, 0x1.0ef9f95444026p-3, 0x1.0ef9f95444026p-3,
       0x1.c1556e5192afdp-4, 0x1.510012bd2e03ep-2, 0x1.18d564f2fbadep-1,
       0x1.df4a0f45f1ccap-8, 0x1.2b8e498bb71fep-2, 0x1.df4a0f45f1ccap-5,
       0x1.df4a0f45f1ccap-5, 0x1.67778b7475598p-6, 0x1.df4a0f45f1ccap-3,
       0x1.67778b7475598p-4, 0x1.67778b7475598p-4, 0x1.2b8e498bb71fep-5,
       0x1.fd3eb03a50e96p-1, 0x1.df4a0f45f1ccap-4, 0x1.df4a0f45f1ccap-4,
       0x1.c1556e5192afdp-4, 0x1.510012bd2e03ep-2, 0x1.18d564f2fbadep-1,
       0x1.82f04506f4475p-12, 0x1.51b557c161265p-6, 0x1.97b69dc00162fp-9,
       0x1.97b69dc00162fp-9, 0x1.267dc19f5015fp-10, 0x1.f3b2bc1b9b896p-7,
       0x1.3b76a5568e46ep-8, 0x1.3b76a5568e46ep-8, 0x1.f22db5e4cd074p-10,
       0x1.73450956f4225p+1, 0x1.b25dbbced132ap-8, 0x1.b25dbbced132ap-8,
       0x1.6822273ca5d03p-8, 0x1.0e199d6d7c5c3p-6, 0x1.c22ab10bcf444p-6,
       0x1.3ac3815e76079p+2, 0x1.24d604509c186p+1, 0x1.98398d2a7e5a5p+3,
       0x1.088478b45f83bp+1, 0x1.3ec92424ab1b1p+0, 0x1.da056ef1cdd2p+1,
       0x1.44ac25d8b82cep-10, 0x1.1ba4a5b392a86p-4, 0x1.562a2affc4cebp-7,
       0x1.562a2affc4cebp-7, 0x1.ee3a7e6bc91f5p-9, 0x1.a39d693dacf3fp-5,
       0x1.08c5d12f925f1p-6, 0x1.08c5d12f925f1p-6, 0x1.a20dd40ec870ep-8,
       0x1.38940f9ef2d29p+3, 0x1.6c9b2d1dae784p-6, 0x1.6c9b2d1dae784p-6,
       0x1.2e2c533bf66dap-6, 0x1.c5427cd9f1a48p-5, 0x1.79b7680af4091p-4,
       0x1.6a7a2fde7af52p-12, 0x1.3d137d31965c8p-6, 0x1.7e18211108ffcp-9,
       0x1.7e18211108ffcp-9, 0x1.13e806c1fed4ep-10, 0x1.d4f3ad1b74189p-7,
       0x1.27b5afc471d67p-8, 0x1.27b5afc471d67p-8, 0x1.d2cb279c6881ep-10,
       0x1.5e849555be34bp+1, 0x1.9742f3e5fd71ep-8, 0x1.9742f3e5fd71ep-8,
       0x1.5158d9f67661bp-8, 0x1.fa0546f1b1929p-7, 0x1.a5af107413fa2p-6,
       0x1.7af4878e11104p-8, 0x1.4aa051427d4fcp-2, 0x1.8f46c8b93c273p-5,
       0x1.8f46c8b93c273p-5, 0x1.2068fe27ffa09p-6, 0x1.e940edd6c2742p-3,
       0x1.34ecb07127f1fp-4, 0x1.34ecb07127f1fp-4, 0x1.e7e1fa1460784p-6,
       0x1.6b2d237f51dfbp+5, 0x1.a958f822bc8fap-4, 0x1.a958f822bc8fap-4,
       0x1.60b4cbe32dae5p-4, 0x1.088798ea6242cp-2, 0x1.b8e1fedbf919ep-2},
      {0x1.2f68a0ed8405ep+4, 0x1.a3a060ada5d48p+2, 0x1.007fb813c8923p+3,
       0x1.e4bc35aa095bbp-8, 0x1.a89d3220aae9p-2, 0x1.ff037e97dcc61p-5,
       0x1.ff037e97dcc61p-5, 0x1.70f8fa54e4f76p-6, 0x1.39d717e4388cfp-2,
       0x1.8b8335833eb62p-4, 0x1.8b8335833eb62p-4, 0x1.3821adc9b1e16p-5,
       0x1.e7e14bd5408f6p+6, 0x1.1061fa045cf99p-3, 0x1.1061fa045cf99p-3,
       0x1.c3200918b0906p-4, 0x1.525806d2846c5p-2, 0x1.19f405af6e5a4p-1,
       0x1.e1333ce722bc3p-8, 0x1.2cc0061075b5ap-2, 0x1.e1333ce722bc3p-5,
       0x1.e1333ce722bc3p-5, 0x1.68e66dad5a0d2p-6, 0x1.e1333ce722bc3p-3,
       0x1.68e66dad5a0d2p-4, 0x1.68e66dad5a0d2p-4, 0x1.2cc0061075b5ap-5,
       0x1.ff4670b594e7fp-1, 0x1.e1333ce722bc3p-4, 0x1.e1333ce722bc3p-4,
       0x1.c3200918b0906p-4, 0x1.525806d2846c5p-2, 0x1.19f405af6e5a4p-1,
       0x1.98fe5a98c0de9p-12, 0x1.66443dd62d0b2p-6, 0x1.af2a79e9d323ep-9,
       0x1.af2a79e9d323ep-9, 0x1.3751bbec407acp-10, 0x1.08cd31e85b9d8p-6,
       0x1.4db65793ed634p-8, 0x1.4db65793ed634p-8, 0x1.075c20c976a6cp-9,
       0x1.9ba5a48ebe2adp+2, 0x1.cba4d504d365dp-8, 0x1.cba4d504d365dp-8,
       0x1.7ca29cf1c2acap-8, 0x1.1d79f5b552018p-6, 0x1.dbcb442e3357dp-6,
       0x1.9a55571c16a23p+1, 0x1.d51223c8036e7p+0, 0x1.bd99a79b01f57p+3,
       0x1.0f48fcd0d2b53p+2, 0x1.46497872ea9cbp+1, 0x1.e78698b8135b4p+2,
       0x1.a745b2cdedd9ap-11, 0x1.72ea26026cbd2p-5, 0x1.be3fc1b169f8fp-8,
       0x1.be3fc1b169f8fp-8, 0x1.4231ba131c41cp-9, 0x1.1220f3df72b21p-5,
       0x1.5966516ac4b8p-7, 0x1.5966516ac4b8p-7, 0x1.109098e810836p-8,
       0x1.aa9300bc34913p+3, 0x1.dbc29baf63932p-7, 0x1.dbc29baf63932p-7,
       0x1.89eb86d348edap-7, 0x1.2770a51e76b23p-5, 0x1.ec6668881b29p-5,
       0x1.225276fb5bfbbp-12, 0x1.fd2916efbac2cp-7, 0x1.321e60e465d85p-9,
       0x1.321e60e465d85p-9, 0x1.ba0031dd45374p-11, 0x1.783fd579b5945p-7,
       0x1.d9e880ede2f46p-9, 0x1.d9e880ede2f46p-9, 0x1.75ee012717f88p-10,
       0x1.25434f3ef2e22p+2, 0x1.466855c3e1171p-8, 0x1.466855c3e1171p-8,
       0x1.0e2f5000850c6p-8, 0x1.9546f800c792ap-7, 0x1.51bb2400a64f8p-6,
       0x1.9dae57e095e0cp-8, 0x1.6a56a4a8df7b4p-2, 0x1.b419a05369297p-5,
       0x1.b419a05369297p-5, 0x1.3ae2c18397457p-6, 0x1.0bd0fabc7c8a1p-2,
       0x1.5187274e77078p-4, 0x1.5187274e77078p-4, 0x1.0a602aa377113p-5,
       0x1.a03ab6c9cacf1p+6, 0x1.d0e51b368f6f5p-4, 0x1.d0e51b368f6f5p-4,
       0x1.80ffa33e3f21fp-4, 0x1.20bfba6eaf597p-2, 0x1.e13f8c0dceea6p-2}};
  expect_series_golden(kSchweitzer, fleet_mix, 120, 63, kGolden);
}

}  // namespace
}  // namespace mtperf::core
