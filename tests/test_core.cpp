// Unit and property tests for mtperf::core — the MVA family.
//
// Exactness anchors:
//  * closed-form results for single-queue and balanced networks,
//  * an independent birth-death oracle for machine-repair (M/M/C//N)
//    models with think time,
//  * a long-double convolution oracle for product-form networks
//    (convolution_oracle.hpp), itself checked against exact MVA and the
//    birth-death oracle,
//  * the operational-analysis bounds every prediction must respect.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <tuple>

#include "apps/jpetstore.hpp"
#include "apps/vins.hpp"
#include "common/error.hpp"
#include "convolution_oracle.hpp"
#include "core/demand_model.hpp"
#include "core/detail/batch_engine.hpp"
#include "core/detail/hierarchy_engine.hpp"
#include "core/detail/multiclass_batch_engine.hpp"
#include "core/detail/multiclass_engine.hpp"
#include "core/detail/mva_approx_multiserver.hpp"
#include "core/detail/mva_schweitzer.hpp"
#include "core/network.hpp"
#include "core/prediction.hpp"
#include "core/seidmann.hpp"
#include "core/sweep.hpp"
#include "golden_rows.hpp"
#include "interp/cubic_spline.hpp"
#include "interp/polynomial.hpp"
#include "ops/bounds.hpp"

namespace mtperf::core {
namespace {

// SolveDispatch ties each SolverKind to the kernel core::solve runs for it.
using detail::schweitzer_mva;

/// Birth-death oracle for the machine-repair model: N customers, think time
/// Z (exponential), one station with C servers of mean service time S.
/// Returns system throughput at population N.
double machine_repair_throughput(unsigned n_customers, double z, double s,
                                 unsigned servers) {
  // State j = customers at the station.  lambda(j) = (N - j)/Z,
  // mu(j) = min(j, C)/S.  pi via the product form of birth-death chains.
  std::vector<double> pi(n_customers + 1, 0.0);
  pi[0] = 1.0;
  for (unsigned j = 1; j <= n_customers; ++j) {
    const double lambda = static_cast<double>(n_customers - (j - 1)) / z;
    const double mu = static_cast<double>(std::min(j, servers)) / s;
    pi[j] = pi[j - 1] * lambda / mu;
  }
  double total = 0.0;
  for (double p : pi) total += p;
  for (double& p : pi) p /= total;
  double x = 0.0;
  for (unsigned j = 1; j <= n_customers; ++j) {
    x += pi[j] * static_cast<double>(std::min(j, servers)) / s;
  }
  return x;
}

ClosedNetwork single_station(unsigned servers, double z) {
  return ClosedNetwork({Station{"st", 1.0, servers, StationKind::kQueueing}}, z);
}

/// Algorithm 1 through the facade.
MvaResult exact_single_server(const ClosedNetwork& network,
                              const std::vector<double>& service_times,
                              unsigned max_population) {
  return solve(network, DemandModel::constant(service_times),
               {SolverKind::kExactSingleServer, max_population});
}

/// Algorithm 2: the mvasd kind over constant demands.
MvaResult exact_multiserver(const ClosedNetwork& network,
                            const std::vector<double>& service_times,
                            unsigned max_population) {
  return solve(network, DemandModel::constant(service_times),
               {SolverKind::kMvasd, max_population});
}

/// Algorithm 3 through the facade.
MvaResult mvasd(const ClosedNetwork& network, const DemandModel& demands,
                unsigned max_population) {
  return solve(network, demands, {SolverKind::kMvasd, max_population});
}

/// Marginal probabilities P(j | n) of one station (the first by default),
/// from the kernel's trace hook on a one-lane block.
std::vector<std::vector<double>> marginal_trace(const ClosedNetwork& network,
                                                const DemandModel& demands,
                                                unsigned max_population,
                                                std::size_t station = 0) {
  detail::MarginalTrace trace;
  trace.station = station;
  std::vector<detail::BatchLane> lane(1);
  lane[0].network = &network;
  lane[0].demands = &demands;
  lane[0].max_population = max_population;
  lane[0].trace = &trace;
  detail::solve_lane_block(lane);
  return std::move(trace.rows);
}

/// Largest relative difference |a - b| / |b| over two series.
double max_rel_error(const std::vector<double>& a,
                     const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]) / std::abs(b[i]));
  }
  return worst;
}

// --------------------------------------------------------------- network

TEST(Network, Validation) {
  EXPECT_THROW(ClosedNetwork({}, 1.0), invalid_argument_error);
  EXPECT_THROW(ClosedNetwork({Station{"a", 1.0, 0}}, 1.0),
               invalid_argument_error);
  EXPECT_THROW(ClosedNetwork({Station{"a", -1.0, 1}}, 1.0),
               invalid_argument_error);
  EXPECT_THROW(ClosedNetwork({Station{"a", 1.0, 1}}, -1.0),
               invalid_argument_error);
}

TEST(Network, IndexLookup) {
  const auto net = make_network({"a", "b"}, {1, 2}, 0.5);
  EXPECT_EQ(net.index_of("b"), 1u);
  EXPECT_THROW(net.index_of("c"), invalid_argument_error);
  EXPECT_EQ(net.station(1).servers, 2u);
}

// -------------------------------------------------------------- exact MVA

TEST(ExactMva, SingleQueueNoThinkSaturatesImmediately) {
  // One queue, Z = 0: all customers queue, X = 1/S, R = n S.
  const auto net = single_station(1, 0.0);
  const std::vector<double> s{0.25};
  const auto r = exact_single_server(net, s, 10);
  for (std::size_t i = 0; i < r.levels(); ++i) {
    EXPECT_NEAR(r.throughput[i], 4.0, 1e-12);
    EXPECT_NEAR(r.response_time[i], 0.25 * static_cast<double>(i + 1), 1e-12);
  }
}

TEST(ExactMva, MachineRepairMatchesBirthDeathOracle) {
  const auto net = single_station(1, 2.0);
  const std::vector<double> s{0.5};
  const auto r = exact_single_server(net, s, 20);
  for (unsigned n = 1; n <= 20; ++n) {
    EXPECT_NEAR(r.throughput[r.row_for(n)],
                machine_repair_throughput(n, 2.0, 0.5, 1), 1e-9)
        << "n=" << n;
  }
}

TEST(ExactMva, BalancedNetworkClosedForm) {
  // K identical single-server queues, Z = 0: X(n) = n / (S (K + n - 1)).
  const auto net = make_network({"a", "b", "c"}, {1, 1, 1}, 0.0);
  const std::vector<double> s{0.2, 0.2, 0.2};
  const auto r = exact_single_server(net, s, 15);
  for (unsigned n = 1; n <= 15; ++n) {
    const double expected =
        static_cast<double>(n) / (0.2 * (3.0 + static_cast<double>(n) - 1.0));
    EXPECT_NEAR(r.throughput[r.row_for(n)], expected, 1e-12);
  }
}

TEST(ExactMva, LittlesLawHoldsExactlyAtEveryLevel) {
  const auto net = make_network({"a", "b"}, {1, 1}, 1.5);
  const std::vector<double> s{0.1, 0.3};
  const auto r = exact_single_server(net, s, 50);
  for (std::size_t i = 0; i < r.levels(); ++i) {
    EXPECT_NEAR(r.throughput[i] * r.cycle_time[i],
                static_cast<double>(r.population[i]), 1e-9);
  }
}

TEST(ExactMva, CustomersConservedAcrossQueuesAndThink) {
  const auto net = make_network({"a", "b"}, {1, 1}, 2.0);
  const std::vector<double> s{0.1, 0.3};
  const auto r = exact_single_server(net, s, 30);
  for (std::size_t i = 0; i < r.levels(); ++i) {
    const double in_queues = r.queue(i, 0) + r.queue(i, 1);
    const double thinking = r.throughput[i] * 2.0;
    EXPECT_NEAR(in_queues + thinking, static_cast<double>(r.population[i]),
                1e-9);
  }
}

TEST(ExactMva, ThroughputMonotoneAndBounded) {
  const auto net = make_network({"a", "b", "c"}, {1, 1, 1}, 1.0);
  const std::vector<double> s{0.05, 0.12, 0.03};
  const auto r = exact_single_server(net, s, 200);
  ops::BoundsInput bounds{s, 1.0};
  double prev = 0.0;
  for (std::size_t i = 0; i < r.levels(); ++i) {
    EXPECT_GE(r.throughput[i], prev - 1e-12);
    prev = r.throughput[i];
    EXPECT_LE(r.throughput[i],
              ops::throughput_upper_bound(
                  bounds, static_cast<double>(r.population[i])) + 1e-9);
    EXPECT_GE(r.response_time[i],
              ops::response_time_lower_bound(
                  bounds, static_cast<double>(r.population[i])) - 1e-9);
  }
  // Saturation: X -> 1/Dmax.
  EXPECT_NEAR(r.throughput.back(), 1.0 / 0.12, 1e-3);
}

TEST(ExactMva, BalancedJobBoundsSandwichExactSolution) {
  const auto net = make_network({"a", "b", "c"}, {1, 1, 1}, 0.75);
  const std::vector<double> s{0.08, 0.10, 0.06};
  const auto r = exact_single_server(net, s, 60);
  ops::BoundsInput in{s, 0.75};
  for (unsigned n : {1u, 5u, 15u, 40u, 60u}) {
    const auto bjb = ops::balanced_job_bounds(in, n);
    const double x = r.throughput[r.row_for(n)];
    EXPECT_GE(x, bjb.throughput_lower - 1e-9) << "n=" << n;
    EXPECT_LE(x, bjb.throughput_upper + 1e-9) << "n=" << n;
  }
}

TEST(ExactMva, DelayStationAddsPureLatency) {
  // A delay station never queues: throughput matches an equivalent think
  // time increase.
  const ClosedNetwork with_delay(
      {Station{"q", 1.0, 1, StationKind::kQueueing},
       Station{"d", 1.0, 1, StationKind::kDelay}},
      1.0);
  const auto net_bigger_z = single_station(1, 1.5);
  const std::vector<double> s2{0.2, 0.5};
  const std::vector<double> s1{0.2};
  const auto a = exact_single_server(with_delay, s2, 25);
  const auto b = exact_single_server(net_bigger_z, s1, 25);
  for (std::size_t i = 0; i < a.levels(); ++i) {
    EXPECT_NEAR(a.throughput[i], b.throughput[i], 1e-9);
  }
}

TEST(ExactMva, VisitCountsFoldIntoDemands) {
  // V=3, S=0.1 must behave exactly like V=1, S=0.3.
  const ClosedNetwork visits(
      {Station{"q", 3.0, 1, StationKind::kQueueing}}, 1.0);
  const ClosedNetwork folded(
      {Station{"q", 1.0, 1, StationKind::kQueueing}}, 1.0);
  const auto a = exact_single_server(visits, std::vector<double>{0.1}, 20);
  const auto b = exact_single_server(folded, std::vector<double>{0.3}, 20);
  for (std::size_t i = 0; i < a.levels(); ++i) {
    EXPECT_NEAR(a.throughput[i], b.throughput[i], 1e-12);
    EXPECT_NEAR(a.response_time[i], b.response_time[i], 1e-12);
  }
}

TEST(ExactMva, Validation) {
  const auto net = single_station(1, 1.0);
  EXPECT_THROW(exact_single_server(net, std::vector<double>{0.1, 0.2}, 5),
               invalid_argument_error);
  EXPECT_THROW(exact_single_server(net, std::vector<double>{-0.1}, 5),
               invalid_argument_error);
  EXPECT_THROW(exact_single_server(net, std::vector<double>{0.1}, 0),
               invalid_argument_error);
}

// -------------------------------------------------------------- Schweitzer

TEST(Schweitzer, ExactAtPopulationOne) {
  const auto net = make_network({"a", "b"}, {1, 1}, 1.0);
  const std::vector<double> s{0.2, 0.4};
  const auto approx = schweitzer_mva(net, s, 1);
  const auto exact = oracle::solve(net, s, 1, /*with_queues=*/false);
  EXPECT_NEAR(approx.throughput[0], exact.throughput[0], 1e-8);
}

TEST(Schweitzer, WithinAFewPercentOfExact) {
  const auto net = make_network({"a", "b", "c"}, {1, 1, 1}, 1.0);
  const std::vector<double> s{0.05, 0.12, 0.03};
  const auto approx = schweitzer_mva(net, s, 100);
  const auto exact = oracle::solve(net, s, 100, /*with_queues=*/false);
  for (unsigned n : {5u, 20u, 50u, 100u}) {
    const double a = approx.throughput[approx.row_for(n)];
    const double e = exact.throughput[n - 1];
    EXPECT_NEAR(a, e, 0.05 * e) << "n=" << n;
  }
}

TEST(Schweitzer, RespectsAsymptoticBounds) {
  const auto net = make_network({"a", "b"}, {1, 1}, 0.5);
  const std::vector<double> s{0.07, 0.11};
  const auto r = schweitzer_mva(net, s, 150);
  ops::BoundsInput bounds{s, 0.5};
  for (std::size_t i = 0; i < r.levels(); ++i) {
    EXPECT_LE(r.throughput[i],
              ops::throughput_upper_bound(
                  bounds, static_cast<double>(r.population[i])) + 1e-6);
  }
}

// ----------------------------------------------------- multi-server exact

TEST(MultiServer, SingleServerReducesToExactMva) {
  // Exact MVA's answer on single-server stations, from the oracle.
  const auto net = make_network({"a", "b"}, {1, 1}, 1.0);
  const std::vector<double> s{0.1, 0.25};
  const auto ms = exact_multiserver(net, s, 40);
  const auto ex = oracle::solve(net, s, 40, /*with_queues=*/false);
  ASSERT_EQ(ms.levels(), ex.throughput.size());
  for (std::size_t i = 0; i < ms.levels(); ++i) {
    EXPECT_NEAR(ms.throughput[i], ex.throughput[i], 1e-12);
    EXPECT_NEAR(ms.response_time[i], ex.response_time[i], 1e-12);
  }
}

class MachineRepairMultiServer
    : public ::testing::TestWithParam<std::tuple<unsigned, double, double>> {};

TEST_P(MachineRepairMultiServer, MatchesBirthDeathOracle) {
  const auto [servers, s, z] = GetParam();
  const auto net = single_station(servers, z);
  const std::vector<double> demands{s};
  const unsigned n_max = 4 * servers + 12;
  const auto r = exact_multiserver(net, demands, n_max);
  for (unsigned n = 1; n <= n_max; ++n) {
    const double oracle = machine_repair_throughput(n, z, s, servers);
    EXPECT_NEAR(r.throughput[r.row_for(n)], oracle, 0.002 * oracle)
        << "C=" << servers << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MachineRepairMultiServer,
    ::testing::Values(std::make_tuple(2u, 1.0, 1.0),
                      std::make_tuple(4u, 0.5, 1.0),
                      std::make_tuple(4u, 2.0, 3.0),
                      std::make_tuple(8u, 0.25, 0.5),
                      std::make_tuple(16u, 1.0, 2.0)));

TEST(MultiServer, AgreesWithLoadDependentRecursion) {
  // The load-dependent reference is the convolution oracle with each
  // station's law alpha(j) = min(j, C).
  const ClosedNetwork net(
      {Station{"cpu", 1.0, 8, StationKind::kQueueing},
       Station{"disk", 1.0, 1, StationKind::kQueueing},
       Station{"db", 1.0, 4, StationKind::kQueueing}},
      2.0);
  const std::vector<double> s{0.04, 0.012, 0.06};
  const auto ms = exact_multiserver(net, s, 150);
  const auto ld = oracle::solve(net, s, 150);
  for (unsigned n : {1u, 5u, 20u, 60u, 100u, 150u}) {
    const double a = ms.throughput[ms.row_for(n)];
    const double b = ld.throughput[n - 1];
    EXPECT_NEAR(a, b, 1e-12 * b) << "n=" << n;
  }
}

TEST(MultiServer, MatchesConvolutionOracleUpToSixteenServers) {
  // DESIGN.md section 2a, finding 1: on M/M/C//N models the recursion is
  // exact to full double precision up to C = 8 and loses digits past it,
  // 2.7e-7 at C = 16 (the idle identity P(0) = 1 - sum cancels near the
  // knee).  Pin both sides of that statement at N = 3C.
  for (const unsigned c : {1u, 2u, 4u, 8u, 16u}) {
    SCOPED_TRACE("C = " + std::to_string(c));
    const auto net = single_station(c, 1.0);
    const std::vector<double> s{1.0};
    const auto r = exact_multiserver(net, s, 3 * c);
    const auto exact = oracle::solve(net, s, 3 * c, /*with_queues=*/false);
    const double err = max_rel_error(r.throughput, exact.throughput);
    EXPECT_LT(err, c <= 8 ? 1e-12 : 1e-6);
    for (unsigned n = 1; n <= 3 * c; ++n) {
      EXPECT_NEAR(r.throughput[n - 1],
                  machine_repair_throughput(n, 1.0, 1.0, c),
                  (c <= 8 ? 1e-12 : 1e-6) * r.throughput[n - 1]);
    }
  }
}

TEST(MultiServer, ThroughputMonotoneAndBottleneckBounded) {
  const ClosedNetwork net(
      {Station{"cpu", 1.0, 8, StationKind::kQueueing},
       Station{"disk", 1.0, 1, StationKind::kQueueing}},
      1.0);
  const std::vector<double> s{0.08, 0.012};
  const auto r = exact_multiserver(net, s, 400);
  double prev = 0.0;
  for (std::size_t i = 0; i < r.levels(); ++i) {
    // Near saturation the stabilized marginal-probability recursion can dip
    // by a fraction of a percent; require monotonicity up to that noise.
    EXPECT_GE(r.throughput[i], prev * (1.0 - 2e-3));
    prev = std::max(prev, r.throughput[i]);
    // Capacity bound: min over stations of C_k / D_k (up to the same
    // saturation-region numerical noise).
    EXPECT_LE(r.throughput[i],
              std::min(8.0 / 0.08, 1.0 / 0.012) * (1.0 + 1e-3));
  }
  EXPECT_NEAR(r.throughput.back(), 1.0 / 0.012, 0.05 / 0.012);
}

TEST(MultiServer, MarginalTraceIsDistribution) {
  const auto net = single_station(4, 1.0);
  const auto rows = marginal_trace(net, DemandModel::constant({0.5}), 60);
  ASSERT_EQ(rows.size(), 60u);
  for (const auto& row : rows) {
    ASSERT_EQ(row.size(), 4u);
    double sum = 0.0;
    for (double p : row) {
      EXPECT_GE(p, -1e-12);
      EXPECT_LE(p, 1.0 + 1e-12);
      sum += p;
    }
    EXPECT_LE(sum, 1.0 + 1e-9);
  }
}

TEST(MultiServer, MarginalsVanishAtSaturation) {
  // Saturated 4-core station: queueing dominates and P(j < C) -> 0.
  const auto net = single_station(4, 0.5);
  const auto rows = marginal_trace(net, DemandModel::constant({1.0}), 100);
  for (double p : rows.back()) {
    EXPECT_NEAR(p, 0.0, 1e-6);
  }
}

TEST(MultiServer, NormalizedSingleServerDistortsLightLoad) {
  // Fig. 8's root cause: dividing the demand by the core count erases the
  // service-time floor.  At light load a job on the real C-server station
  // still needs the full S seconds (R = S below C customers), while the
  // normalized model promises S/C — so the normalization *underestimates*
  // response time and *overestimates* throughput before saturation.  Both
  // models share the C/S saturation ceiling.
  const auto ms_net = single_station(8, 1.0);
  const auto ss_net = single_station(1, 1.0);
  const auto ms = exact_multiserver(ms_net, std::vector<double>{0.8}, 200);
  const auto ss = exact_single_server(ss_net, std::vector<double>{0.1}, 200);
  // At n <= C, the multi-server station has no queueing at all: R = S.
  EXPECT_NEAR(ms.response_time[ms.row_for(6)], 0.8, 0.01);
  EXPECT_LT(ss.response_time[ss.row_for(6)], 0.2);
  EXPECT_GT(ss.throughput[ss.row_for(6)], ms.throughput[ms.row_for(6)]);
  // Same asymptote: C / S = 10.
  EXPECT_NEAR(ms.throughput.back(), 10.0, 0.1);
  EXPECT_NEAR(ss.throughput.back(), 10.0, 0.1);
}

// ------------------------------------------------------------ DemandModel

TEST(DemandModel, ConstantModel) {
  const auto m = DemandModel::constant({0.1, 0.2});
  EXPECT_TRUE(m.is_constant());
  EXPECT_EQ(m.stations(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 5.0), 0.1);
  EXPECT_DOUBLE_EQ(m.at(1, 500.0), 0.2);
  EXPECT_EQ(m.all_at(1.0), (std::vector<double>{0.1, 0.2}));
}

TEST(DemandModel, InterpolatedEvaluatesSpline) {
  auto spline = std::make_shared<interp::PiecewiseCubic>(
      interp::build_cubic_spline(interp::SampleSet({1, 10}, {1.0, 0.5})));
  const auto m = DemandModel::interpolated({spline});
  EXPECT_DOUBLE_EQ(m.at(0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(m.at(0, 100.0), 0.5);  // pegged
}

TEST(DemandModel, ClampsNegativeInterpolantsToZero) {
  auto spline = std::make_shared<interp::PiecewiseCubic>(
      interp::build_cubic_spline(interp::SampleSet({0, 1}, {-1.0, -0.5})));
  const auto m = DemandModel::interpolated({spline});
  EXPECT_DOUBLE_EQ(m.at(0, 0.5), 0.0);
}

TEST(DemandModel, Validation) {
  EXPECT_THROW(DemandModel::constant({}), invalid_argument_error);
  EXPECT_THROW(DemandModel::constant({-0.1}), invalid_argument_error);
  EXPECT_THROW(DemandModel::interpolated({nullptr}), invalid_argument_error);
  const auto m = DemandModel::constant({0.1});
  EXPECT_THROW(m.at(1, 1.0), invalid_argument_error);
}

TEST(DemandModel, AllAtOutParamMatchesReturningOverload) {
  auto spline = std::make_shared<interp::PiecewiseCubic>(
      interp::build_cubic_spline(interp::SampleSet({1, 10}, {1.0, 0.5})));
  const auto m = DemandModel::interpolated({spline, spline});
  std::vector<double> out;
  for (double x : {1.0, 3.7, 10.0, 50.0}) {
    m.all_at(x, out);
    EXPECT_EQ(out, m.all_at(x)) << "x=" << x;
  }
}

// -------------------------------------------------------------- DemandGrid

/// Spline demand model through an application's ground-truth demand laws,
/// sampled at campaign-like concurrency knots — the same shape the
/// prediction pipeline feeds the solvers.
DemandModel app_spline_demands(const workload::ApplicationModel& app,
                               const std::vector<double>& knots) {
  const std::size_t k_count = app.stations().size();
  std::vector<std::shared_ptr<const interp::Interpolator1D>> splines;
  for (std::size_t k = 0; k < k_count; ++k) {
    std::vector<double> ys;
    for (double n : knots) ys.push_back(app.true_demand(k, n));
    splines.push_back(std::make_shared<interp::PiecewiseCubic>(
        interp::build_cubic_spline(interp::SampleSet(knots, ys))));
  }
  return DemandModel::interpolated(std::move(splines));
}

TEST(DemandGrid, BitIdenticalToModelAtOnVinsShapedSplines) {
  const auto app = apps::make_vins();
  const auto model =
      app_spline_demands(app, {1, 50, 200, 500, 900, 1500});
  constexpr unsigned kMax = 2000;  // runs past the knots into extrapolation
  const DemandGrid grid(model, kMax);
  ASSERT_TRUE(grid.tabulated());
  EXPECT_EQ(grid.row_stride(), model.stations());
  for (unsigned n = 1; n <= kMax; ++n) {
    const double* row = grid.row(n);
    for (std::size_t k = 0; k < model.stations(); ++k) {
      ASSERT_EQ(row[k], model.at(k, static_cast<double>(n)))
          << "n=" << n << " k=" << k;
      ASSERT_EQ(grid.at(n, k), row[k]);
    }
  }
}

TEST(DemandGrid, BitIdenticalToModelAtOnJPetStoreShapedSplines) {
  const auto app = apps::make_jpetstore();
  const auto model = app_spline_demands(app, {1, 40, 120, 200, 280});
  constexpr unsigned kMax = 400;
  const DemandGrid grid(model, kMax);
  ASSERT_TRUE(grid.tabulated());
  for (unsigned n = 1; n <= kMax; ++n) {
    for (std::size_t k = 0; k < model.stations(); ++k) {
      ASSERT_EQ(grid.at(n, k), model.at(k, static_cast<double>(n)))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(DemandGrid, ConstantModelTabulates) {
  const auto m = DemandModel::constant({0.1, 0.2, 0.3});
  const DemandGrid grid(m, 100);
  ASSERT_TRUE(grid.tabulated());
  for (unsigned n : {1u, 42u, 100u}) {
    EXPECT_DOUBLE_EQ(grid.at(n, 0), 0.1);
    EXPECT_DOUBLE_EQ(grid.at(n, 1), 0.2);
    EXPECT_DOUBLE_EQ(grid.at(n, 2), 0.3);
  }
}

TEST(DemandGrid, ThroughputAxisEvalIntoMatchesModelAt) {
  auto spline = std::make_shared<interp::PiecewiseCubic>(
      interp::build_cubic_spline(
          interp::SampleSet({0.5, 25.0, 50.0}, {0.02, 0.015, 0.012})));
  const auto m = DemandModel::interpolated(
      {spline, spline}, DemandModel::Axis::kThroughput);
  const DemandGrid grid(m, 100);
  EXPECT_FALSE(grid.tabulated());
  std::vector<double> out(2);
  // MVA feeds non-decreasing throughputs; verify against the slow path.
  for (double x : {0.0, 0.5, 3.0, 17.5, 25.0, 44.0, 49.9, 60.0, 80.0}) {
    grid.eval_into(x, out.data());
    for (std::size_t k = 0; k < 2; ++k) {
      ASSERT_EQ(out[k], m.at(k, x)) << "x=" << x << " k=" << k;
    }
  }
}

TEST(DemandGrid, ClampsNegativeSplineValuesLikeModelAt) {
  auto spline = std::make_shared<interp::PiecewiseCubic>(
      interp::build_cubic_spline(interp::SampleSet({0, 10}, {-1.0, -0.5})));
  const auto m = DemandModel::interpolated({spline});
  const DemandGrid grid(m, 10);
  for (unsigned n = 1; n <= 10; ++n) {
    EXPECT_DOUBLE_EQ(grid.at(n, 0), 0.0);
  }
}

/// Every entry of a grid over `model` for n = 1..n_max equals
/// DemandModel::at bit for bit.
void expect_grid_matches_model(const DemandModel& model, unsigned n_max) {
  const DemandGrid grid(model, n_max);
  ASSERT_TRUE(grid.tabulated());
  ASSERT_EQ(grid.row_stride(), model.stations());
  for (unsigned n = 1; n <= n_max; ++n) {
    const double* row = grid.row(n);
    for (std::size_t k = 0; k < model.stations(); ++k) {
      const double want = model.at(k, static_cast<double>(n));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(row[k]),
                std::bit_cast<std::uint64_t>(want))
          << "n=" << n << " k=" << k << ": " << row[k] << " vs " << want;
    }
  }
}

std::shared_ptr<const interp::Interpolator1D> spline_through(
    std::vector<double> x, std::vector<double> y,
    interp::Extrapolation extrapolation = interp::Extrapolation::kPegged) {
  interp::CubicSplineOptions options;
  options.extrapolation = extrapolation;
  return std::make_shared<interp::PiecewiseCubic>(interp::build_cubic_spline(
      interp::SampleSet(std::move(x), std::move(y)), options));
}

TEST(DemandGrid, EveryExtrapolationPolicyPastBothEnds) {
  // Each station's knots start above n = 1 and end below n_max, so rows at
  // both ends extrapolate, some stations sooner than others.
  for (const interp::Extrapolation policy :
       {interp::Extrapolation::kPegged, interp::Extrapolation::kLinear,
        interp::Extrapolation::kNatural}) {
    SCOPED_TRACE(static_cast<int>(policy));
    const auto model = DemandModel::interpolated(
        {spline_through({3.5, 9.0, 20.25, 41.0}, {0.02, 0.03, 0.025, 0.04},
                        policy),
         spline_through({2.0, 5.5, 33.0}, {0.011, 0.009, 0.013}, policy),
         spline_through({1.5, 12.0, 30.0, 50.75}, {0.05, 0.045, 0.06, 0.058},
                        policy)});
    expect_grid_matches_model(model, 64);
  }
}

TEST(DemandGrid, ThrowPolicyStillThrowsPastTheLastKnot) {
  const auto model = DemandModel::interpolated(
      {spline_through({1.0, 10.0, 40.0}, {0.02, 0.03, 0.025},
                      interp::Extrapolation::kThrow),
       spline_through({1.0, 4.0, 25.0, 45.5}, {0.01, 0.012, 0.011, 0.02},
                      interp::Extrapolation::kThrow)});
  expect_grid_matches_model(model, 40);
  EXPECT_THROW(model.at(0, 41.0), invalid_argument_error);
  EXPECT_THROW(DemandGrid(model, 41), invalid_argument_error);
  EXPECT_THROW(DemandGrid(model, 500), invalid_argument_error);
}

TEST(DemandGrid, NonIntegerKnotsBelowOneAndAboveTheTable) {
  const auto model = DemandModel::interpolated(
      {spline_through({-3.5, 0.25, 4.75, 17.3, 63.9, 250.0},
                      {0.02, 0.021, 0.026, 0.024, 0.03, 0.05}),
       spline_through({0.5, 1.0, 2.0, 3.0, 7.5, 8.0, 99.99},
                      {0.01, 0.011, 0.0115, 0.012, 0.013, 0.0131, 0.02}),
       spline_through({1.0, 7.0, 8.0, 100.0}, {0.04, 0.038, 0.037, 0.03}),
       spline_through({0.001, 1e6}, {0.006, 0.009})});
  expect_grid_matches_model(model, 100);
  expect_grid_matches_model(model, 37);
}

TEST(DemandGrid, SingleKnotCubicsTabulateLikeModelAt) {
  // The graph compiler's constant_curve: one knot at 1, pegged.
  const auto constant = std::make_shared<interp::PiecewiseCubic>(
      std::vector<double>{1.0}, std::vector<double>{0.02},
      std::vector<double>{0.0}, std::vector<double>{0.0},
      std::vector<double>{0.0}, interp::Extrapolation::kPegged, "constant");
  const auto inside = std::make_shared<interp::PiecewiseCubic>(
      std::vector<double>{17.0}, std::vector<double>{0.007},
      std::vector<double>{0.0}, std::vector<double>{0.0},
      std::vector<double>{0.0}, interp::Extrapolation::kPegged, "constant");
  expect_grid_matches_model(DemandModel::interpolated({constant}), 30);
  expect_grid_matches_model(
      DemandModel::interpolated(
          {constant, spline_through({1.0, 15.0, 30.0}, {0.01, 0.02, 0.015}),
           inside}),
      30);
}

TEST(DemandGrid, SplineCrossingZeroClampsLikeModelAt) {
  const auto model = DemandModel::interpolated(
      {spline_through({1.0, 20.0, 40.0, 60.0}, {0.3, -0.2, 0.1, 0.5}),
       spline_through({1.0, 30.0, 70.0}, {0.02, 0.0, 0.02},
                      interp::Extrapolation::kNatural)});
  expect_grid_matches_model(model, 90);
}

TEST(DemandGrid, MixesPiecewiseCubicWithOtherInterpolants) {
  const auto model = DemandModel::interpolated(
      {spline_through({1.0, 12.0, 40.0}, {0.02, 0.025, 0.022}),
       std::make_shared<interp::BarycentricPolynomial>(
           interp::SampleSet({1.0, 10.0, 30.0}, {0.01, 0.014, 0.012})),
       spline_through({2.5, 33.0}, {0.005, 0.006})});
  expect_grid_matches_model(model, 50);
  // 70 stations, the polynomial at 66: the first 64-station chunk is all
  // cubic, the second is not, and some of its cubics start above n = 1.
  std::vector<std::shared_ptr<const interp::Interpolator1D>> wide;
  for (int k = 0; k < 70; ++k) {
    const double d = 0.001 * (1 + k % 9);
    wide.push_back(
        k == 66 ? std::make_shared<interp::BarycentricPolynomial>(
                      interp::SampleSet({1.0, 20.0, 45.0}, {d, 1.3 * d, d}))
                : spline_through({1.0 + (k % 4), 18.5, 44.0},
                                 {d, 1.1 * d, 0.95 * d}));
  }
  expect_grid_matches_model(DemandModel::interpolated(std::move(wide)), 50);
}

TEST(DemandGrid, WideModelsSpanSeveralStationChunks) {
  // 150 stations: wider than any fixed per-station scratch, with knots
  // that differ per station so runs end at many different rows.
  std::vector<std::shared_ptr<const interp::Interpolator1D>> fns;
  for (int k = 0; k < 150; ++k) {
    const double lo = 1.0 + 0.5 * (k % 7);
    const double mid = 15.0 + (k % 5);
    const double hi = 40.5 + (k % 3) * 25.25;
    const double d = 0.001 * (1 + k % 11);
    fns.push_back(spline_through({lo, mid, hi, 100.0 + (k % 13)},
                                 {d, 1.2 * d, 0.9 * d, 1.4 * d},
                                 k % 2 == 0 ? interp::Extrapolation::kPegged
                                            : interp::Extrapolation::kLinear));
  }
  const auto model = DemandModel::interpolated(std::move(fns));
  expect_grid_matches_model(model, 120);
}

// ------------------------------------------------------------------ MVASD

TEST(Mvasd, ConstantDemandsReproduceAlgorithm2Exactly) {
  const ClosedNetwork net(
      {Station{"cpu", 1.0, 8, StationKind::kQueueing},
       Station{"disk", 1.0, 1, StationKind::kQueueing}},
      1.0);
  const std::vector<double> s{0.06, 0.015};
  const auto fixed = exact_multiserver(net, s, 120);
  const auto varying = mvasd(net, DemandModel::constant(s), 120);
  for (std::size_t i = 0; i < fixed.levels(); ++i) {
    EXPECT_DOUBLE_EQ(fixed.throughput[i], varying.throughput[i]);
    EXPECT_DOUBLE_EQ(fixed.response_time[i], varying.response_time[i]);
  }
}

TEST(Mvasd, DecreasingDemandLiftsThroughputCeiling) {
  const auto net = single_station(1, 1.0);
  auto spline = std::make_shared<interp::PiecewiseCubic>(
      interp::build_cubic_spline(
          interp::SampleSet({1, 100, 200}, {0.02, 0.012, 0.01})));
  const auto adaptive = mvasd(net, DemandModel::interpolated({spline}), 300);
  const auto fixed =
      exact_multiserver(net, std::vector<double>{0.02}, 300);
  // Constant-demand model saturates at 1/0.02 = 50; MVASD reaches ~1/0.01.
  EXPECT_NEAR(fixed.throughput.back(), 50.0, 0.5);
  EXPECT_GT(adaptive.throughput.back(), 90.0);
}

TEST(Mvasd, FinalThroughputTracksFinalDemand) {
  // Past the sampled range the pegged spline holds D(n) = D_final, so the
  // saturated throughput must be 1/D_final.
  const auto net = single_station(1, 0.5);
  auto spline = std::make_shared<interp::PiecewiseCubic>(
      interp::build_cubic_spline(
          interp::SampleSet({1, 50}, {0.05, 0.04})));
  const auto r = mvasd(net, DemandModel::interpolated({spline}), 400);
  EXPECT_NEAR(r.throughput.back(), 25.0, 0.2);
}

TEST(Mvasd, ThroughputAxisModelRuns) {
  const auto net = single_station(1, 1.0);
  auto spline = std::make_shared<interp::PiecewiseCubic>(
      interp::build_cubic_spline(
          interp::SampleSet({0.5, 25.0, 50.0}, {0.02, 0.015, 0.012})));
  const auto r = mvasd(
      net,
      DemandModel::interpolated({spline}, DemandModel::Axis::kThroughput),
      200);
  // Saturation: demand at the saturated X (~1/0.012) pegs to 0.012.
  EXPECT_NEAR(r.throughput.back(), 1.0 / 0.012, 1.5);
  // Monotone non-decreasing throughput even with the feedback lookup.
  for (std::size_t i = 1; i < r.levels(); ++i) {
    EXPECT_GE(r.throughput[i], r.throughput[i - 1] - 1e-6);
  }
}

TEST(Mvasd, SingleServerVariantMatchesMvasdWhenAllSingleServer) {
  // On single-server stations the normalization divides by 1: both kinds
  // give exact MVA's answer, the oracle's.
  const auto net = make_network({"a", "b"}, {1, 1}, 1.0);
  const std::vector<double> s{0.05, 0.02};
  const auto model = DemandModel::constant(s);
  const auto exact = oracle::solve(net, s, 80, /*with_queues=*/false);
  const auto a = mvasd(net, model, 80);
  const auto b = solve(net, model, {SolverKind::kMvasdSingleServer, 80});
  EXPECT_LT(max_rel_error(a.throughput, exact.throughput), 1e-12);
  EXPECT_LT(max_rel_error(b.throughput, exact.throughput), 1e-12);
}

TEST(Mvasd, SingleServerNormalizationUnderestimatesMultiServerResponse) {
  // Fig. 8's lesson: at light load the normalized model is optimistic about
  // response time (no multi-server parallelism modeling error there —
  // it *underestimates* R because S/C < S even when no queueing occurs).
  const auto net = single_station(8, 1.0);
  const auto model = DemandModel::constant({0.8});
  const auto ms = mvasd(net, model, 8);
  const auto ss = solve(net, model, {SolverKind::kMvasdSingleServer, 8});
  EXPECT_LT(ss.response_time[ss.row_for(4)], ms.response_time[ms.row_for(4)]);
}

TEST(Mvasd, TracedVariantExposesMarginals) {
  const auto net = single_station(4, 1.0);
  const auto rows = marginal_trace(net, DemandModel::constant({0.4}), 30);
  ASSERT_EQ(rows.size(), 30u);
  ASSERT_EQ(rows.front().size(), 4u);
}

// ---------------------------------------------------------- trace goldens
//
// The marginal rows the trace hook reports, pinned bit for bit
// (golden_rows.hpp): fig03's 4-core CPU and a 16-core station in front of
// a disk, through knee and saturation.  Literals from the default build
// (Release, GCC 12.2, x86-64).

TEST(MarginalTrace, GoldenFig03FourCoreCpu) {
  const auto net = single_station(4, 1.0);
  const auto rows = marginal_trace(net, DemandModel::constant({0.05}), 120);
  ASSERT_EQ(rows.size(), 120u);
  const std::vector<std::vector<double>> kGolden = {
      {0x1.e79e79e79e79fp-1, 0x1.8618618618618p-5, 0x0p+0, 0x0p+0},
      {0x1.3a51b668bb2ap-1, 0x1.3a51b668bb2ap-2, 0x1.1ae3242b0ed8fp-4,
       0x1.2dbf158343098p-7},
      {0x1.1c3624be1e4ep-3, 0x1.1c3624be1e4efp-2, 0x1.151b309fc3f2cp-2,
       0x1.5f004ea83c77dp-3},
      {0x1.2fdcca0b98718p-7, 0x1.2fdcca0b9d396p-5, 0x1.2c106deb749b4p-4,
       0x1.86155bb21ac0cp-4},
      {0x1.e051f397d9cp-22, 0x1.0934696df9b94p-18, 0x1.52a1ed9f205cbp-17,
       0x1.65719493e6bc7p-16}};
  golden::expect_trace_rows(rows, {1, 10, 40, 80, 120}, kGolden);
}

TEST(MarginalTrace, GoldenSixteenCoreStation) {
  const ClosedNetwork net({Station{"disk", 1.0, 1, StationKind::kQueueing},
                           Station{"cpu", 1.0, 16, StationKind::kQueueing}},
                          1.0);
  const auto rows =
      marginal_trace(net, DemandModel::constant({0.01, 0.2}), 160, 1);
  ASSERT_EQ(rows.size(), 160u);
  // Past the knee the station's idle-identity projection leaves a sparse,
  // irregular distribution; pinning it shows the hook keeps those bits too.
  const std::vector<std::vector<double>> kGolden = {
      {0x1.ab5f34e47ef13p-1, 0x1.52832c6e043b4p-3, 0x0p+0, 0x0p+0, 0x0p+0,
       0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
       0x0p+0, 0x0p+0, 0x0p+0},
      {0x1.c8ceec9fcb09p-5, 0x1.6936c56720ff4p-3, 0x1.0bcec6709327p-2,
       0x1.ee3ed76186804p-3, 0x1.3da91819bac7ep-3, 0x1.2d931dba437d5p-4,
       0x1.b575dcc765ecdp-6, 0x1.ee881e24671d8p-8, 0x1.b84d273be17b5p-10,
       0x1.35c70826a50ddp-12, 0x1.574dab2ec5e68p-15, 0x1.287e1b4b20cbap-18,
       0x1.8740593b2e7a9p-22, 0x1.7d4db7028a141p-26, 0x1.02d346d931531p-30,
       0x1.b54fe54bb48cdp-36},
      {0x1.691d57ea8p-17, 0x1.19d2206a9e8aap-13, 0x1.b13dc6368a673p-11,
       0x1.b530bbc5cb10bp-9, 0x1.45b53037e24dp-7, 0x1.7e103f1802da2p-6,
       0x1.6f6ba0a1a3739p-5, 0x1.29dc6d537c53dp-4, 0x1.9f774889bfc67p-4,
       0x1.fa49b4f0c77bbp-4, 0x1.10c8ec0813ff2p-3, 0x1.06782a3dd5951p-3,
       0x1.c697abda1e7e5p-4, 0x1.64a99162b9346p-4, 0x1.fddd80c51f3c2p-5,
       0x1.4d95abe3f8d21p-5},
      {0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.8d34df8c853bep-4, 0x0p+0, 0x0p+0,
       0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
       0x1.ab1103aab3271p-8, 0x1.17b0ab1d6538bp-10},
      {0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
       0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.abc74b81p-19, 0x0p+0, 0x0p+0,
       0x0p+0}};
  golden::expect_trace_rows(rows, {1, 16, 64, 96, 160}, kGolden);
}

TEST(MarginalTrace, RefusesStationsWithoutMarginals) {
  // Only multi-server queueing stations keep a marginal distribution; a
  // trace of any other station would report P(0 | n) = 1 under any load.
  const ClosedNetwork net({Station{"cpu", 1.0, 4, StationKind::kQueueing},
                           Station{"disk", 1.0, 1, StationKind::kQueueing},
                           Station{"lan", 1.0, 8, StationKind::kDelay}},
                          1.0);
  const auto demands = DemandModel::constant({0.2, 0.03, 0.05});
  const auto message = [&](std::size_t station) {
    try {
      marginal_trace(net, demands, 20, station);
    } catch (const invalid_argument_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(marginal_trace(net, demands, 20, 0).size(), 20u);
  for (const auto& [k, name] :
       {std::pair<std::size_t, std::string>{1, "disk"}, {2, "lan"}}) {
    const std::string what = message(k);
    EXPECT_EQ(what.rfind("mtperf: ", 0), 0u) << what;
    EXPECT_NE(what.find("trace station '" + name +
                        "' keeps no marginal distribution"),
              std::string::npos)
        << what;
  }
  EXPECT_NE(message(3).find("trace station out of range"), std::string::npos);
}

// ---------------------------------------------------------- load-dependent
//
// Load-dependent stations with any rate profile, on the convolution oracle.

TEST(LoadDependent, SingleServerRateMatchesExactMva) {
  // alpha(j) = 1 is a plain single server, whether the profile is one
  // entry long (clamped past its end) or spans every population.
  const auto net = make_network({"a", "b"}, {1, 1}, 1.0);
  const std::vector<double> s{0.1, 0.2};
  const auto ex = exact_single_server(net, s, 40);
  const auto ld = oracle::solve(
      {{.demand = 0.1, .rates = {1.0}},
       {.demand = 0.2, .rates = std::vector<double>(40, 1.0)}},
      1.0, 40);
  for (std::size_t i = 0; i < ex.levels(); ++i) {
    EXPECT_NEAR(ld.throughput[i], ex.throughput[i], 1e-9);
  }
}

TEST(LoadDependent, ProfileOverloadSingleStationMatchesExact) {
  // One station given by a one-entry rate profile, with think time: the
  // profile form of a station spec reduces to exact MVA to rounding.
  const auto net = single_station(1, 2.0);
  const auto ex = exact_single_server(net, std::vector<double>{0.25}, 20);
  const auto ld = oracle::solve({{.demand = 0.25, .rates = {1.0}}}, 2.0, 20);
  ASSERT_EQ(ld.throughput.size(), ex.levels());
  for (std::size_t i = 0; i < ex.levels(); ++i) {
    EXPECT_NEAR(ld.throughput[i], ex.throughput[i], 1e-12);
  }
}

TEST(LoadDependent, FasterRatesRaiseThroughput) {
  const auto slow = oracle::solve({{.demand = 0.5, .servers = 1}}, 1.0, 30);
  const auto fast = oracle::solve({{.demand = 0.5, .servers = 4}}, 1.0, 30);
  EXPECT_GT(fast.throughput.back(), slow.throughput.back());
}

TEST(LoadDependent, ProfileShorterThanPopulationClampsAtItsLastEntry) {
  // A 3-entry profile on a 30-customer solve: populations past 3 run at
  // the profile's final rate — the same network as the profile padded with
  // that rate.
  const std::vector<double> profile{1.0, 1.8, 2.4};
  std::vector<double> padded(30, 2.4);
  std::copy(profile.begin(), profile.end(), padded.begin());
  const auto truncated =
      oracle::solve({{.demand = 0.5, .rates = profile}}, 1.0, 30);
  const auto explicit_tail =
      oracle::solve({{.demand = 0.5, .rates = padded}}, 1.0, 30);
  EXPECT_EQ(truncated.throughput, explicit_tail.throughput);
  // And the clamp really binds: a longer, still-rising profile does better.
  const auto longer =
      oracle::solve({{.demand = 0.5, .rates = {1.0, 1.8, 2.4, 3.0}}}, 1.0, 30);
  EXPECT_GT(longer.throughput.back(), truncated.throughput.back());
}

// ------------------------------------------------------ convolution oracle

TEST(ConvolutionOracle, MatchesExactMvaOnSingleServerNetworks) {
  // Single-server and delay stations with think time: exact MVA is exact
  // and stable there, so both must agree to rounding on X, R and every Q.
  const ClosedNetwork net({Station{"cpu", 1.0, 1, StationKind::kQueueing},
                           Station{"disk", 2.0, 1, StationKind::kQueueing},
                           Station{"lan", 1.0, 1, StationKind::kDelay},
                           Station{"db", 0.5, 1, StationKind::kQueueing}},
                          1.5);
  const std::vector<double> s{0.011, 0.006, 0.05, 0.03};
  const auto ex = exact_single_server(net, s, 300);
  const auto orc = oracle::solve(net, s, 300);
  EXPECT_LT(max_rel_error(orc.throughput, ex.throughput), 1e-12);
  EXPECT_LT(max_rel_error(orc.response_time, ex.response_time), 1e-12);
  for (std::size_t i = 0; i < ex.levels(); ++i) {
    for (std::size_t k = 0; k < net.size(); ++k) {
      EXPECT_NEAR(orc.queue[i][k], ex.queue(i, k), 1e-12 * (1.0 + i))
          << "n=" << i + 1 << " k=" << k;
    }
  }
  // Without think time every customer is queued somewhere.
  const auto closed = make_network({"a", "b"}, {1, 1}, 0.0);
  const auto ex0 =
      exact_single_server(closed, std::vector<double>{0.2, 0.1}, 50);
  const auto orc0 = oracle::solve(closed, {0.2, 0.1}, 50);
  EXPECT_LT(max_rel_error(orc0.throughput, ex0.throughput), 1e-12);
}

TEST(ConvolutionOracle, MatchesBirthDeathOnMachineRepair) {
  // M/M/C//N with think time, up to C = 64 and N = 192, where double
  // precision recursions lose digits: the birth-death chain is a product
  // of positive factors, exact in any precision.
  for (const auto& [servers, s, z] :
       {std::tuple{2u, 1.0, 1.0}, std::tuple{16u, 1.0, 2.0},
        std::tuple{24u, 1.0, 1.0}, std::tuple{64u, 0.5, 1.0}}) {
    SCOPED_TRACE("C = " + std::to_string(servers));
    const unsigned n_max = 3 * servers;
    const auto orc =
        oracle::solve({{.demand = s, .servers = servers}}, z, n_max);
    for (unsigned n = 1; n <= n_max; ++n) {
      const double bd = machine_repair_throughput(n, z, s, servers);
      EXPECT_NEAR(orc.throughput[n - 1], bd, 1e-12 * bd) << "n=" << n;
      // Little's law closes the books: Q + X Z = n.
      EXPECT_NEAR(orc.queue[n - 1][0] + orc.throughput[n - 1] * z,
                  static_cast<double>(n), 1e-12 * n);
    }
  }
}

TEST(ConvolutionOracle, ServerCountAndMinProfileAgree) {
  // A C-server queue is the load-dependent station alpha(j) = min(j, C):
  // the server-count law and the explicit profile give the same bits.
  const auto by_servers = oracle::solve(
      {{.demand = 0.4, .servers = 4}, {.demand = 0.1}}, 1.0, 40);
  const auto by_profile = oracle::solve(
      {{.demand = 0.4, .rates = {1.0, 2.0, 3.0, 4.0}}, {.demand = 0.1}}, 1.0,
      40);
  EXPECT_EQ(by_servers.throughput, by_profile.throughput);
  EXPECT_EQ(by_servers.queue, by_profile.queue);
}

TEST(ConvolutionOracle, StaysInRangeAtLargePopulations) {
  // G(n) for 1,500 customers at 256 servers leaves long double's range;
  // the scaled values keep X finite, inside the capacity bound, and on the
  // asymptote.
  const auto orc = oracle::solve(
      {{.demand = 1.0, .servers = 256}, {.demand = 0.002}}, 1.0, 1500,
      /*with_queues=*/false);
  for (const double x : orc.throughput) {
    ASSERT_TRUE(std::isfinite(x));
    EXPECT_LE(x, 256.0 * (1.0 + 1e-15));
  }
  EXPECT_NEAR(orc.throughput.back(), 256.0, 1e-9);
}

// --------------------------------------------------------------- Seidmann

TEST(Seidmann, TransformSplitsMultiServerStations) {
  const ClosedNetwork net(
      {Station{"cpu", 1.0, 4, StationKind::kQueueing},
       Station{"disk", 1.0, 1, StationKind::kQueueing}},
      1.0);
  const std::vector<double> s{0.4, 0.1};
  const auto t = seidmann_transform(net, s);
  ASSERT_EQ(t.network.size(), 3u);
  EXPECT_EQ(t.network.station(0).name, "cpu/queue");
  EXPECT_EQ(t.network.station(1).name, "cpu/delay");
  EXPECT_EQ(t.network.station(1).kind, StationKind::kDelay);
  EXPECT_EQ(t.network.station(2).name, "disk");
  EXPECT_DOUBLE_EQ(t.service_times[0], 0.1);        // S/C
  EXPECT_DOUBLE_EQ(t.service_times[1], 0.3);        // S(C-1)/C
  EXPECT_DOUBLE_EQ(t.service_times[2], 0.1);
  EXPECT_EQ(t.queueing_leg, (std::vector<std::size_t>{0, 2}));
}

TEST(Seidmann, SingleServerNetworkUnchanged) {
  // Nothing to split: the transform returns the network as it is, and the
  // solve is exact MVA's, the oracle's.
  const auto net = make_network({"a"}, {1}, 1.0);
  const std::vector<double> s{0.2};
  const auto t = seidmann_transform(net, s);
  ASSERT_EQ(t.network.size(), 1u);
  EXPECT_EQ(t.network.station(0).name, "a");
  EXPECT_EQ(t.network.station(0).servers, 1u);
  EXPECT_EQ(t.network.station(0).kind, StationKind::kQueueing);
  EXPECT_EQ(t.service_times, s);
  const auto a =
      solve(net, DemandModel::constant(s), {SolverKind::kSeidmann, 20});
  const auto b = oracle::solve(net, s, 20, /*with_queues=*/false);
  for (std::size_t i = 0; i < a.levels(); ++i) {
    EXPECT_DOUBLE_EQ(a.throughput[i], b.throughput[i]);
  }
}

TEST(Seidmann, ApproximatesExactMultiServerReasonably) {
  const auto net = single_station(4, 2.0);
  const std::vector<double> s{1.0};
  const auto approx =
      solve(net, DemandModel::constant(s), {SolverKind::kSeidmann, 40});
  const auto exact = oracle::solve(net, s, 40, /*with_queues=*/false);
  for (unsigned n : {1u, 4u, 10u, 25u, 40u}) {
    const double a = approx.throughput[approx.row_for(n)];
    const double e = exact.throughput[n - 1];
    EXPECT_NEAR(a, e, 0.15 * e) << "n=" << n;  // it is an approximation
  }
  // Both saturate at C/S.
  EXPECT_NEAR(approx.throughput.back(), 4.0, 0.15);
}

TEST(Seidmann, SchweitzerVariantRuns) {
  const auto net = single_station(4, 2.0);
  const std::vector<double> s{1.0};
  const auto r = solve(net, DemandModel::constant(s),
                       {SolverKind::kSeidmannSchweitzer, 30});
  EXPECT_EQ(r.levels(), 30u);
  EXPECT_LE(r.throughput.back(), 4.0 + 1e-6);
}

// ---------------------------------------------- single-server kind goldens
//
// Every number the single-server recursion's kinds (exact, seidmann,
// mvasd-single-server) report at four levels, pinned bit for bit through
// core::solve in both row kinds (golden_rows.hpp).  The network has a
// 12-core cpu, a disk visited 2.5 times, a 2-server delay hop and a cache
// whose demand is zero; mvasd-single-server also runs concurrency splines
// solved past their last knot (with linear extrapolation, which takes the
// delay hop's demand below zero) and throughput-axis splines.  Literals
// from the default build (Release, GCC 12.2, x86-64).

ClosedNetwork single_server_golden_network() {
  return ClosedNetwork({Station{"app/cpu", 1.0, 12, StationKind::kQueueing},
                        Station{"db/disk", 2.5, 1, StationKind::kQueueing},
                        Station{"lan", 1.0, 2, StationKind::kDelay},
                        Station{"cache", 1.0, 1, StationKind::kQueueing}},
                       0.8);
}

/// The golden network's demands as splines over `knots`, one curve per
/// station (the cache's is zero throughout).
DemandModel single_server_golden_splines(std::vector<double> knots,
                                         DemandModel::Axis axis,
                                         interp::Extrapolation extrapolation) {
  return DemandModel::interpolated(
      {spline_through(knots, {0.3, 0.27, 0.24, 0.26}, extrapolation),
       spline_through(knots, {0.02, 0.022, 0.019, 0.018}, extrapolation),
       spline_through(knots, {0.04, 0.03, 0.02, 0.005}, extrapolation),
       spline_through(knots, {0.0, 0.0, 0.0, 0.0}, extrapolation)},
      axis);
}

/// Solve the golden network to N = 120 with every row and with utilization
/// rows only, and check both against the literals at N = 1, 6, 40 and 120.
void expect_single_server_golden(
    SolverKind kind, const DemandModel& demands,
    const std::vector<std::vector<double>>& golden) {
  const std::vector<unsigned> levels = {1, 6, 40, 120};
  const ClosedNetwork net = single_server_golden_network();
  SolveOptions options{kind, 120};
  {
    SCOPED_TRACE("all rows");
    golden::expect_rows(solve(net, demands, options), levels, golden);
  }
  {
    SCOPED_TRACE("utilization rows");
    options.station_rows = StationRows::kUtilization;
    golden::expect_lean_rows(solve(net, demands, options), levels, golden);
  }
}

DemandModel single_server_golden_constant() {
  return DemandModel::constant({0.3, 0.02, 0.04, 0.0});
}

TEST(SingleServerKinds, GoldenExact) {
  const std::vector<std::vector<double>> kGolden = {
      {0x1.ae4089ae4089bp-1, 0x1.8f5c28f5c28f5p-2, 0x1.30a3d70a3d70ap+0,
       0x1.0226b90226b9p-2, 0x1.5833a15833a16p-5, 0x1.135c81135c811p-5,
       0x0p+0, 0x1.0226b90226b9p-2, 0x1.5833a15833a16p-5,
       0x1.135c81135c811p-5, 0x0p+0, 0x1.3333333333333p-2,
       0x1.999999999999ap-5, 0x1.47ae147ae147bp-5, 0x0p+0},
      {0x1.9446a51a084ecp+1, 0x1.1985727b95992p+0, 0x1.e6523f486265fp+0,
       0x1.94c04aa4e1dd4p+1, 0x1.7a834e9172833p-3, 0x1.02bc92a005512p-3,
       0x0p+0, 0x1.e52192ec09f81p-1, 0x1.436bb74806a57p-3,
       0x1.02bc92a005512p-3, 0x0p+0, 0x1.004d07c8e5e04p+0,
       0x1.df5f41db15d31p-5, 0x1.47ae147ae147bp-5, 0x0p+0},
      {0x1.aaaaaaaaaaaabp+1, 0x1.6666666666666p+3, 0x1.8p+3,
       0x1.28p+5, 0x1.999999999999ap-3, 0x1.1111111111111p-3,
       0x0p+0, 0x1p+0, 0x1.5555555555556p-3,
       0x1.1111111111111p-3, 0x0p+0, 0x1.6333333333333p+3,
       0x1.eb851eb851eb8p-5, 0x1.47ae147ae147bp-5, 0x0p+0},
      {0x1.aaaaaaaaaaaabp+1, 0x1.199999999999ap+5, 0x1.2p+5,
       0x1.d400000000001p+6, 0x1.999999999999ap-3, 0x1.1111111111111p-3,
       0x0p+0, 0x1p+0, 0x1.5555555555556p-3,
       0x1.1111111111111p-3, 0x0p+0, 0x1.18ccccccccccdp+5,
       0x1.eb851eb851eb8p-5, 0x1.47ae147ae147bp-5, 0x0p+0}};
  expect_single_server_golden(SolverKind::kExactSingleServer,
                              single_server_golden_constant(), kGolden);
}

TEST(SingleServerKinds, GoldenSeidmann) {
  const std::vector<std::vector<double>> kGolden = {
      {0x1.ae4089ae4089bp-1, 0x1.8f5c28f5c28f5p-2, 0x1.30a3d70a3d70ap+0,
       0x1.5833a15833a15p-6, 0x1.d946fdd946fddp-3, 0x1.5833a15833a16p-5,
       0x1.135c81135c811p-5, 0x0p+0, 0x1.5833a15833a15p-6,
       0x1.d946fdd946fddp-3, 0x1.5833a15833a16p-5, 0x1.135c81135c811p-5,
       0x0p+0, 0x1.9999999999999p-6, 0x1.1999999999999p-2,
       0x1.999999999999ap-5, 0x1.47ae147ae147bp-5, 0x0p+0},
      {0x1.3e9e1f030a79p+2, 0x1.9eee63f50929cp-2, 0x1.348865ca0f174p+0,
       0x1.1bc3d6adb3633p-3, 0x1.5e7abbb68b851p+0, 0x1.3dfa7ac4d1e03p-2,
       0x1.97d4a293409aep-3, 0x0p+0, 0x1.fdc9cb3810c19p-4,
       0x1.5e7abbb68b851p+0, 0x1.fdc9cb3810c1ap-3, 0x1.97d4a293409aep-3,
       0x0p+0, 0x1.c7fe6989b1691p-6, 0x1.1999999999999p-2,
       0x1.fef9099bc285bp-5, 0x1.47ae147ae147bp-5, 0x0p+0},
      {0x1.3fce6a26a9fb1p+4, 0x1.338295a8c9cc2p+0, 0x1.0027b13acb4c8p+1,
       0x1.fea3ca7604335p-1, 0x1.5fc974c42160fp+2, 0x1.0b755e83c2fadp+4,
       0x1.995a21792b7edp-1, 0x0p+0, 0x1.ffb0a9d7765e7p-2,
       0x1.5fc974c42160fp+2, 0x1.ffb0a9d7765e8p-1, 0x1.995a21792b7edp-1,
       0x0p+0, 0x1.98c25f251b07fp-5, 0x1.1999999999999p-2,
       0x1.ac31574ac7068p-1, 0x1.47ae147ae147bp-5, 0x0p+0},
      {0x1.3ffffffffffffp+4, 0x1.4cccccccccccep+2, 0x1.8000000000001p+2,
       0x1.ffffffffffffep-1, 0x1.5fffffffffffep+2, 0x1.82ccccccccccdp+6,
       0x1.9999999999998p-1, 0x0p+0, 0x1.ffffffffffffep-2,
       0x1.5fffffffffffep+2, 0x1.fffffffffffffp-1, 0x1.9999999999998p-1,
       0x0p+0, 0x1.9999999999999p-5, 0x1.1999999999999p-2,
       0x1.3570a3d70a3d8p+2, 0x1.47ae147ae147bp-5, 0x0p+0}};
  expect_single_server_golden(SolverKind::kSeidmann,
                              single_server_golden_constant(), kGolden);
}

TEST(SingleServerKinds, GoldenMvasdSingleServerConstant) {
  const std::vector<std::vector<double>> kGolden = {
      {0x1.1e0894bcc8393p+0, 0x1.851eb851eb852p-4, 0x1.ca3d70a3d70a4p-1,
       0x1.c9a75461405b7p-6, 0x1.c9a75461405b8p-5, 0x1.6e1f76b4337c7p-6,
       0x0p+0, 0x1.c9a75461405b7p-6, 0x1.c9a75461405b8p-5,
       0x1.6e1f76b4337c7p-6, 0x0p+0, 0x1.9999999999999p-6,
       0x1.999999999999ap-5, 0x1.47ae147ae147bp-6, 0x0p+0},
      {0x1.a325167edb0d3p+2, 0x1.dbc12942ec2ep-4, 0x1.d511bec1f71f6p-1,
       0x1.82d79ac270665p-3, 0x1.c365ecc246297p-2, 0x1.0c40b23cb5273p-3,
       0x0p+0, 0x1.4f50decbe270fp-3, 0x1.4f50decbe270fp-2,
       0x1.0c40b23cb5273p-3, 0x0p+0, 0x1.d88a8a10691c4p-6,
       0x1.13b301a01995p-4, 0x1.47ae147ae147bp-6, 0x0p+0},
      {0x1.3fff8d4a02446p+4, 0x1.3333eabd0af75p+0, 0x1.00005bc4ebe21p+1,
       0x1.fff957570f69cp-1, 0x1.699a2ceefdfacp+4, 0x1.999906c5219f3p-2,
       0x0p+0, 0x1.ffff48766a06fp-2, 0x1.ffff48766a071p-1,
       0x1.999906c5219f3p-2, 0x0p+0, 0x1.9994d8b203487p-5,
       0x1.21488ba58f57fp+0, 0x1.47ae147ae147bp-6, 0x0p+0},
      {0x1.4p+4, 0x1.4cccccccccccdp+2, 0x1.8p+2,
       0x1.ffffffffffffep-1, 0x1.9a66666666668p+6, 0x1.999999999999ap-2,
       0x0p+0, 0x1.fffffffffffffp-2, 0x1p+0,
       0x1.999999999999ap-2, 0x0p+0, 0x1.9999999999998p-5,
       0x1.4851eb851eb86p+2, 0x1.47ae147ae147bp-6, 0x0p+0}};
  expect_single_server_golden(SolverKind::kMvasdSingleServer,
                              single_server_golden_constant(), kGolden);
}

TEST(SingleServerKinds, GoldenMvasdSingleServerPastLastKnot) {
  const std::vector<std::vector<double>> kGolden = {
      {0x1.1e0894bcc8393p+0, 0x1.851eb851eb852p-4, 0x1.ca3d70a3d70a4p-1,
       0x1.c9a75461405b7p-6, 0x1.c9a75461405b8p-5, 0x1.6e1f76b4337c7p-6,
       0x0p+0, 0x1.c9a75461405b7p-6, 0x1.c9a75461405b8p-5,
       0x1.6e1f76b4337c7p-6, 0x0p+0, 0x1.9999999999999p-6,
       0x1.999999999999ap-5, 0x1.47ae147ae147bp-6, 0x0p+0},
      {0x1.a24817403132cp+2, 0x1.e37fce1b1a1eep-4, 0x1.d609935cfcdd8p-1,
       0x1.7661b9eed1392p-3, 0x1.df8f2355cf8bbp-2, 0x1.ecfb585ae2035p-4,
       0x0p+0, 0x1.45974b69ed698p-3, 0x1.5fcb71b13bb99p-2,
       0x1.ecfb585ae2035p-4, 0x0p+0, 0x1.ca439d8965779p-6,
       0x1.2580e8fc63d33p-4, 0x1.2db7f6f173b75p-6, 0x0p+0},
      {0x1.39b4fa117a0aap+4, 0x1.3d788b975f173p+0, 0x1.0522ac3215f2p+1,
       0x1.573f586ba2d0cp-1, 0x1.76aae71d773efp+4, 0x1.d1f7d565043acp-3,
       0x0p+0, 0x1.9baf768ec1a69p-2, 0x1.fdd2f3ae7c5d7p-1,
       0x1.d1f7d565043acp-3, 0x0p+0, 0x1.181b41f428656p-5,
       0x1.31bf30464a9cep+0, 0x1.7c40a0b99b8fdp-7, 0x0p+0},
      {0x1.1886633467b81p+4, 0x1.82d5fda953818p+2, 0x1.b60930dc86b4bp+2,
       0x1.e9500b7749a4ep-1, 0x1.a4127f44fcae5p+6, 0x0p+0,
       0x0p+0, 0x1.f4874ca90fc37p-2, 0x1.002e654e0b77ap+0,
       0x0p+0, 0x0p+0, 0x1.be88cf5f7963dp-5,
       0x1.7f58ec0a948ecp+2, 0x0p+0, 0x0p+0}};
  expect_single_server_golden(
      SolverKind::kMvasdSingleServer,
      single_server_golden_splines({1.0, 20.0, 50.0, 80.0},
                                   DemandModel::Axis::kConcurrency,
                                   interp::Extrapolation::kLinear),
      kGolden);
}

TEST(SingleServerKinds, GoldenMvasdSingleServerThroughputAxis) {
  // X saturates near 1 / (2.5 * 0.018) = 22 per second, past the last knot.
  const std::vector<std::vector<double>> kGolden = {
      {0x1.1e0894bcc8393p+0, 0x1.851eb851eb852p-4, 0x1.ca3d70a3d70a4p-1,
       0x1.c9a75461405b7p-6, 0x1.c9a75461405b8p-5, 0x1.6e1f76b4337c7p-6,
       0x0p+0, 0x1.c9a75461405b7p-6, 0x1.c9a75461405b8p-5,
       0x1.6e1f76b4337c7p-6, 0x0p+0, 0x1.9999999999999p-6,
       0x1.999999999999ap-5, 0x1.47ae147ae147bp-6, 0x0p+0},
      {0x1.a23beeb073de6p+2, 0x1.e3ed1ed240417p-4, 0x1.d6173d73e1a1dp-1,
       0x1.5c8650071fb09p-3, 0x1.007ddf3a856f3p-1, 0x1.9d6e42d335768p-4,
       0x0p+0, 0x1.310528a067871p-3, 0x1.7167794aabbd2p-2,
       0x1.9d6e42d335768p-4, 0x0p+0, 0x1.aaa97c7006455p-6,
       0x1.39feeb24655b6p-4, 0x1.fa1ea48ecaa6p-7, 0x0p+0},
      {0x1.638cbbfc8cb49p+4, 0x1.0001eda85459fp+0, 0x1.ccceba752126cp+0,
       0x1.db601aa7d86bbp-1, 0x1.53d0db8200f5fp+4, 0x1.c71a8a390605fp-5,
       0x0p+0, 0x1.ed076b131bdbbp-2, 0x1.fffddb8026c68p-1,
       0x1.c71a8a390605fp-5, 0x0p+0, 0x1.5646a0968cb7ap-5,
       0x1.e957c332c5071p-1, 0x1.47ae147ae147cp-9, 0x0p+0},
      {0x1.638e38e38e38ep+4, 0x1.2666666666667p+2, 0x1.599999999999ap+2,
       0x1.db6db6db6db6fp-1, 0x1.94f3cf3cf3cf4p+6, 0x1.c71c71c71c71ep-5,
       0x0p+0, 0x1.ed097b425ed09p-2, 0x1p+0,
       0x1.c71c71c71c71ep-5, 0x0p+0, 0x1.564efe898231dp-5,
       0x1.2390d2a6c405ep+2, 0x1.47ae147ae147cp-9, 0x0p+0}};
  expect_single_server_golden(
      SolverKind::kMvasdSingleServer,
      single_server_golden_splines({1.0, 6.0, 12.0, 18.0},
                                   DemandModel::Axis::kThroughput,
                                   interp::Extrapolation::kPegged),
      kGolden);
}

// --------------------------------------------------------------- dispatch

/// Every field a solver fills, compared with operator== (bit for bit up to
/// the sign of zero).
void expect_same_result(const MvaResult& got, const MvaResult& want) {
  EXPECT_EQ(got.population, want.population);
  EXPECT_EQ(got.throughput, want.throughput);
  EXPECT_EQ(got.response_time, want.response_time);
  EXPECT_EQ(got.cycle_time, want.cycle_time);
  EXPECT_EQ(got.station_queue, want.station_queue);
  EXPECT_EQ(got.station_utilization, want.station_utilization);
  EXPECT_EQ(got.station_residence, want.station_residence);
  EXPECT_EQ(got.station_names, want.station_names);
  EXPECT_EQ(got.class_names, want.class_names);
  EXPECT_EQ(got.class_population, want.class_population);
  EXPECT_EQ(got.class_throughput, want.class_throughput);
  EXPECT_EQ(got.class_response_time, want.class_response_time);
  EXPECT_EQ(got.class_station_queue, want.class_station_queue);
  EXPECT_EQ(got.mc_axis, want.mc_axis);
  EXPECT_EQ(got.mc_iterations, want.mc_iterations);
}

TEST(SolveDispatch, EveryKindReachesItsKernel) {
  // One row per SolverKind: solve() must return exactly what the kernel
  // that kind names returns.  The fixed-point controls are non-default, so
  // a kind that drops them (or reaches the wrong kernel) differs.
  constexpr unsigned kN = 30;
  const ClosedNetwork net({Station{"cpu", 1.0, 4, StationKind::kQueueing},
                           Station{"disk", 1.0, 1, StationKind::kQueueing},
                           Station{"lan", 1.0, 1, StationKind::kDelay}},
                          1.0);
  // The cpu saturates before kN (knee near N = 26).
  const std::vector<double> s{0.2, 0.03, 0.05};
  const auto demands = DemandModel::constant(s);
  // The multiclass kinds need single-server stations.
  const auto mc_net = make_network({"cpu", "disk"}, {1, 1}, 1.0);
  const std::vector<CustomerClass> classes{{"a", 4, 1.0, {0.05, 0.15}},
                                           {"b", 6, 0.5, {0.02, 0.01}}};

  SolveOptions tuned{SolverKind::kMvasd, kN};
  tuned.schweitzer = {1e-4, 500};
  tuned.approx = {1e-4, 800};
  tuned.hierarchy.tiers = {{"front", {0, 1}}};

  // The single-class exact kinds' kernel: one lane of the lockstep block.
  // The single-server kinds run it on a copy of their network with every
  // station single-server; seidmann transforms the network first, and
  // mvasd-single-server divides each demand by its station's server count.
  const auto lane_kernel = [&](const ClosedNetwork& network,
                               const DemandModel& model) {
    std::vector<detail::BatchLane> lane(1);
    lane[0].network = &network;
    lane[0].demands = &model;
    lane[0].max_population = kN;
    return std::move(detail::solve_lane_block(lane)[0]);
  };
  const auto single_server = [](const ClosedNetwork& network) {
    std::vector<Station> stations = network.stations();
    for (Station& st : stations) st.servers = 1;
    return ClosedNetwork(std::move(stations), network.think_time());
  };
  const SeidmannTransform seidmann = seidmann_transform(net, s);
  std::vector<double> per_server = s;
  for (std::size_t k = 0; k < net.size(); ++k) {
    per_server[k] /= static_cast<double>(net.station(k).servers);
  }

  // The multiclass series kinds' kernel: one lane of the lockstep block.
  const auto mc_lane = [&](SolverKind kind) {
    std::vector<detail::MulticlassBatchLane> lane(1);
    lane[0].network = &mc_net;
    lane[0].classes = &classes;
    lane[0].schweitzer = tuned.schweitzer;
    return std::move(detail::solve_multiclass_lane_block(kind, lane)[0]);
  };

  struct Row {
    SolverKind kind;
    std::function<MvaResult()> kernel;
  };
  const std::vector<Row> rows{
      {SolverKind::kExactSingleServer,
       [&] { return lane_kernel(single_server(net), demands); }},
      {SolverKind::kSchweitzer,
       [&] { return schweitzer_mva(net, s, kN, tuned.schweitzer); }},
      {SolverKind::kApproxMultiserver,
       [&] { return detail::approx_mvasd(net, demands, kN, tuned.approx); }},
      {SolverKind::kMvasd, [&] { return lane_kernel(net, demands); }},
      {SolverKind::kMvasdSingleServer,
       [&] {
         return lane_kernel(single_server(net),
                            DemandModel::constant(per_server));
       }},
      {SolverKind::kSeidmann,
       [&] {
         return lane_kernel(single_server(seidmann.network),
                            DemandModel::constant(seidmann.service_times));
       }},
      {SolverKind::kSeidmannSchweitzer,
       [&] {
         return schweitzer_mva(seidmann.network, seidmann.service_times, kN,
                               tuned.schweitzer);
       }},
      {SolverKind::kExactMulticlass,
       [&] { return mc_lane(SolverKind::kExactMulticlass); }},
      {SolverKind::kMomMulticlass,
       [&] { return detail::mom_multiclass_engine(mc_net, classes); }},
      {SolverKind::kSchweitzerMulticlass,
       [&] { return mc_lane(SolverKind::kSchweitzerMulticlass); }},
      {SolverKind::kHierarchical,
       [&] {
         SolveOptions hierarchical = tuned;
         hierarchical.solver = SolverKind::kHierarchical;
         return detail::solve_hierarchical(net, &demands, hierarchical);
       }},
  };
  ASSERT_EQ(rows.size(), 11u);

  std::vector<MvaResult> kernels;
  for (const Row& row : rows) {
    SCOPED_TRACE(solver_kind_name(row.kind));
    SolveOptions options = tuned;
    options.solver = row.kind;
    MvaResult got;
    if (is_multiclass(row.kind)) {
      options.classes = classes;
      finalize_multiclass_options(options);
      got = solve(mc_net, nullptr, options);
    } else {
      got = solve(net, demands, options);
    }
    kernels.push_back(row.kernel());
    expect_same_result(got, kernels.back());
  }
  // The rows discriminate: no two kernels return the same throughput
  // series, so a kind dispatched to a neighbour's kernel cannot pass.
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    for (std::size_t j = i + 1; j < kernels.size(); ++j) {
      EXPECT_NE(kernels[i].throughput, kernels[j].throughput)
          << solver_kind_name(rows[i].kind) << " vs "
          << solver_kind_name(rows[j].kind);
    }
  }
}

// ----------------------------------------------------------- station rows

/// Every value a utilization-only result keeps equals the all-rows
/// result's, bit for bit, and the rows it drops are empty.
void expect_lean_matches(const MvaResult& lean, const MvaResult& full) {
  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b, const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
                std::bit_cast<std::uint64_t>(b[i]))
          << what << "[" << i << "]: " << a[i] << " vs " << b[i];
    }
  };
  EXPECT_EQ(lean.station_rows, StationRows::kUtilization);
  EXPECT_EQ(full.station_rows, StationRows::kAll);
  EXPECT_EQ(lean.population, full.population);
  same_bits(lean.throughput, full.throughput, "throughput");
  same_bits(lean.response_time, full.response_time, "response_time");
  same_bits(lean.cycle_time, full.cycle_time, "cycle_time");
  same_bits(lean.station_utilization, full.station_utilization,
            "station_utilization");
  same_bits(lean.class_throughput, full.class_throughput, "class_throughput");
  same_bits(lean.class_response_time, full.class_response_time,
            "class_response_time");
  EXPECT_EQ(lean.station_names, full.station_names);
  EXPECT_EQ(lean.class_names, full.class_names);
  EXPECT_EQ(lean.class_population, full.class_population);
  EXPECT_EQ(lean.mc_axis, full.mc_axis);
  EXPECT_EQ(lean.mc_iterations, full.mc_iterations);
  EXPECT_TRUE(lean.station_queue.empty());
  EXPECT_TRUE(lean.station_residence.empty());
  EXPECT_TRUE(lean.class_station_queue.empty());
  EXPECT_EQ(full.station_queue.size(), full.station_utilization.size());
  EXPECT_EQ(full.station_residence.size(), full.station_utilization.size());
}

/// Specs covering all 11 kinds on the dispatch test's networks, plus
/// spline demands on both axes and hierarchical solves with truncated
/// profiles and at tier detail.
std::vector<ScenarioSpec> every_kind_specs() {
  const ClosedNetwork net({Station{"cpu", 1.0, 4, StationKind::kQueueing},
                           Station{"disk", 1.0, 1, StationKind::kQueueing},
                           Station{"lan", 1.0, 1, StationKind::kDelay}},
                          1.0);
  const auto constant = DemandModel::constant({0.2, 0.03, 0.05});
  const auto splines = [](DemandModel::Axis axis) {
    std::vector<std::shared_ptr<const interp::Interpolator1D>> fns;
    for (const double b : {0.2, 0.03, 0.05}) {
      fns.push_back(std::make_shared<interp::PiecewiseCubic>(
          interp::build_cubic_spline(interp::SampleSet(
              {1.0, 10.0, 25.0, 60.0}, {b, 0.9 * b, 1.1 * b, 1.3 * b}))));
    }
    return DemandModel::interpolated(std::move(fns), axis);
  };
  const auto by_n = splines(DemandModel::Axis::kConcurrency);
  const auto by_x = splines(DemandModel::Axis::kThroughput);

  std::vector<ScenarioSpec> specs;
  const auto add = [&](SolverKind kind, const DemandModel& demands,
                       unsigned n) -> SolveOptions& {
    SolveOptions options{kind, n};
    options.schweitzer = {1e-4, 500};
    options.approx = {1e-4, 800};
    options.hierarchy.tiers = {{"front", {0, 1}}};
    specs.push_back({solver_kind_name(kind), net, demands, options});
    return specs.back().options;
  };
  for (const SolverKind kind :
       {SolverKind::kExactSingleServer, SolverKind::kSchweitzer,
        SolverKind::kSeidmann, SolverKind::kSeidmannSchweitzer}) {
    add(kind, constant, 30);
  }
  for (const SolverKind kind :
       {SolverKind::kApproxMultiserver, SolverKind::kMvasd,
        SolverKind::kMvasdSingleServer}) {
    add(kind, constant, 30);
    add(kind, by_n, 45);
    add(kind, by_x, 40);
  }
  add(SolverKind::kHierarchical, constant, 30);
  add(SolverKind::kHierarchical, by_n, 60).hierarchy.saturation_tolerance =
      1e-3;
  SolveOptions& tiers = add(SolverKind::kHierarchical, constant, 60);
  tiers.hierarchy.saturation_tolerance = 1e-3;
  tiers.hierarchy.initial_depth = 4;
  tiers.hierarchy.detail = HierarchyDetail::kTiers;

  const ClosedNetwork mc_net = make_network({"cpu", "disk"}, {1, 1}, 1.0);
  auto varying = std::make_shared<const DemandModel>(DemandModel::interpolated(
      {std::make_shared<interp::PiecewiseCubic>(interp::build_cubic_spline(
           interp::SampleSet({1.0, 8.0, 16.0}, {0.05, 0.06, 0.08}))),
       std::make_shared<interp::PiecewiseCubic>(interp::build_cubic_spline(
           interp::SampleSet({1.0, 8.0, 16.0}, {0.15, 0.12, 0.1})))}));
  for (const SolverKind kind :
       {SolverKind::kExactMulticlass, SolverKind::kMomMulticlass,
        SolverKind::kSchweitzerMulticlass}) {
    for (const unsigned axis_pop : {6u, 3u}) {
      ScenarioSpec spec;
      spec.label = std::string(solver_kind_name(kind)) + "-mix";
      spec.network = mc_net;
      spec.options.solver = kind;
      spec.options.schweitzer = {1e-4, 500};
      spec.options.classes = {{"a", 4, 1.0, {0.05, 0.15}},
                              {"b", axis_pop, 0.5, {0.02, 0.01}}};
      if (kind != SolverKind::kMomMulticlass && axis_pop == 3) {
        spec.options.classes[0].demand_model = varying;
      }
      finalize_multiclass_options(spec.options);
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

/// The first spec of `kind` from every_kind_specs() (constant demands).
ScenarioSpec first_spec_of(SolverKind kind) {
  for (ScenarioSpec& spec : every_kind_specs()) {
    if (spec.options.solver == kind) return std::move(spec);
  }
  return {};
}

ScenarioSpec with_rows(ScenarioSpec spec, StationRows rows) {
  spec.options.station_rows = rows;
  return spec;
}

MvaResult solve_spec(const ScenarioSpec& spec) {
  return solve(spec.network, &spec.demands, spec.options);
}

TEST(StationRows, EveryKindKeepsItsValuesThroughSolve) {
  std::vector<SolverKind> seen;
  for (const ScenarioSpec& spec : every_kind_specs()) {
    SCOPED_TRACE(spec.label);
    seen.push_back(spec.options.solver);
    const MvaResult full = solve_spec(spec);
    const MvaResult lean =
        solve_spec(with_rows(spec, StationRows::kUtilization));
    expect_lean_matches(lean, full);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()) - seen.begin(), 11);
}

TEST(StationRows, SolveBatchMixesRowKindsInRaggedBlocks) {
  // Every spec twice, once per row kind, plus extra mvasd and multiclass
  // lanes of other depths: the lockstep blocks come out ragged, with lean
  // and full lanes side by side.
  std::vector<ScenarioSpec> specs;
  for (const ScenarioSpec& spec : every_kind_specs()) {
    specs.push_back(with_rows(spec, StationRows::kUtilization));
    specs.push_back(spec);
  }
  const ScenarioSpec mvasd = first_spec_of(SolverKind::kMvasd);
  ASSERT_EQ(mvasd.options.solver, SolverKind::kMvasd);
  for (const unsigned n : {1u, 7u, 55u, 19u}) {
    ScenarioSpec lane = with_rows(
        mvasd, n % 2 == 0 ? StationRows::kAll : StationRows::kUtilization);
    lane.options.max_population = n;
    specs.push_back(std::move(lane));
  }
  for (const SolverKind kind :
       {SolverKind::kExactMulticlass, SolverKind::kSchweitzerMulticlass}) {
    const ScenarioSpec mix = first_spec_of(kind);
    for (const unsigned axis_pop : {2u, 9u, 1u}) {
      ScenarioSpec lane = with_rows(mix, axis_pop % 2 == 0
                                             ? StationRows::kAll
                                             : StationRows::kUtilization);
      lane.options.classes.back().population = axis_pop;
      finalize_multiclass_options(lane.options);
      specs.push_back(std::move(lane));
    }
  }
  std::vector<const ScenarioSpec*> ptrs;
  for (const auto& s : specs) ptrs.push_back(&s);
  const auto plan = detail::plan_batch(ptrs);
  // Both kernels run a block that mixes lean and full lanes:
  // mixed[is_multiclass(kind)].
  bool mixed[2] = {false, false};
  for (const auto& block : plan.blocks) {
    bool lean = false, full = false;
    for (const std::size_t i : block) {
      (specs[i].options.station_rows == StationRows::kAll ? full : lean) =
          true;
    }
    mixed[is_multiclass(specs[block[0]].options.solver) ? 1 : 0] |=
        lean && full;
  }
  EXPECT_TRUE(mixed[0]);
  EXPECT_TRUE(mixed[1]);

  const std::vector<MvaResult> batched = solve_batch(specs);
  ASSERT_EQ(batched.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].label + " #" + std::to_string(i));
    const MvaResult full = solve_spec(with_rows(specs[i], StationRows::kAll));
    if (specs[i].options.station_rows == StationRows::kAll) {
      expect_same_result(batched[i], full);
    } else {
      expect_lean_matches(batched[i], full);
    }
  }
}

TEST(StationRows, LeanResultsTrimLeanAndHaveNoQueueSeries) {
  const ScenarioSpec spec = first_spec_of(SolverKind::kMvasd);
  ASSERT_EQ(spec.options.solver, SolverKind::kMvasd);
  const MvaResult full = solve_spec(spec);
  const MvaResult lean = solve_spec(with_rows(spec, StationRows::kUtilization));
  expect_lean_matches(lean.prefix(12), full.prefix(12));
  EXPECT_EQ(lean.utilization_series(0), full.utilization_series(0));
  try {
    (void)lean.queue_series(0);
    FAIL() << "queue_series read a utilization-only result";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find("utilization rows only"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(lean.bytes(), full.bytes());
}

// ----------------------------------------------------------------- result

TEST(Result, RowLookupAndSeries) {
  const auto net = make_network({"a", "b"}, {1, 1}, 1.0);
  const auto r = exact_single_server(net, std::vector<double>{0.1, 0.2}, 10);
  EXPECT_EQ(r.row_for(7), 6u);
  EXPECT_THROW(r.row_for(11), invalid_argument_error);
  EXPECT_EQ(r.utilization_series(1).size(), 10u);
  EXPECT_EQ(r.queue_series(0).size(), 10u);
  EXPECT_THROW(r.utilization_series(5), invalid_argument_error);
  const auto xs = r.throughput_at({1.0, 5.0, 10.0});
  EXPECT_EQ(xs.size(), 3u);
  EXPECT_DOUBLE_EQ(xs[0], r.throughput[0]);
  EXPECT_THROW(r.throughput_at({42.0}), invalid_argument_error);
}

// ------------------------------------------------------------------ sweep

TEST(Sweep, PreservesOrderSequentialAndParallel) {
  const auto net = make_network({"a"}, {1}, 1.0);
  auto make = [&](double s) {
    ScenarioSpec spec;
    spec.label = s > 0.2 ? "slow" : "fast";
    spec.network = net;
    spec.demands = DemandModel::constant({s});
    spec.options.solver = SolverKind::kExactSingleServer;
    spec.options.max_population = 5;
    return spec;
  };
  const std::vector<ScenarioSpec> scenarios{make(0.4), make(0.1)};
  const auto seq = run_scenarios(scenarios);
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_EQ(seq[0].label, "slow");
  EXPECT_LT(seq[0].result.throughput.back(), seq[1].result.throughput.back());

  ThreadPool pool(2);
  const auto par = run_scenarios(scenarios, &pool);
  ASSERT_EQ(par.size(), 2u);
  EXPECT_EQ(par[1].label, "fast");
  EXPECT_DOUBLE_EQ(par[0].result.throughput.back(),
                   seq[0].result.throughput.back());
}

}  // namespace
}  // namespace mtperf::core
