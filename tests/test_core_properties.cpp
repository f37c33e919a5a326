// Randomized property sweeps over the MVA family: invariants that must
// hold on *any* well-formed closed network, checked over dozens of
// generated topologies.  These catch the failure modes unit tests anchored
// to hand-picked networks cannot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "convolution_oracle.hpp"
#include "core/demand_model.hpp"
#include "core/detail/mva_schweitzer.hpp"
#include "core/mva_multiclass.hpp"
#include "core/network.hpp"
#include "core/solve.hpp"
#include "interp/cubic_spline.hpp"
#include "ops/bounds.hpp"

namespace mtperf::core {
namespace {

using detail::schweitzer_mva;

/// Algorithm 2: the mvasd kind over constant demands.
MvaResult exact_multiserver(const ClosedNetwork& network,
                            const std::vector<double>& service_times,
                            unsigned max_population) {
  return solve(network, DemandModel::constant(service_times),
               {SolverKind::kMvasd, max_population});
}

/// A multiclass kind through the facade.
MvaResult solve_mix(SolverKind kind, const ClosedNetwork& network,
                    std::vector<CustomerClass> classes) {
  SolveOptions options;
  options.solver = kind;
  options.classes = std::move(classes);
  finalize_multiclass_options(options);
  return solve(network, nullptr, options);
}

struct RandomCase {
  ClosedNetwork network;
  std::vector<double> demands;
  unsigned max_population;
};

RandomCase make_case(std::uint64_t seed) {
  Rng rng(seed);
  const auto k_count = 1 + static_cast<std::size_t>(rng.uniform_int(0, 5));
  std::vector<Station> stations;
  std::vector<double> demands;
  for (std::size_t k = 0; k < k_count; ++k) {
    Station st;
    st.name = "s" + std::to_string(k);
    st.visits = 1.0;
    const auto pick = rng.uniform_int(0, 3);
    st.servers = pick == 0 ? 1u : static_cast<unsigned>(rng.uniform_int(2, 16));
    st.kind = (k > 0 && rng.bernoulli(0.15)) ? StationKind::kDelay
                                             : StationKind::kQueueing;
    stations.push_back(st);
    demands.push_back(rng.uniform(0.001, 0.2));
  }
  const double z = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.1, 3.0);
  const auto n = static_cast<unsigned>(rng.uniform_int(5, 120));
  return RandomCase{ClosedNetwork(std::move(stations), z), std::move(demands),
                    n};
}

class RandomNetworks : public ::testing::TestWithParam<int> {};

TEST_P(RandomNetworks, LittlesLawAndConservationHold) {
  const RandomCase c = make_case(1000 + GetParam());
  const auto r = exact_multiserver(c.network, c.demands, c.max_population);
  for (std::size_t i = 0; i < r.levels(); ++i) {
    // Little's law at the system level.
    EXPECT_NEAR(r.throughput[i] * r.cycle_time[i],
                static_cast<double>(r.population[i]), 1e-7);
    // Customer conservation: queues + thinking customers = population.
    double total = r.throughput[i] * c.network.think_time();
    for (std::size_t k = 0; k < c.network.size(); ++k) {
      total += r.queue(i, k);
    }
    EXPECT_NEAR(total, static_cast<double>(r.population[i]), 1e-6);
  }
}

TEST_P(RandomNetworks, ThroughputMonotoneAndCapacityBounded) {
  const RandomCase c = make_case(2000 + GetParam());
  const auto r = exact_multiserver(c.network, c.demands, c.max_population);
  double capacity = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < c.network.size(); ++k) {
    const Station& st = c.network.station(k);
    if (st.kind == StationKind::kQueueing && c.demands[k] > 0.0) {
      capacity = std::min(capacity,
                          static_cast<double>(st.servers) / c.demands[k]);
    }
  }
  double prev = 0.0;
  for (std::size_t i = 0; i < r.levels(); ++i) {
    EXPECT_GE(r.throughput[i], prev * (1.0 - 5e-3)) << "i=" << i;
    prev = std::max(prev, r.throughput[i]);
    EXPECT_LE(r.throughput[i], capacity * (1.0 + 5e-3)) << "i=" << i;
    for (std::size_t k = 0; k < r.stations(); ++k) {
      const double u = r.utilization(i, k);
      EXPECT_LE(u, 1.0 + 5e-3);
      EXPECT_GE(u, 0.0);
    }
  }
}

TEST_P(RandomNetworks, MultiServerAgreesWithLoadDependent) {
  // The load-dependent reference is the convolution oracle with each
  // station's law alpha(j) = min(j, C) (delay stations alpha(j) = j).
  const RandomCase c = make_case(3000 + GetParam());
  const auto ms = exact_multiserver(c.network, c.demands,
                                        c.max_population);
  const auto ld = oracle::solve(c.network, c.demands, c.max_population,
                                /*with_queues=*/false);
  // Up to 16 servers and 120 customers the recursion stays within 1e-9 of
  // exact (DESIGN.md section 2a, finding 1); the bound keeps a 10x margin.
  for (std::size_t i = 0; i < ms.levels(); ++i) {
    EXPECT_NEAR(ms.throughput[i], ld.throughput[i], 1e-8 * ld.throughput[i])
        << "population " << ms.population[i];
  }
}

TEST_P(RandomNetworks, SchweitzerTracksExactOnSingleServerNetworks) {
  RandomCase c = make_case(4000 + GetParam());
  // Restrict to single-server queueing stations (Schweitzer's setting).
  std::vector<Station> stations = c.network.stations();
  for (auto& st : stations) st.servers = 1;
  const ClosedNetwork net(std::move(stations), c.network.think_time());
  const auto exact =
      oracle::solve(net, c.demands, c.max_population, /*with_queues=*/false);
  const auto approx = schweitzer_mva(net, c.demands, c.max_population);
  for (unsigned n :
       {1u, c.max_population / 2 + 1, c.max_population}) {
    const double e = exact.throughput[n - 1];
    const double a = approx.throughput[approx.row_for(n)];
    EXPECT_NEAR(a, e, 0.08 * e) << "n=" << n;
  }
}

TEST_P(RandomNetworks, AsymptoticBoundsContainExactSolution) {
  const RandomCase c = make_case(5000 + GetParam());
  // Single-server view for the classic bounds; delay-station demands are
  // pure latency and belong in the think-time term, not in the queueing
  // demands (they would otherwise spuriously tighten the balanced bound).
  std::vector<Station> stations = c.network.stations();
  for (auto& st : stations) st.servers = 1;
  const ClosedNetwork net(std::move(stations), c.network.think_time());
  const auto r = solve(net, DemandModel::constant(c.demands),
                       {SolverKind::kExactSingleServer, c.max_population});
  std::vector<double> queueing_demands;
  double z = c.network.think_time();
  for (std::size_t k = 0; k < net.size(); ++k) {
    if (net.station(k).kind == StationKind::kDelay) {
      z += c.demands[k];
    } else {
      queueing_demands.push_back(c.demands[k]);
    }
  }
  if (queueing_demands.empty()) return;  // pure-delay network: no bounds
  ops::BoundsInput in{queueing_demands, z};
  for (std::size_t i = 0; i < r.levels(); ++i) {
    const auto n = static_cast<double>(r.population[i]);
    EXPECT_LE(r.throughput[i], ops::throughput_upper_bound(in, n) + 1e-9);
    EXPECT_GE(r.response_time[i],
              ops::response_time_lower_bound(in, n) - 1e-9);
    const auto bjb = ops::balanced_job_bounds(in, n);
    EXPECT_GE(r.throughput[i], bjb.throughput_lower - 1e-9);
    EXPECT_LE(r.throughput[i], bjb.throughput_upper + 1e-9);
  }
}

TEST_P(RandomNetworks, IntervalMvaBracketsInteriorDemandVectors) {
  // Throughput falls as any demand grows, so solves at the lower and upper
  // corners of a +/-15% demand box bracket every demand vector inside it.
  const RandomCase c = make_case(6000 + GetParam());
  Rng rng(7000 + GetParam());
  constexpr double kHalfWidth = 0.15;
  std::vector<double> lower(c.demands);
  std::vector<double> upper(c.demands);
  for (double& d : lower) d *= 1.0 - kHalfWidth;
  for (double& d : upper) d *= 1.0 + kHalfWidth;
  const auto optimistic = exact_multiserver(c.network, lower, c.max_population);
  const auto pessimistic =
      exact_multiserver(c.network, upper, c.max_population);
  std::vector<double> inner(c.demands);
  for (double& d : inner) d *= rng.uniform(0.85, 1.15);
  const auto mid = exact_multiserver(c.network, inner, c.max_population);
  for (unsigned n : {1u, c.max_population}) {
    const std::size_t i = mid.row_for(n);
    EXPECT_LE(pessimistic.throughput[i], mid.throughput[i] * (1.0 + 1e-6));
    EXPECT_GE(optimistic.throughput[i], mid.throughput[i] * (1.0 - 1e-6));
  }
}

TEST_P(RandomNetworks, MvasdWithConstantSplineEqualsConstantModel) {
  const RandomCase c = make_case(8000 + GetParam());
  // A spline through constant samples is the constant function, so MVASD
  // must reproduce the fixed-demand solution exactly.
  std::vector<std::shared_ptr<const interp::Interpolator1D>> interpolants;
  for (double d : c.demands) {
    interpolants.push_back(std::make_shared<interp::PiecewiseCubic>(
        interp::build_cubic_spline(
            interp::SampleSet({1.0, 10.0, 100.0}, {d, d, d}))));
  }
  const auto varying =
      solve(c.network, DemandModel::interpolated(std::move(interpolants)),
            {SolverKind::kMvasd, c.max_population});
  const auto fixed =
      exact_multiserver(c.network, c.demands, c.max_population);
  for (std::size_t i = 0; i < fixed.levels(); ++i) {
    EXPECT_NEAR(varying.throughput[i], fixed.throughput[i],
                1e-9 * std::max(1.0, fixed.throughput[i]));
  }
}

TEST_P(RandomNetworks, MulticlassSplitInvariance) {
  // Splitting one class into two identical halves must not change totals.
  RandomCase c = make_case(9000 + GetParam());
  std::vector<Station> stations = c.network.stations();
  for (auto& st : stations) st.servers = 1;  // multiclass setting
  const ClosedNetwork net(std::move(stations), c.network.think_time());
  const unsigned n = std::min(c.max_population, 24u) | 1u;  // keep it odd+small
  const std::vector<CustomerClass> merged{
      {"all", n, net.think_time(), c.demands}};
  const std::vector<CustomerClass> split{
      {"a", n / 2, net.think_time(), c.demands},
      {"b", n - n / 2, net.think_time(), c.demands}};
  const auto one = solve_mix(SolverKind::kExactMulticlass, net, merged);
  const auto two = solve_mix(SolverKind::kExactMulticlass, net, split);
  EXPECT_NEAR(one.throughput.back(), two.throughput.back(),
              1e-8 * std::max(1.0, one.throughput.back()));
}

TEST_P(RandomNetworks, MulticlassSolversAgreeOnRandomSmallMixes) {
  // MoM is exact: on mixes small enough for the population-vector
  // recursion the two must agree to solver tolerance, and Schweitzer must
  // land in the neighborhood.  Random demands scale per class so the
  // classes genuinely differ.
  const RandomCase c = make_case(10000 + GetParam());
  Rng rng(11000 + GetParam());
  std::vector<Station> stations = c.network.stations();
  for (auto& st : stations) st.servers = 1;  // multiclass setting
  const ClosedNetwork net(std::move(stations), c.network.think_time());
  const std::size_t class_count = 2 + GetParam() % 2;
  std::vector<CustomerClass> classes;
  for (std::size_t i = 0; i < class_count; ++i) {
    std::vector<double> demands = c.demands;
    const double scale = rng.uniform(0.3, 1.5);
    for (double& d : demands) d *= scale;
    classes.push_back({"c" + std::to_string(i),
                       static_cast<unsigned>(rng.uniform_int(1, 6)),
                       rng.uniform(0.0, 2.0), std::move(demands), nullptr});
  }
  const MvaResult exact = solve_mix(SolverKind::kExactMulticlass, net, classes);
  const MvaResult mom = solve_mix(SolverKind::kMomMulticlass, net, classes);
  const std::size_t top = exact.levels() - 1;
  ASSERT_EQ(mom.classes(), exact.classes());
  EXPECT_NEAR(mom.throughput[0], exact.throughput[top],
              1e-9 * std::max(1.0, exact.throughput[top]));
  for (std::size_t i = 0; i < class_count; ++i) {
    EXPECT_NEAR(mom.class_x(0, i), exact.class_x(top, i),
                1e-9 * std::max(1.0, exact.class_x(top, i)))
        << "class " << i;
  }
  // Schweitzer is approximate and weakest at tiny populations: a loose
  // bracket that still catches sign- and indexing-level bugs.
  const MvaResult schweitzer =
      solve_mix(SolverKind::kSchweitzerMulticlass, net, classes);
  const std::size_t s_top = schweitzer.levels() - 1;
  EXPECT_NEAR(schweitzer.throughput[s_top], exact.throughput[top],
              0.25 * std::max(1.0, exact.throughput[top]));
}

TEST_P(RandomNetworks, SingleClassMulticlassSpecMatchesMvasd) {
  // One class over a random single-server network must collapse to the
  // single-class recursion (the facade's bit-parity contract, checked on
  // fixtures in test_multiclass; here over random topologies).
  const RandomCase c = make_case(12000 + GetParam());
  std::vector<Station> stations = c.network.stations();
  for (auto& st : stations) st.servers = 1;
  const ClosedNetwork net(std::move(stations), c.network.think_time());
  const unsigned n = std::min(c.max_population, 40u);
  const std::vector<CustomerClass> classes{
      {"only", n, net.think_time(), c.demands, nullptr}};
  SolveOptions mc_options;
  mc_options.solver = SolverKind::kExactMulticlass;
  mc_options.classes = classes;
  finalize_multiclass_options(mc_options);
  const MvaResult mc = solve(net, nullptr, mc_options);
  const MvaResult sc =
      solve(net, DemandModel::constant(c.demands), {SolverKind::kMvasd, n});
  ASSERT_EQ(mc.levels(), sc.levels());
  for (std::size_t i = 0; i < sc.levels(); ++i) {
    EXPECT_EQ(mc.throughput[i], sc.throughput[i]) << "level " << i;
    EXPECT_EQ(mc.cycle_time[i], sc.cycle_time[i]) << "level " << i;
    for (std::size_t k = 0; k < sc.stations(); ++k) {
      EXPECT_EQ(mc.queue(i, k), sc.queue(i, k));
      EXPECT_EQ(mc.utilization(i, k), sc.utilization(i, k));
    }
  }
}

TEST_P(RandomNetworks, SingleClassSchweitzerMixMatchesSchweitzer) {
  // One class through schweitzer-multiclass must equal the scalar
  // single-class Schweitzer kind bit for bit at every level, in both row
  // kinds: an independent kernel for the multiclass fixed point.  Visits
  // and servers are 1 (the multiclass demands fold visits in); every third
  // case zeroes the last station's demand (station 0 keeps a positive one).
  const RandomCase c = make_case(13000 + GetParam());
  std::vector<Station> stations = c.network.stations();
  for (auto& st : stations) {
    st.servers = 1;
    st.visits = 1.0;
  }
  const ClosedNetwork net(std::move(stations), c.network.think_time());
  std::vector<double> demands = c.demands;
  if (GetParam() % 3 == 0 && demands.size() > 1) demands.back() = 0.0;
  for (const StationRows rows :
       {StationRows::kAll, StationRows::kUtilization}) {
    SolveOptions mc_options;
    mc_options.solver = SolverKind::kSchweitzerMulticlass;
    mc_options.classes = {
        {"only", c.max_population, net.think_time(), demands, nullptr}};
    mc_options.station_rows = rows;
    finalize_multiclass_options(mc_options);
    SolveOptions sc_options{SolverKind::kSchweitzer, c.max_population};
    sc_options.station_rows = rows;
    const MvaResult mc = solve(net, nullptr, mc_options);
    const MvaResult sc = solve(net, DemandModel::constant(demands), sc_options);
    EXPECT_EQ(mc.throughput, sc.throughput);
    EXPECT_EQ(mc.response_time, sc.response_time);
    EXPECT_EQ(mc.cycle_time, sc.cycle_time);
    EXPECT_EQ(mc.station_queue, sc.station_queue);
    EXPECT_EQ(mc.station_utilization, sc.station_utilization);
    EXPECT_EQ(mc.station_residence, sc.station_residence);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomNetworks, ::testing::Range(0, 12));

TEST(NetworkAscii, SketchMentionsEveryStation) {
  const ClosedNetwork net(
      {Station{"cpu", 2.0, 8, StationKind::kQueueing},
       Station{"lan", 1.0, 1, StationKind::kDelay}},
      1.5);
  const std::string sketch = network_ascii(net);
  EXPECT_NE(sketch.find("cpu"), std::string::npos);
  EXPECT_NE(sketch.find("8 servers"), std::string::npos);
  EXPECT_NE(sketch.find("delay"), std::string::npos);
  EXPECT_NE(sketch.find("V=2"), std::string::npos);
  EXPECT_NE(sketch.find("Z = 1.5"), std::string::npos);
}

}  // namespace
}  // namespace mtperf::core
