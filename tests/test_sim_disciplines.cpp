// Tests for the simulator's service disciplines and distributions:
// processor sharing, deterministic/Erlang/log-normal services, and the
// BCMP insensitivity properties that distinguish them.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/network.hpp"
#include "core/solve.hpp"
#include "sim/closed_network_sim.hpp"

namespace mtperf::sim {
namespace {

// --------------------------------------------------------- distributions

TEST(Distributions, MeansConverge) {
  Rng rng(3);
  for (auto kind : {DistributionKind::kExponential,
                    DistributionKind::kDeterministic,
                    DistributionKind::kErlang, DistributionKind::kLogNormal}) {
    ServiceDistribution dist{kind, 0.5};
    RunningStats s;
    for (int i = 0; i < 100000; ++i) s.add(dist.draw(rng, 2.0));
    EXPECT_NEAR(s.mean(), 2.0, 0.05) << static_cast<int>(kind);
  }
}

TEST(Distributions, CoefficientsOfVariation) {
  Rng rng(5);
  auto cv_of = [&](ServiceDistribution dist) {
    RunningStats s;
    for (int i = 0; i < 200000; ++i) s.add(dist.draw(rng, 1.0));
    return s.stddev() / s.mean();
  };
  EXPECT_NEAR(cv_of({DistributionKind::kExponential, 1.0}), 1.0, 0.02);
  EXPECT_NEAR(cv_of({DistributionKind::kDeterministic, 0.0}), 0.0, 1e-9);
  // Erlang with cv = 0.5 -> k = 4 -> true cv = 0.5.
  EXPECT_NEAR(cv_of({DistributionKind::kErlang, 0.5}), 0.5, 0.02);
  EXPECT_NEAR(cv_of({DistributionKind::kLogNormal, 2.0}), 2.0, 0.15);
}

TEST(Distributions, ErlangRejectsInvalidCv) {
  Rng rng(1);
  ServiceDistribution bad{DistributionKind::kErlang, 1.5};
  EXPECT_THROW(bad.draw(rng, 1.0), invalid_argument_error);
}

TEST(RngExtensions, ErlangMomentsExact) {
  Rng rng(7);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.erlang(4, 2.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.02);
  // var = mean^2 / k = 1.
  EXPECT_NEAR(s.variance(), 1.0, 0.05);
}

TEST(RngExtensions, LognormalMoments) {
  Rng rng(9);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.lognormal(3.0, 0.5));
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
  EXPECT_NEAR(s.stddev() / s.mean(), 0.5, 0.02);
}

// ------------------------------------- closed-network discipline behaviour

SimOptions long_options(unsigned customers, std::uint64_t seed) {
  SimOptions o;
  o.customers = customers;
  o.think_time_mean = 1.0;
  o.warmup_time = 100.0;
  o.measure_time = 1500.0;
  o.seed = seed;
  return o;
}

TEST(DisciplineBehaviour, PsAndFcfsAgreeForExponentialService) {
  // BCMP: with exponential service both disciplines are product-form with
  // identical mean performance.
  const std::vector<SimVisit> flow{{0, 0.25}};
  const auto fcfs = simulate_closed_network(
      {{"cpu", 1, Discipline::kFcfs}}, flow, long_options(4, 21));
  const auto ps = simulate_closed_network(
      {{"cpu", 1, Discipline::kProcessorSharing}}, flow, long_options(4, 22));
  EXPECT_NEAR(ps.throughput, fcfs.throughput, 0.04 * fcfs.throughput);
  EXPECT_NEAR(ps.response_time, fcfs.response_time,
              0.08 * fcfs.response_time);
}

TEST(DisciplineBehaviour, PsInsensitiveToServiceDistribution) {
  // PS mean metrics depend only on the mean demand: deterministic vs
  // exponential service must agree.  (FCFS would not: M/D/1 halves the
  // queueing delay.)
  std::vector<SimVisit> exp_flow{{0, 0.25}};
  std::vector<SimVisit> det_flow{
      {0, 0.25, {DistributionKind::kDeterministic, 0.0}}};
  const auto exp_r = simulate_closed_network(
      {{"cpu", 1, Discipline::kProcessorSharing}}, exp_flow,
      long_options(4, 31));
  const auto det_r = simulate_closed_network(
      {{"cpu", 1, Discipline::kProcessorSharing}}, det_flow,
      long_options(4, 32));
  EXPECT_NEAR(det_r.response_time, exp_r.response_time,
              0.08 * exp_r.response_time);
}

TEST(DisciplineBehaviour, FcfsSensitiveToServiceVariability) {
  // FCFS with deterministic service queues less than with exponential.
  std::vector<SimVisit> exp_flow{{0, 0.3}};
  std::vector<SimVisit> det_flow{
      {0, 0.3, {DistributionKind::kDeterministic, 0.0}}};
  const auto exp_r = simulate_closed_network({{"cpu", 1}}, exp_flow,
                                             long_options(6, 41));
  const auto det_r = simulate_closed_network({{"cpu", 1}}, det_flow,
                                             long_options(6, 42));
  EXPECT_LT(det_r.response_time, 0.95 * exp_r.response_time);
}

TEST(DisciplineBehaviour, PsMatchesExactMvaProductForm) {
  // Closed PS network is product-form for any service distribution; its
  // mean metrics must match exact MVA with the same demands.
  std::vector<SimVisit> flow{
      {0, 0.08, {DistributionKind::kLogNormal, 2.0}},
      {1, 0.12, {DistributionKind::kErlang, 0.5}},
  };
  const auto net = core::make_network({"a", "b"}, {1, 1}, 1.0);
  const auto mva = core::solve(net, core::DemandModel::constant({0.08, 0.12}),
                               {core::SolverKind::kExactSingleServer, 12});
  const auto sim = simulate_closed_network(
      {{"a", 1, Discipline::kProcessorSharing},
       {"b", 1, Discipline::kProcessorSharing}},
      flow, long_options(12, 51));
  const double predicted = mva.throughput[mva.row_for(12)];
  EXPECT_NEAR(sim.throughput, predicted, 0.05 * predicted);
}

TEST(DisciplineBehaviour, ErlangServiceReducesFcfsQueueing) {
  std::vector<SimVisit> exp_flow{{0, 0.3}};
  std::vector<SimVisit> erl_flow{{0, 0.3, {DistributionKind::kErlang, 0.5}}};
  const auto exp_r = simulate_closed_network({{"cpu", 1}}, exp_flow,
                                             long_options(6, 61));
  const auto erl_r = simulate_closed_network({{"cpu", 1}}, erl_flow,
                                             long_options(6, 62));
  EXPECT_LT(erl_r.response_time, exp_r.response_time);
}

}  // namespace
}  // namespace mtperf::sim
