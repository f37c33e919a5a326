// Tests for the extrapolation baselines, the approximate multi-server MVA,
// demand regression estimation, and interval MVA (solves at the corners of
// a demand box).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/extrapolation.hpp"
#include "core/network.hpp"
#include "core/solve.hpp"
#include "interp/cubic_spline.hpp"
#include "interp/piecewise_cubic.hpp"
#include "ops/demand_estimation.hpp"

namespace mtperf::core {
namespace {

/// Constant demands `scale * d` through the facade's `kind` solver.
MvaResult solve_constant(SolverKind kind, const ClosedNetwork& net,
                         std::vector<double> d, unsigned n,
                         double scale = 1.0) {
  for (double& x : d) x *= scale;
  return solve(net, DemandModel::constant(std::move(d)), {kind, n});
}

// ----------------------------------------------------------- extrapolation

TEST(Extrapolation, LinearFitRecoversLine) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{3.0, 5.0, 7.0, 9.0, 11.0};
  const auto fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
  EXPECT_NEAR(fit(10.0), 21.0, 1e-9);
}

TEST(Extrapolation, LinearFitRSquaredDropsWithNoise) {
  Rng rng(5);
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(2.0 * i + rng.normal(0.0, 5.0));
  }
  const auto fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 0.3);
  EXPECT_LT(fit.r_squared, 1.0);
  EXPECT_GT(fit.r_squared, 0.8);
}

TEST(Extrapolation, SigmoidFitRecoversParameters) {
  const double L = 120.0, x0 = 80.0, k = 0.06;
  std::vector<double> x, y;
  for (double xi = 5.0; xi <= 200.0; xi += 10.0) {
    x.push_back(xi);
    y.push_back(L / (1.0 + std::exp(-k * (xi - x0))));
  }
  const auto fit = fit_sigmoid(x, y);
  EXPECT_NEAR(fit.ceiling, L, 0.05 * L);
  EXPECT_NEAR(fit.midpoint, x0, 8.0);
  EXPECT_LT(fit.rmse, 1.0);
}

TEST(Extrapolation, ChoosesSigmoidForSaturatingSeries) {
  std::vector<double> x, y;
  for (double xi = 10.0; xi <= 300.0; xi += 20.0) {
    x.push_back(xi);
    y.push_back(100.0 / (1.0 + std::exp(-0.05 * (xi - 100.0))));
  }
  const auto r = extrapolate_throughput(x, y, std::vector<double>{400.0});
  EXPECT_TRUE(r.used_sigmoid);
  EXPECT_NEAR(r.predictions[0], 100.0, 5.0);
}

TEST(Extrapolation, ChoosesLinearForRisingSeries) {
  const std::vector<double> x{10, 20, 30, 40};
  const std::vector<double> y{11, 20.5, 30.2, 40.1};
  const auto r = extrapolate_throughput(x, y, std::vector<double>{80.0});
  EXPECT_FALSE(r.used_sigmoid);
  EXPECT_NEAR(r.predictions[0], 80.0, 4.0);
}

TEST(Extrapolation, Validation) {
  EXPECT_THROW(fit_linear(std::vector<double>{1.0}, std::vector<double>{1.0}),
               invalid_argument_error);
  EXPECT_THROW(fit_sigmoid(std::vector<double>{1.0, 2.0},
                           std::vector<double>{1.0, 2.0}),
               invalid_argument_error);
}

// ----------------------------------------- approximate multi-server MVA

TEST(ApproxMultiserver, CloseToExactAcrossLoads) {
  const ClosedNetwork net(
      {Station{"cpu", 1.0, 8, StationKind::kQueueing},
       Station{"disk", 1.0, 1, StationKind::kQueueing}},
      1.0);
  const std::vector<double> s{0.08, 0.012};
  const auto exact = solve_constant(SolverKind::kMvasd, net, s, 150);
  const auto approx =
      solve_constant(SolverKind::kApproxMultiserver, net, s, 150);
  for (unsigned n : {1u, 10u, 40u, 100u, 150u}) {
    const double e = exact.throughput[exact.row_for(n)];
    const double a = approx.throughput[approx.row_for(n)];
    EXPECT_NEAR(a, e, 0.10 * e) << "n=" << n;
  }
}

TEST(ApproxMultiserver, SingleServerMatchesSchweitzerBehaviour) {
  // With C = 1 everywhere the correction vanishes; results must satisfy
  // Little's law and saturate at 1/Dmax.
  const auto net = make_network({"a", "b"}, {1, 1}, 1.0);
  const std::vector<double> s{0.02, 0.05};
  const auto r = solve_constant(SolverKind::kApproxMultiserver, net, s, 200);
  EXPECT_NEAR(r.throughput.back(), 1.0 / 0.05, 0.3);
  for (std::size_t i = 0; i < r.levels(); ++i) {
    EXPECT_NEAR(r.throughput[i] * r.cycle_time[i],
                static_cast<double>(r.population[i]), 1e-6);
  }
}

TEST(ApproxMultiserver, VaryingDemandVariantTracksDemandFloor) {
  const ClosedNetwork net(
      {Station{"cpu", 1.0, 4, StationKind::kQueueing}}, 1.0);
  auto spline = std::make_shared<interp::PiecewiseCubic>(
      interp::build_cubic_spline(
          interp::SampleSet({1, 100}, {0.2, 0.16})));
  const auto model = DemandModel::interpolated({spline});
  const auto r = solve(net, model, {SolverKind::kApproxMultiserver, 300});
  EXPECT_NEAR(r.throughput.back(), 4.0 / 0.16, 0.05 * 4.0 / 0.16);
}

// ------------------------------------------------- demand regression

TEST(DemandRegression, RecoversDemandFromCleanSamples) {
  // U = (D/C) X with D = 0.08, C = 4.
  std::vector<double> x, u;
  for (double xi = 5.0; xi <= 45.0; xi += 5.0) {
    x.push_back(xi);
    u.push_back(0.08 / 4.0 * xi);
  }
  const auto est = ops::estimate_demand_regression(x, u, 4);
  EXPECT_NEAR(est.demand, 0.08, 1e-9);
  EXPECT_NEAR(est.background_utilization, 0.0, 1e-9);
  EXPECT_NEAR(est.r_squared, 1.0, 1e-9);
}

TEST(DemandRegression, SeparatesBackgroundLoad) {
  // 10% background utilization that the direct law would fold into D.
  std::vector<double> x, u;
  for (double xi = 5.0; xi <= 45.0; xi += 5.0) {
    x.push_back(xi);
    u.push_back(0.10 + 0.002 * xi);
  }
  const auto est = ops::estimate_demand_regression(x, u, 1);
  EXPECT_NEAR(est.demand, 0.002, 1e-9);
  EXPECT_NEAR(est.background_utilization, 0.10, 1e-9);
  // Forcing the intercept to zero inflates the demand estimate.
  const auto forced = ops::estimate_demand_regression(x, u, 1, true);
  EXPECT_GT(forced.demand, est.demand);
}

TEST(DemandRegression, RobustToNoise) {
  Rng rng(17);
  std::vector<double> x, u;
  for (int i = 1; i <= 60; ++i) {
    x.push_back(i);
    u.push_back(std::max(0.0, 0.005 * i + rng.normal(0.0, 0.01)));
  }
  const auto est = ops::estimate_demand_regression(x, u, 1);
  EXPECT_NEAR(est.demand, 0.005, 0.001);
}

TEST(DemandRegression, Validation) {
  EXPECT_THROW(ops::estimate_demand_regression(
                   std::vector<double>{1.0}, std::vector<double>{0.1, 0.2}, 1),
               invalid_argument_error);
  EXPECT_THROW(ops::estimate_demand_regression(std::vector<double>{1.0},
                                               std::vector<double>{0.1}, 0),
               invalid_argument_error);
  EXPECT_THROW(
      ops::estimate_demand_regression(std::vector<double>{1.0, 1.0},
                                      std::vector<double>{0.1, 0.2}, 1),
      invalid_argument_error);  // identical throughputs
}


// ------------------------------------------------------------ interval MVA
//
// Throughput falls as any demand grows, so exact MVA at the lower and upper
// corners of a demand box brackets every demand vector inside it.

TEST(IntervalMva, BandBracketsNominal) {
  const ClosedNetwork net(
      {Station{"cpu", 1.0, 4, StationKind::kQueueing},
       Station{"disk", 1.0, 1, StationKind::kQueueing}},
      1.0);
  const std::vector<double> d{0.08, 0.02};
  const auto optimistic = solve_constant(SolverKind::kMvasd, net, d, 100, 0.9);
  const auto pessimistic =
      solve_constant(SolverKind::kMvasd, net, d, 100, 1.1);
  const auto point = solve_constant(SolverKind::kMvasd, net, d, 100);
  for (unsigned n : {1u, 20u, 60u, 100u}) {
    const std::size_t i = point.row_for(n);
    EXPECT_LE(pessimistic.throughput[i], point.throughput[i] + 1e-9);
    EXPECT_GE(optimistic.throughput[i], point.throughput[i] - 1e-9);
    EXPECT_GE(pessimistic.response_time[i], point.response_time[i] - 1e-9);
    EXPECT_LE(optimistic.response_time[i], point.response_time[i] + 1e-9);
  }
  EXPECT_GT(optimistic.throughput.back(), pessimistic.throughput.back());
}

TEST(IntervalMva, SaturatedBandWidthTracksDemandUncertainty) {
  // At saturation X ~ 1/D, so a +/-10% demand box gives a ~20% X band.
  const auto net = make_network({"disk"}, {1}, 1.0);
  const std::vector<double> d{0.02};
  const double hi =
      solve_constant(SolverKind::kMvasd, net, d, 500, 0.9).throughput.back();
  const double lo =
      solve_constant(SolverKind::kMvasd, net, d, 500, 1.1).throughput.back();
  EXPECT_NEAR((hi - lo) / (0.5 * (lo + hi)), 0.20, 0.01);
}

}  // namespace
}  // namespace mtperf::core
