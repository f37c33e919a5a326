// Microbenchmarks of the interpolation substrate (google-benchmark):
// spline construction and evaluation costs — the "higher computational
// complexity" the paper accepts in exchange for lower interpolation error —
// and the tabulation of a spline demand model into core::DemandGrid.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/demand_model.hpp"
#include "interp/chebyshev.hpp"
#include "interp/cubic_spline.hpp"
#include "interp/linear.hpp"
#include "interp/pchip.hpp"
#include "interp/polynomial.hpp"
#include "interp/smoothing_spline.hpp"

namespace {

using namespace mtperf;

interp::SampleSet make_samples(std::size_t n) {
  Rng rng(7);
  std::vector<double> xs, ys;
  double x = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x += rng.uniform(0.5, 1.5);
    xs.push_back(x);
    ys.push_back(std::sin(0.1 * x) + rng.uniform(-0.05, 0.05));
  }
  return interp::SampleSet(std::move(xs), std::move(ys));
}

void BM_BuildCubicSpline(benchmark::State& state) {
  const auto s = make_samples(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(interp::build_cubic_spline(s));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildCubicSpline)->Range(8, 4096)->Complexity(benchmark::oN);

void BM_BuildPchip(benchmark::State& state) {
  const auto s = make_samples(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(interp::build_pchip(s));
  }
}
BENCHMARK(BM_BuildPchip)->Range(8, 4096);

void BM_BuildSmoothingSpline(benchmark::State& state) {
  const auto s = make_samples(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(interp::build_smoothing_spline(s, 1.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildSmoothingSpline)->Range(8, 4096)->Complexity(benchmark::oN);

void BM_SplineEval(benchmark::State& state) {
  const auto s = make_samples(static_cast<std::size_t>(state.range(0)));
  const auto spline = interp::build_cubic_spline(s);
  Rng rng(9);
  double x = s.x_min();
  for (auto _ : state) {
    x = rng.uniform(s.x_min(), s.x_max());
    benchmark::DoNotOptimize(spline.value(x));
  }
}
BENCHMARK(BM_SplineEval)->Range(8, 4096);

// Monotone sweep (the MVA access pattern: x = 1, 2, ..., N ascending):
// per-call binary search vs the amortized-O(1) segment cursor.
void BM_SplineEvalMonotoneBinarySearch(benchmark::State& state) {
  const auto s = make_samples(static_cast<std::size_t>(state.range(0)));
  const auto spline = interp::build_cubic_spline(s);
  const double lo = s.x_min(), hi = s.x_max();
  constexpr int kSteps = 4096;
  const double dx = (hi - lo) / kSteps;
  for (auto _ : state) {
    double acc = 0.0;
    for (int i = 0; i <= kSteps; ++i) {
      acc += spline.value(lo + dx * i);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SplineEvalMonotoneBinarySearch)->Range(8, 4096);

void BM_SplineEvalMonotoneCursor(benchmark::State& state) {
  const auto s = make_samples(static_cast<std::size_t>(state.range(0)));
  const auto spline = interp::build_cubic_spline(s);
  const double lo = s.x_min(), hi = s.x_max();
  constexpr int kSteps = 4096;
  const double dx = (hi - lo) / kSteps;
  for (auto _ : state) {
    double acc = 0.0;
    std::size_t cursor = 0;
    for (int i = 0; i <= kSteps; ++i) {
      acc += spline.value_with_cursor(lo + dx * i, cursor);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SplineEvalMonotoneCursor)->Range(8, 4096);

// DemandGrid over the cold-serving workload's 12-station spline fleet
// (knots at 1, 60, 250, 600, 1000 and 1500 users, every row inside them),
// tabulated to N = 1,500: the per-lane setup of an mvasd lane block.  Two
// variants reach the fill's per-entry rows: knots from 10 to 1,000 users
// (rows 1-9 and 1,001-1,500 extrapolate), and the fleet with its first
// station's curve a barycentric polynomial (every row).
core::DemandModel spline_fleet(const std::vector<double>& knots,
                               bool polynomial_first) {
  std::vector<std::shared_ptr<const interp::Interpolator1D>> curves;
  for (int k = 0; k < 12; ++k) {
    std::vector<double> ys;
    for (const double x : knots) {
      const double base = 0.002 + 0.0025 * (k % 5);
      ys.push_back(k % 4 == 0 ? base * (0.75 + 0.25 * std::exp(-x / 300.0))
                   : k % 4 == 1 ? base * (1.0 + 0.2 * x / 1500.0)
                                : base);
    }
    interp::SampleSet samples(knots, ys);
    if (polynomial_first && k == 0) {
      curves.push_back(
          std::make_shared<interp::BarycentricPolynomial>(samples));
    } else {
      curves.push_back(std::make_shared<interp::PiecewiseCubic>(
          interp::build_cubic_spline(samples)));
    }
  }
  return core::DemandModel::interpolated(std::move(curves));
}

void tabulate_to_1500(benchmark::State& state, const core::DemandModel& model) {
  for (auto _ : state) {
    const core::DemandGrid grid(model, 1500);
    benchmark::DoNotOptimize(grid.data());
    benchmark::ClobberMemory();
  }
}

void BM_DemandGridSplineFleet(benchmark::State& state) {
  tabulate_to_1500(state, spline_fleet({1, 60, 250, 600, 1000, 1500}, false));
}
BENCHMARK(BM_DemandGridSplineFleet)->Unit(benchmark::kMicrosecond);

void BM_DemandGridSplineFleetPastItsKnots(benchmark::State& state) {
  tabulate_to_1500(state, spline_fleet({10, 60, 250, 600, 1000}, false));
}
BENCHMARK(BM_DemandGridSplineFleetPastItsKnots)
    ->Unit(benchmark::kMicrosecond);

void BM_DemandGridMixedFleet(benchmark::State& state) {
  tabulate_to_1500(state, spline_fleet({1, 60, 250, 600, 1000, 1500}, true));
}
BENCHMARK(BM_DemandGridMixedFleet)->Unit(benchmark::kMicrosecond);

void BM_LinearEval(benchmark::State& state) {
  const auto s = make_samples(static_cast<std::size_t>(state.range(0)));
  const auto lin = interp::build_linear(s);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lin.value(rng.uniform(s.x_min(), s.x_max())));
  }
}
BENCHMARK(BM_LinearEval)->Range(8, 4096);

void BM_BarycentricEval(benchmark::State& state) {
  const auto s = make_samples(static_cast<std::size_t>(state.range(0)));
  const interp::BarycentricPolynomial p(s);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.value(rng.uniform(s.x_min(), s.x_max())));
  }
}
BENCHMARK(BM_BarycentricEval)->Range(8, 256);

void BM_ChebyshevNodes(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        interp::chebyshev_nodes(1.0, 1500.0,
                                static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_ChebyshevNodes)->Arg(7)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
