// Quickstart: model a small multi-tier system with MVA and MVASD.
//
// Builds a three-station closed network by hand, solves it with
//  (a) exact multi-server MVA with constant demands (Algorithm 2), and
//  (b) MVASD with demands that shrink as concurrency grows (Algorithm 3),
// then prints the predicted throughput / response-time curves side by side.
//
//   $ ./examples/quickstart
#include <cstdio>
#include <memory>

#include "common/table.hpp"
#include "core/demand_model.hpp"
#include "core/network.hpp"
#include "core/solve.hpp"
#include "interp/cubic_spline.hpp"

int main() {
  using namespace mtperf;

  // A web server (8 cores), a database disk, and a database CPU (8 cores),
  // with users thinking 2 s between requests.
  const core::ClosedNetwork network = core::make_network(
      {"web/cpu", "db/disk", "db/cpu"}, {8, 1, 8}, /*think_time=*/2.0);
  std::printf("%s\n", core::network_ascii(network).c_str());

  // Constant single-user demands (seconds per transaction).
  const std::vector<double> demands = {0.040, 0.012, 0.060};

  // Suppose load tests showed demands falling with concurrency (caching):
  // a cubic spline per station through the measured points is MVASD's input.
  auto spline_of = [](std::vector<double> n, std::vector<double> d) {
    return std::make_shared<interp::PiecewiseCubic>(interp::build_cubic_spline(
        interp::SampleSet(std::move(n), std::move(d))));
  };
  const core::DemandModel varying = core::DemandModel::interpolated({
      spline_of({1, 50, 150, 400}, {0.040, 0.036, 0.031, 0.029}),
      spline_of({1, 50, 150, 400}, {0.012, 0.010, 0.008, 0.0075}),
      spline_of({1, 50, 150, 400}, {0.060, 0.052, 0.046, 0.044}),
  });

  // core::solve is the single entry point: pick a solver kind, hand it the
  // network and a demand model, and ask for the population range.  kMvasd
  // runs Algorithm 2 on a constant model and Algorithm 3 on a varying one.
  const unsigned max_users = 400;
  core::SolveOptions options;
  options.max_population = max_users;
  options.solver = core::SolverKind::kMvasd;

  const core::MvaResult fixed =
      core::solve(network, core::DemandModel::constant(demands), options);
  const core::MvaResult adaptive = core::solve(network, varying, options);

  TextTable table("MVA (constant demands) vs MVASD (varying demands)");
  table.set_header({"Users", "X mva (tx/s)", "X mvasd (tx/s)", "R mva (s)",
                    "R mvasd (s)", "db/cpu util mvasd"});
  for (unsigned n : {1u, 25u, 50u, 100u, 200u, 300u, 400u}) {
    const std::size_t i = fixed.row_for(n);
    table.add_row({fmt(static_cast<long long>(n)),
                   fmt(fixed.throughput[i], 2), fmt(adaptive.throughput[i], 2),
                   fmt(fixed.response_time[i], 4),
                   fmt(adaptive.response_time[i], 4),
                   fmt_percent(adaptive.utilization(i, 2) * 100.0, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("MVASD predicts a higher throughput ceiling because it sees the\n"
              "demand reduction the system exhibits under load; constant-demand\n"
              "MVA extrapolates the single-user demands and saturates early.\n");
  return 0;
}
