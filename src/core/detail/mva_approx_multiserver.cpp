#include "core/detail/mva_approx_multiserver.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/detail/solver_workspace.hpp"

namespace mtperf::core::detail {

namespace {

/// Multi-server waiting correction at per-server utilization rho: expected
/// number of *idle-server* weighted jobs computed from the stationary
/// M/M/C distribution — the F_k term of Eq. 10 evaluated quasi-statically.
/// Returns sum_{j=0}^{C-2} (C - 1 - j) pi(j) with pi the M/M/C marginals.
double quasi_static_correction(unsigned servers, double rho) {
  if (servers <= 1 || rho >= 1.0 || rho <= 0.0) return 0.0;
  const auto c = static_cast<double>(servers);
  const double a = rho * c;  // offered load in Erlangs
  // pi(j) proportional to a^j / j! for j < C; tail is geometric.  Compute
  // the normalization iteratively (no factorial overflow).
  double term = 1.0;  // a^0/0!
  double partial = term;
  for (unsigned j = 1; j < servers; ++j) {
    term *= a / static_cast<double>(j);
    partial += term;
  }
  const double tail = term * (a / c) / (1.0 - rho);  // sum_{j>=C} pi-unnorm
  const double norm = partial + tail;
  // Accumulate weighted probabilities.
  double weighted = 0.0;
  term = 1.0;
  for (unsigned j = 0; j + 1 < servers; ++j) {
    if (j > 0) term *= a / static_cast<double>(j);
    weighted += (c - 1.0 - static_cast<double>(j)) * term / norm;
  }
  return weighted;
}

}  // namespace

MvaResult approx_mvasd(const ClosedNetwork& network, const DemandModel& demands,
                       unsigned max_population,
                       const ApproxMultiserverOptions& options,
                       StationRows rows) {
  const std::size_t k_count = network.size();
  MTPERF_REQUIRE(demands.stations() == k_count,
                 "demand model width must match station count");
  MTPERF_REQUIRE(max_population >= 1, "population must be at least 1");
  MTPERF_REQUIRE(options.tolerance > 0.0, "tolerance must be positive");

  MvaResult result;
  result.reset(network.station_names(), max_population, rows);

  const DemandGrid grid(demands, max_population);
  const bool by_concurrency = grid.tabulated();

  SolverWorkspace& ws = tls_solver_workspace();
  ws.prepare_stations(k_count);
  double* const queue = ws.queue.data();
  double* const residence = ws.residence.data();
  double* const s_now = ws.s_now.data();

  double previous_throughput = 0.0;
  for (unsigned n = 1; n <= max_population; ++n) {
    const double nd = static_cast<double>(n);
    if (by_concurrency) {
      std::copy(grid.row(n), grid.row(n) + k_count, s_now);
    } else {
      grid.eval_into(previous_throughput, s_now);
    }

    std::fill(queue, queue + k_count, nd / static_cast<double>(k_count));
    std::fill(residence, residence + k_count, 0.0);
    double x = 0.0, total_residence = 0.0;
    bool converged = false;
    for (unsigned iter = 0; iter < options.max_iterations; ++iter) {
      total_residence = 0.0;
      for (std::size_t k = 0; k < k_count; ++k) {
        const Station& st = network.station(k);
        if (st.kind == StationKind::kDelay) {
          residence[k] = st.visits * s_now[k];
        } else {
          const auto c = static_cast<double>(st.servers);
          const double q_est = (nd - 1.0) / nd * queue[k];
          const double rho =
              std::min(0.999999, x * st.visits * s_now[k] / c);
          const double f = quasi_static_correction(st.servers, rho);
          residence[k] = st.visits * s_now[k] / c * (1.0 + q_est + f);
        }
        total_residence += residence[k];
      }
      const double cycle = total_residence + network.think_time();
      MTPERF_REQUIRE(cycle > 0.0, "degenerate network: zero cycle time");
      x = nd / cycle;
      double worst = 0.0;
      for (std::size_t k = 0; k < k_count; ++k) {
        const double updated = x * residence[k];
        worst = std::max(worst, std::abs(updated - queue[k]));
        queue[k] = updated;
      }
      if (worst < options.tolerance) {
        converged = true;
        break;
      }
    }
    if (!converged) {
      throw numeric_error(
          "approximate multi-server MVA did not converge at population " +
          std::to_string(n));
    }
    const std::size_t level = n - 1;
    double* const util_row = result.utilization_row(level);
    for (std::size_t k = 0; k < k_count; ++k) {
      util_row[k] = x * network.station(k).visits * s_now[k] /
                    static_cast<double>(network.station(k).servers);
    }
    result.throughput[level] = x;
    result.response_time[level] = total_residence;
    result.cycle_time[level] = total_residence + network.think_time();
    if (rows == StationRows::kAll) {
      std::copy(queue, queue + k_count, result.queue_row(level));
      std::copy(residence, residence + k_count, result.residence_row(level));
    }
    previous_throughput = x;
  }
  return result;
}

}  // namespace mtperf::core::detail
