#include "core/detail/mva_schweitzer.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/detail/solver_workspace.hpp"

namespace mtperf::core::detail {

MvaResult schweitzer_mva(const ClosedNetwork& network,
                         std::span<const double> service_times,
                         unsigned max_population,
                         const SchweitzerOptions& options,
                         StationRows rows) {
  const std::size_t k_count = network.size();
  MTPERF_REQUIRE(service_times.size() == k_count,
                 "one service time per station required");
  MTPERF_REQUIRE(max_population >= 1, "population must be at least 1");
  MTPERF_REQUIRE(options.tolerance > 0.0, "tolerance must be positive");

  MvaResult result;
  result.reset(network.station_names(), max_population, rows);

  SolverWorkspace& ws = tls_solver_workspace();
  ws.prepare_stations(k_count);
  double* const queue = ws.queue.data();
  double* const residence = ws.residence.data();

  for (unsigned n = 1; n <= max_population; ++n) {
    const double nd = static_cast<double>(n);
    // Start from an even spread of customers over queueing stations.
    std::fill(queue, queue + k_count, nd / static_cast<double>(k_count));
    std::fill(residence, residence + k_count, 0.0);
    double x = 0.0;
    double total_residence = 0.0;
    bool converged = false;
    for (unsigned iter = 0; iter < options.max_iterations; ++iter) {
      total_residence = 0.0;
      for (std::size_t k = 0; k < k_count; ++k) {
        const Station& st = network.station(k);
        // Eq. 9: estimate Q_k(n-1) from the current Q_k(n) iterate.
        const double q_est = (nd - 1.0) / nd * queue[k];
        const double wait = st.kind == StationKind::kDelay
                                ? service_times[k]
                                : service_times[k] * (1.0 + q_est);
        residence[k] = st.visits * wait;
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
      throw numeric_error("Schweitzer MVA did not converge at population " +
                          std::to_string(n));
    }
    const std::size_t level = n - 1;
    double* const util_row = result.utilization_row(level);
    for (std::size_t k = 0; k < k_count; ++k) {
      util_row[k] = x * network.station(k).visits * service_times[k];
    }
    result.throughput[level] = x;
    result.response_time[level] = total_residence;
    result.cycle_time[level] = total_residence + network.think_time();
    if (rows == StationRows::kAll) {
      std::copy(queue, queue + k_count, result.queue_row(level));
      std::copy(residence, residence + k_count, result.residence_row(level));
    }
  }
  return result;
}

}  // namespace mtperf::core::detail
