#include "core/detail/mva_exact.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/detail/solver_workspace.hpp"

namespace mtperf::core::detail {

MvaResult exact_mva(const ClosedNetwork& network,
                    std::span<const double> service_times,
                    unsigned max_population, StationRows rows) {
  const std::size_t k_count = network.size();
  MTPERF_REQUIRE(service_times.size() == k_count,
                 "one service time per station required");
  MTPERF_REQUIRE(max_population >= 1, "population must be at least 1");
  for (double s : service_times) {
    MTPERF_REQUIRE(s >= 0.0, "service times must be non-negative");
  }

  MvaResult result;
  result.reset(network.station_names(), max_population, rows);

  SolverWorkspace& ws = tls_solver_workspace();
  ws.prepare_stations(k_count);
  double* const queue = ws.queue.data();
  double* const residence = ws.residence.data();

  for (unsigned n = 1; n <= max_population; ++n) {
    double total_residence = 0.0;
    for (std::size_t k = 0; k < k_count; ++k) {
      const Station& st = network.station(k);
      const double wait = st.kind == StationKind::kDelay
                              ? service_times[k]
                              : service_times[k] * (1.0 + queue[k]);
      residence[k] = st.visits * wait;
      total_residence += residence[k];
    }
    const double cycle = total_residence + network.think_time();
    MTPERF_REQUIRE(cycle > 0.0, "degenerate network: zero cycle time");
    const double x = static_cast<double>(n) / cycle;
    const std::size_t level = n - 1;
    double* const util_row = result.utilization_row(level);
    for (std::size_t k = 0; k < k_count; ++k) {
      queue[k] = x * residence[k];
      util_row[k] = x * network.station(k).visits * service_times[k];
    }
    result.throughput[level] = x;
    result.response_time[level] = total_residence;
    result.cycle_time[level] = cycle;
    if (rows == StationRows::kAll) {
      std::copy(queue, queue + k_count, result.queue_row(level));
      std::copy(residence, residence + k_count, result.residence_row(level));
    }
  }
  return result;
}

}  // namespace mtperf::core::detail
