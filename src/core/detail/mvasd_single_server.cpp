#include "core/detail/mvasd_single_server.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/detail/solver_workspace.hpp"

namespace mtperf::core::detail {

MvaResult mvasd_single_server(const ClosedNetwork& network,
                              const DemandModel& demands,
                              unsigned max_population,
                              StationRows rows) {
  const std::size_t k_count = network.size();
  MTPERF_REQUIRE(demands.stations() == k_count,
                 "demand model width must match station count");
  MTPERF_REQUIRE(max_population >= 1, "population must be at least 1");

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
    if (by_concurrency) {
      std::copy(grid.row(n), grid.row(n) + k_count, s_now);
    } else {
      grid.eval_into(previous_throughput, s_now);
    }
    double total_residence = 0.0;
    for (std::size_t k = 0; k < k_count; ++k) {
      const Station& st = network.station(k);
      // Normalize the varying demand by the server count — the heuristic
      // multi-core treatment the paper evaluates (and rejects) in Fig. 8.
      s_now[k] /= static_cast<double>(st.servers);
      const double wait = st.kind == StationKind::kDelay
                              ? s_now[k]
                              : s_now[k] * (1.0 + queue[k]);
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
      util_row[k] = x * network.station(k).visits * s_now[k];
    }
    result.throughput[level] = x;
    result.response_time[level] = total_residence;
    result.cycle_time[level] = cycle;
    if (rows == StationRows::kAll) {
      std::copy(queue, queue + k_count, result.queue_row(level));
      std::copy(residence, residence + k_count, result.residence_row(level));
    }
    previous_throughput = x;
  }
  return result;
}

}  // namespace mtperf::core::detail
