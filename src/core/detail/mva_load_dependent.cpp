#include "core/detail/mva_load_dependent.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "core/detail/solver_workspace.hpp"

namespace mtperf::core::detail {

RateMultiplier multiserver_rate(unsigned servers) {
  MTPERF_REQUIRE(servers >= 1, "need at least one server");
  return [servers](unsigned jobs) {
    return static_cast<double>(std::min(jobs, servers));
  };
}

RateMultiplier single_server_rate() {
  return [](unsigned) { return 1.0; };
}

MvaResult load_dependent_mva(const ClosedNetwork& network,
                             std::span<const double> service_times,
                             const std::vector<RateMultiplier>& rates,
                             unsigned max_population, StationRows rows) {
  const std::size_t k_count = network.size();
  MTPERF_REQUIRE(service_times.size() == k_count,
                 "one service time per station required");
  MTPERF_REQUIRE(rates.size() == k_count, "one rate multiplier per station");
  MTPERF_REQUIRE(max_population >= 1, "population must be at least 1");

  std::vector<std::string> names;
  names.reserve(k_count);
  for (const auto& st : network.stations()) names.push_back(st.name);
  MvaResult result;
  result.reset(std::move(names), max_population, rows);
  const bool all_rows = rows == StationRows::kAll;

  // ws.p holds, per station, the marginal probability of j customers
  // (j = 0..N) conditioned on the *previous* population; updated in place
  // each iteration.
  SolverWorkspace& ws = tls_solver_workspace();
  ws.prepare_stations(k_count);
  ws.prepare_marginals_uniform(k_count, max_population + 1);
  double* const residence = ws.residence.data();

  for (unsigned n = 1; n <= max_population; ++n) {
    double total_residence = 0.0;
    for (std::size_t k = 0; k < k_count; ++k) {
      const Station& st = network.station(k);
      if (st.kind == StationKind::kDelay) {
        residence[k] = st.visits * service_times[k];
      } else {
        // R_k(n) = sum_j  j * S_k / alpha_k(j) * p_k(j-1 | n-1).
        const double* pk = ws.p.data() + ws.p_offset[k];
        double wait = 0.0;
        for (unsigned j = 1; j <= n; ++j) {
          const double alpha = rates[k](j);
          MTPERF_REQUIRE(alpha > 0.0, "rate multiplier must be positive");
          wait += static_cast<double>(j) * service_times[k] / alpha *
                  pk[j - 1];
        }
        residence[k] = st.visits * wait;
      }
      total_residence += residence[k];
    }
    const double cycle = total_residence + network.think_time();
    MTPERF_REQUIRE(cycle > 0.0, "degenerate network: zero cycle time");
    const double x = static_cast<double>(n) / cycle;

    const std::size_t level = n - 1;
    double* const queue_row = all_rows ? result.queue_row(level) : nullptr;
    double* const util_row = result.utilization_row(level);
    for (std::size_t k = 0; k < k_count; ++k) {
      const Station& st = network.station(k);
      if (st.kind == StationKind::kDelay) {
        if (all_rows) queue_row[k] = x * residence[k];
        util_row[k] = x * st.visits * service_times[k];
        continue;
      }
      // Update the marginal distribution, highest occupancy first so each
      // pk[j] reads the previous population's pk[j-1].
      double* const pk = ws.p.data() + ws.p_offset[k];
      const double xk = x * st.visits;
      double tail = 0.0;
      for (unsigned j = n; j >= 1; --j) {
        pk[j] = xk * service_times[k] / rates[k](j) * pk[j - 1];
        tail += pk[j];
      }
      // p(0|n) = 1 - tail suffers catastrophic cancellation once the
      // station saturates (the classic LD-MVA instability); project the
      // distribution back onto the simplex when the tail overshoots.
      if (tail > 1.0) {
        for (unsigned j = 1; j <= n; ++j) pk[j] /= tail;
        pk[0] = 0.0;
      } else {
        pk[0] = 1.0 - tail;
      }
      if (all_rows) {
        double q = 0.0;
        for (unsigned j = 1; j <= n; ++j) q += static_cast<double>(j) * pk[j];
        queue_row[k] = q;
      }
      // Per-server utilization: offered work over full capacity
      // alpha(N) — for alpha(j) = min(j, C) this is the X V S / C the other
      // solvers report.
      util_row[k] = x * st.visits * service_times[k] / rates[k](max_population);
    }
    result.throughput[level] = x;
    result.response_time[level] = total_residence;
    result.cycle_time[level] = cycle;
    if (all_rows) {
      std::copy(residence, residence + k_count, result.residence_row(level));
    }
  }
  return result;
}

MvaResult load_dependent_mva(
    const ClosedNetwork& network, std::span<const double> service_times,
    const std::vector<std::vector<double>>& rate_profiles,
    unsigned max_population, StationRows rows) {
  const std::size_t k_count = network.size();
  MTPERF_REQUIRE(rate_profiles.size() == k_count,
                 "one rate profile per station required");
  for (std::size_t k = 0; k < k_count; ++k) {
    const std::vector<double>& profile = rate_profiles[k];
    const std::string& name = network.station(k).name;
    MTPERF_REQUIRE(!profile.empty(),
                   "station '" + name + "': rate profile is empty");
    double prev = 0.0;
    for (std::size_t j = 0; j < profile.size(); ++j) {
      MTPERF_REQUIRE(std::isfinite(profile[j]) && profile[j] > 0.0,
                     "station '" + name + "': rate multiplier at population " +
                         std::to_string(j + 1) +
                         " must be finite and positive");
      MTPERF_REQUIRE(
          profile[j] >= prev,
          "station '" + name + "': rate profile decreases at population " +
              std::to_string(j + 1) +
              " (service capacity cannot shrink with occupancy; use the "
              "RateMultiplier overload for non-monotone laws)");
      prev = profile[j];
    }
  }
  std::vector<RateMultiplier> rates;
  rates.reserve(k_count);
  for (std::size_t k = 0; k < k_count; ++k) {
    const std::vector<double>* profile = &rate_profiles[k];
    rates.push_back([profile](unsigned jobs) {
      // jobs >= 1 always; clamp past-the-end populations at .back() — the
      // station is saturated beyond its tabulated range.
      const std::size_t i =
          std::min<std::size_t>(jobs, profile->size()) - 1;
      return (*profile)[i];
    });
  }
  return load_dependent_mva(network, service_times, rates, max_population,
                            rows);
}

}  // namespace mtperf::core::detail
