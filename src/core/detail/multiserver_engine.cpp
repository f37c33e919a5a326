#include "core/detail/multiserver_engine.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "core/detail/solver_workspace.hpp"

namespace mtperf::core::detail {

// Implementation note — paper fidelity.
//
// The paper's Algorithm 2/3 pseudocode stores marginal queue-size
// probabilities in a 1-shifted array p_k(1..C_k) and updates them in place.
// Transcribed literally, that recursion is inconsistent with the exact
// multi-server MVA of the reference it cites ([8], Reiser's algorithm as
// popularized by Menascé et al.): the (C_k - j) weights are missing from
// the empty-queue update, the j-th entry divides by j instead of j-1 after
// the shift, and the in-place order makes p_k(2) read the *new* p_k(1).
// Under load (X S_k approaching C_k) the literal recursion diverges to
// negative response times.  We therefore implement the canonical recursion
// the paper intends, with the conventional 0-based indexing:
//
//   P_k(j | n)  for j = 0..C_k-1, initialized P_k(0|0) = 1:
//     F_k  = sum_{j=0}^{C_k-2} (C_k - 1 - j) P_k(j | n-1)
//     R_k  = (S_k / C_k) (1 + Q_k(n-1) + F_k)                  (Eq. 10/11)
//     X_n  = n / (Z + sum_k V_k R_k)
//     P_k(j | n) = (X_n V_k S_k / j) P_k(j-1 | n-1),  j = 1..C_k-1
//     P_k(0 | n) = 1 - (1/C_k) [ X_n V_k S_k
//                                + sum_{j=1}^{C_k-1} (C_k - j) P_k(j | n) ]
//     Q_k(n)     = X_n V_k R_k
//
// P_k(0|n) is clamped at 0 against floating-point undershoot at saturation.
//
// Hot-path note.  Demands are evaluated through a DemandGrid: for the
// concurrency axis each population's row is one pre-tabulated contiguous
// load, for the throughput axis the grid's monotone segment cursors make
// spline lookup amortized O(1).  Marginals live in one flat workspace
// buffer (station k at ws.p_offset[k]) and are updated in place, writing
// j = C_k-1 down to 1 so each write reads the previous population's j-1
// entry.  Results are written into pre-sized SoA rows — the inner loop
// performs no allocation at all.

MvaResult run_multiserver_mva(const ClosedNetwork& network,
                              const DemandModel& demands,
                              unsigned max_population, MarginalTrace* trace,
                              const DemandGrid* prebuilt_grid,
                              StationRows rows) {
  const std::size_t k_count = network.size();
  MTPERF_REQUIRE(demands.stations() == k_count,
                 "demand model width must match station count");
  MTPERF_REQUIRE(max_population >= 1, "population must be at least 1");
  if (trace != nullptr) {
    MTPERF_REQUIRE(trace->station < k_count, "trace station out of range");
    trace->rows.clear();
  }

  std::vector<std::string> names;
  names.reserve(k_count);
  for (const auto& st : network.stations()) names.push_back(st.name);
  MvaResult result;
  result.reset(std::move(names), max_population, rows);

  std::optional<DemandGrid> local_grid;
  if (prebuilt_grid != nullptr) {
    MTPERF_REQUIRE(prebuilt_grid->tabulated(),
                   "prebuilt demand grids must be tabulated");
    MTPERF_REQUIRE(prebuilt_grid->stations() == k_count &&
                       prebuilt_grid->max_population() >= max_population,
                   "prebuilt demand grid does not cover this solve");
  } else {
    local_grid.emplace(demands, max_population);
  }
  const DemandGrid& grid =
      prebuilt_grid != nullptr ? *prebuilt_grid : *local_grid;
  const bool by_concurrency = grid.tabulated();

  SolverWorkspace& ws = tls_solver_workspace();
  ws.prepare_stations(k_count);
  ws.prepare_marginals(network);
  ws.prepare_station_fields(network);
  double* const queue = ws.queue.data();
  double* const residence = ws.residence.data();
  const double* const visits = ws.visits.data();
  const double* const cap = ws.cap.data();
  const unsigned* const servers = ws.servers.data();
  const unsigned char* const is_delay = ws.is_delay.data();

  // Concurrency-axis demands index straight into the tabulated buffer;
  // stride 0 for constant models makes the expression uniform.
  const double* const grid_base = by_concurrency ? grid.data() : nullptr;
  const std::size_t grid_stride = by_concurrency ? grid.row_stride() : 0;

  double previous_throughput = 0.0;
  const double think = network.think_time();

  for (unsigned n = 1; n <= max_population; ++n) {
    // Demand axis: concurrency level n (Algorithm 3's SS_k^n, one tabulated
    // row), or the previous iteration's throughput (Section 7's variant,
    // evaluated through the monotone cursors).
    const double* s_now;
    if (by_concurrency) {
      s_now = grid_base + static_cast<std::size_t>(n - 1) * grid_stride;
    } else {
      grid.eval_into(previous_throughput, ws.s_now.data());
      s_now = ws.s_now.data();
    }

    double total_residence = 0.0;
    for (std::size_t k = 0; k < k_count; ++k) {
      double wait;
      if (is_delay[k] != 0) {
        wait = s_now[k];
      } else if (servers[k] == 1) {
        wait = s_now[k] * (1.0 + queue[k]);
      } else {
        const double* pk = ws.p.data() + ws.p_offset[k];
        const double c = cap[k];
        double f = 0.0;
        for (unsigned j = 0; j + 1 < servers[k]; ++j) {
          f += (c - 1.0 - static_cast<double>(j)) * pk[j];
        }
        wait = s_now[k] / c * (1.0 + queue[k] + f);
      }
      residence[k] = visits[k] * wait;
      total_residence += residence[k];
    }
    const double cycle = total_residence + think;
    MTPERF_REQUIRE(cycle > 0.0, "degenerate network: zero cycle time");
    const double x = static_cast<double>(n) / cycle;

    const std::size_t level = n - 1;
    double* const util_row = result.utilization_row(level);
    for (std::size_t k = 0; k < k_count; ++k) {
      queue[k] = x * residence[k];
      util_row[k] = x * visits[k] * s_now[k] / cap[k];
      if (servers[k] > 1 && is_delay[k] == 0) {
        double* const pk = ws.p.data() + ws.p_offset[k];
        const double xs = x * visits[k] * s_now[k];  // expected busy servers
        const double c = cap[k];
        if (xs >= c) {
          // Station fully saturated: queueing dominates, the correction
          // vanishes (R -> (S/C)(1 + Q)); zeroing the marginals is the
          // exact asymptote and avoids the recursion's instability.
          std::fill(pk, pk + servers[k], 0.0);
        } else {
          // In-place update, highest occupancy first: writing j reads the
          // previous population's j-1 entry, which a descending sweep has
          // not yet overwritten.  The arithmetic (divide by j, single
          // accumulator) is kept bit-identical to the seed recursion: near
          // saturation the recursion is ill-conditioned enough that any
          // reassociation is amplified past the 1e-12 parity budget.
          double weighted_tail = 0.0;
          for (unsigned j = servers[k] - 1; j >= 1; --j) {
            pk[j] = xs * pk[j - 1] / static_cast<double>(j);
            weighted_tail += (c - static_cast<double>(j)) * pk[j];
          }
          // Exact arithmetic maintains the idle-server identity
          //   C p(0) + sum_j (C-j) p(j) = C - xs;
          // in floating point the recursion is known to drift near
          // saturation (negative p(0), unbounded mass).  Project back onto
          // the identity: rescale the tail when it alone exceeds the idle
          // budget, otherwise solve for p(0) exactly.
          //
          // Next level's correction, from the same pass:
          //   F_k = sum_{j<=C-2} (C-1-j) P(j)
          //       = (C-1) P(0) + weighted_tail - tail_sum
          // (the j = C-1 term of the extended sum is zero).
          const double idle = c - xs;
          if (weighted_tail > idle && weighted_tail > 0.0) {
            const double scale = idle / weighted_tail;
            for (unsigned j = 1; j < servers[k]; ++j) pk[j] *= scale;
            pk[0] = 0.0;
          } else {
            pk[0] = (idle - weighted_tail) / c;
          }
        }
      }
    }
    if (trace != nullptr) {
      const double* pk = ws.p.data() + ws.p_offset[trace->station];
      trace->rows.emplace_back(pk,
                               pk + network.station(trace->station).servers);
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
