// Exact MVA for load-dependent stations (Reiser & Lavenberg's full
// recursion over marginal queue-length distributions).
//
// Two roles in this library:
//  * Oracle: a C_k-server queue is the load-dependent station with rate
//    multiplier alpha(j) = min(j, C_k); this recursion therefore provides an
//    independent exact solution to validate Algorithm 2 against.
//  * Extension: arbitrary alpha(j) models (e.g. JMT-style load-dependent
//    service arrays) come for free.
//
// Cost: O(N^2 K) time, O(N K) space — noticeably heavier than Algorithm 2's
// O(N K) time, which is the practical argument for the paper's approach.
//
// core::solve reaches it as SolverKind::kLoadDependent with the law
// alpha_k(j) = min(j, C_k) taken from the network; the general rate and
// profile overloads serve as test oracles.  Not part of the public API.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/network.hpp"
#include "core/result.hpp"

namespace mtperf::core::detail {

/// Rate multiplier alpha_k(j): relative service capacity with j customers
/// present (alpha(1) = 1 means S_k is the 1-customer service time).
using RateMultiplier = std::function<double(unsigned jobs)>;

/// alpha(j) = min(j, servers) — the multi-server station law.
RateMultiplier multiserver_rate(unsigned servers);

/// alpha(j) = 1 — plain single-server station.
RateMultiplier single_server_rate();

/// Solve for populations 1..max_population with constant per-visit service
/// times and per-station rate multipliers (delay stations ignore theirs).
/// `rows` picks the stored station rows (StationRows::kUtilization skips
/// the queue and residence rows).
MvaResult load_dependent_mva(const ClosedNetwork& network,
                             std::span<const double> service_times,
                             const std::vector<RateMultiplier>& rates,
                             unsigned max_population,
                             StationRows rows = StationRows::kAll);

/// Tabulated-profile overload: rate_profiles[k][j-1] is alpha_k(j), and a
/// profile shorter than max_population saturates — populations beyond its
/// length are served at the last entry (truncation clamps at .back()).
/// This is the natural form for flow-equivalent-server profiles extracted
/// from a subnetwork throughput curve (alpha(j) = X_sub(j) / X_sub(1)).
///
/// Validated up front, with violations named per station: every profile
/// must be nonempty, finite and strictly positive at every entry, and
/// non-decreasing (service capacity cannot shrink as the queue grows —
/// laws that do shrink must use the RateMultiplier overload explicitly).
/// Throws mtperf::invalid_argument_error.
MvaResult load_dependent_mva(
    const ClosedNetwork& network, std::span<const double> service_times,
    const std::vector<std::vector<double>>& rate_profiles,
    unsigned max_population, StationRows rows = StationRows::kAll);

}  // namespace mtperf::core::detail
