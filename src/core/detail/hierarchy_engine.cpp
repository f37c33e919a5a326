#include "core/detail/hierarchy_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/demand_model.hpp"
#include "core/detail/lane_block.hpp"

namespace mtperf::core::detail {

namespace {

std::string tier_display_name(const TierSpec& tier, std::size_t index) {
  if (!tier.name.empty()) return tier.name;
  return "tier" + std::to_string(index);
}

/// The demand model restricted to `stations`, sharing the original's
/// splines (constant models copy their scalars).
DemandModel subset_demands(const DemandModel& demands,
                           const std::vector<std::size_t>& stations) {
  if (demands.is_constant()) {
    std::vector<double> values;
    values.reserve(stations.size());
    for (std::size_t k : stations) values.push_back(demands.at(k, 1.0));
    return DemandModel::constant(std::move(values));
  }
  std::vector<std::shared_ptr<const interp::Interpolator1D>> interpolants;
  interpolants.reserve(stations.size());
  for (std::size_t k : stations) {
    interpolants.push_back(demands.shared_interpolant(k));
  }
  return DemandModel::interpolated(std::move(interpolants), demands.axis());
}

/// Automatic core-level partition: chunk the queueing stations into about
/// sqrt(K) contiguous blocks.  Delay stations and leftover single-station
/// blocks stay untouched (aggregating one station buys nothing).  The
/// graph layer substitutes topology-aware tiers before reaching here.
std::vector<TierSpec> auto_tiers(const ClosedNetwork& network) {
  std::vector<std::size_t> queueing;
  for (std::size_t k = 0; k < network.size(); ++k) {
    if (network.station(k).kind == StationKind::kQueueing) queueing.push_back(k);
  }
  const std::size_t kq = queueing.size();
  if (kq < 2) return {};
  std::size_t blocks = static_cast<std::size_t>(
      std::lround(std::sqrt(static_cast<double>(kq))));
  blocks = std::clamp<std::size_t>(blocks, 1, kq / 2);
  const std::size_t block_size = (kq + blocks - 1) / blocks;
  std::vector<TierSpec> tiers;
  for (std::size_t start = 0; start < kq; start += block_size) {
    const std::size_t stop = std::min(start + block_size, kq);
    if (stop - start < 2) continue;  // singleton: leave untouched
    TierSpec tier;
    tier.name = "auto" + std::to_string(tiers.size());
    tier.stations.assign(queueing.begin() + static_cast<std::ptrdiff_t>(start),
                         queueing.begin() + static_cast<std::ptrdiff_t>(stop));
    tiers.push_back(std::move(tier));
  }
  return tiers;
}

/// One station of the reduced network in uniform truncated-support form:
/// rate multipliers alpha(1..support), saturated at alpha(support) beyond,
/// and explicit marginals p[0..support-1] (occupancy 0..support-1).  Mass
/// at or beyond the truncation point is never stored: the recursion only
/// reads the marginals through correction weights that vanish there, and
/// the queue carries over exactly via Little's law.
struct ReducedUnit {
  bool is_tier = false;
  bool delay = false;
  std::size_t index = 0;  ///< tier index or original station index
  double visits = 1.0;
  double service = 0.0;  ///< FES: 1/X_sub(1); untouched: refreshed per level
  unsigned support = 1;
  std::vector<double> alpha;  ///< alpha[j] for j = 1..support; alpha[0] unused
  double alpha_sat = 1.0;
  /// Saturated correction weights j (alpha_sat / alpha(j) - 1) for
  /// j = 1..support-1: every level n >= support anchors at alpha_sat, so
  /// the weights are the same numbers at each of them.
  std::vector<double> weight_sat;
  std::vector<double> p;  ///< marginals, occupancy 0..support-1
  // Per-level outputs; queue doubles as the Q(n-1) carry for the wait.
  double residence = 0.0;  ///< V * R (this unit's cycle-time share)
  double queue = 0.0;
  double util = 0.0;
  /// A disaggregated tier's staging window (see TierWindow): p(j) of
  /// window slot w at stage[j * kLaneChunk + w], its queue at
  /// queue_stage[w].
  double* stage = nullptr;
  double* queue_stage = nullptr;
};

/// One tier's staged window of up to kLaneChunk consecutive levels (one
/// lane pack), ready to disaggregate into its member stations' rows.
struct TierWindow {
  std::size_t levels = 0;  ///< staged levels (window slots in use)
  unsigned support = 1;
  /// Highest occupancy any staged level may hold: min(last n, support-1).
  /// Entries above a level's own min(n, support-1) are exact zeros.
  unsigned j_top = 0;
  const double* stage = nullptr;  ///< p(j) of slot w at [j * kLaneChunk + w]
  const double* queue = nullptr;  ///< Q of slot w (all rows only)
  const double* x = nullptr;      ///< throughput of slot w (all rows only)
  // Disaggregation tables (see solve_hierarchical) and the members.
  std::size_t width = 0;
  const std::size_t* members = nullptr;
  const double* us = nullptr;
  const double* qs = nullptr;
  const double* bs = nullptr;
  /// Result rows of the window's first level; consecutive levels are
  /// `row_stride` doubles apart.  queue_out and residence_out are null in
  /// a utilization-only solve.
  std::size_t row_stride = 0;
  double* util_out = nullptr;
  double* queue_out = nullptr;
  double* residence_out = nullptr;
};

/// Vectors in a pack: 1 with AVX-512, 2 with AVX2, 4 with SSE2; a plain
/// double counts as one.
template <typename P>
constexpr std::size_t pack_vectors() {
  if constexpr (std::is_same_v<P, double>) {
    return 1;
  } else {
    return P::kVecs;
  }
}

/// The member sums of `G` members from k0 of one pack of levels from w0,
/// written to their result rows (the first `here` levels only: the pack's
/// other slots are padding).  G members run side by side, so their add
/// chains overlap.
template <typename P, std::size_t G, bool kAllRows>
MTPERF_INLINE void disaggregate_members(const TierWindow& v, std::size_t w0,
                                        std::size_t k0, std::size_t here,
                                        const P& tail_p, const P& tail_extra) {
  constexpr std::size_t C = kPackLanes<P>;
  const std::size_t top = static_cast<std::size_t>(v.support) * v.width + k0;
  P uk[G], qk[G];
  for (std::size_t g = 0; g < G; ++g) {
    uk[g] = tail_p * v.us[top + g];
    if constexpr (kAllRows) {
      qk[g] = tail_p * v.qs[top + g] + tail_extra * v.bs[k0 + g];
    }
  }
  for (unsigned j = 1; j <= v.j_top; ++j) {
    const P pj = load_pack<P>(v.stage + j * kLaneChunk + w0);
    const std::size_t row = static_cast<std::size_t>(j) * v.width + k0;
    for (std::size_t g = 0; g < G; ++g) uk[g] = uk[g] + pj * v.us[row + g];
    if constexpr (kAllRows) {
      for (std::size_t g = 0; g < G; ++g) qk[g] = qk[g] + pj * v.qs[row + g];
    }
  }
  for (std::size_t g = 0; g < G; ++g) {
    double u_out[C], q_out[C];
    store_pack(u_out, uk[g]);
    if constexpr (kAllRows) store_pack(q_out, qk[g]);
    const std::size_t col = v.members[k0 + g];
    for (std::size_t i = 0; i < here; ++i) {
      const std::size_t at = (w0 + i) * v.row_stride + col;
      v.util_out[at] = u_out[i];
      if constexpr (kAllRows) {
        v.queue_out[at] = q_out[i];
        v.residence_out[at] = q_out[i] / v.x[w0 + i];
      }
    }
  }
}

/// Exact conditional disaggregation of a staged window, one pack of
/// levels at a time: E[U_k] = tail_p U_k(support) + sum_j p(j) U_k(j), and
/// in an all-rows solve the same for Q_k plus the tail's share b_k of the
/// saturated growth.  Every (level, member) sum is the per-level
/// recursion's: the tail term first, then j ascending; a level's staged
/// zeros above its own min(n, support - 1) add +0 to a non-negative sum,
/// which is exact.  Members run kGroup at a time: about four vectors of
/// add chains in flight whatever the pack's vector width.
template <typename P, bool kAllRows>
MTPERF_INLINE void disaggregate_packs(const TierWindow& v) {
  constexpr std::size_t C = kPackLanes<P>;
  constexpr std::size_t kGroup = std::max<std::size_t>(1, 4 / pack_vectors<P>());
  const double support = static_cast<double>(v.support);
  const P one = 1.0 + P{};
  for (std::size_t w0 = 0; w0 < v.levels; w0 += C) {
    // Tail aggregates, derived rather than carried: the occupancy mass at
    // or beyond the truncation point is the normalization deficit of the
    // explicit marginals, and its queue share is whatever Little's exact
    // total does not attribute to them.
    P mass = load_pack<P>(v.stage + w0);
    P qexp{};
    for (unsigned j = 1; j <= v.j_top; ++j) {
      const P pj = load_pack<P>(v.stage + j * kLaneChunk + w0);
      mass = mass + pj;
      if constexpr (kAllRows) qexp = qexp + pj * static_cast<double>(j);
    }
    const P tail_p = max_pack(one - mass, P{});
    P tail_extra{};
    if constexpr (kAllRows) {
      const P queue = load_pack<P>(v.queue + w0);
      const P tail_q = max_pack(queue - qexp, tail_p * support);
      tail_extra = tail_q - tail_p * support;
    }
    const std::size_t here = std::min(C, v.levels - w0);
    std::size_t k = 0;
    for (; k + kGroup <= v.width; k += kGroup) {
      disaggregate_members<P, kGroup, kAllRows>(v, w0, k, here, tail_p,
                                                tail_extra);
    }
    for (; k < v.width; ++k) {
      disaggregate_members<P, 1, kAllRows>(v, w0, k, here, tail_p, tail_extra);
    }
  }
}

/// Each ISA clone runs the packs its vector registers hold (lane_block.hpp).
MTPERF_ISA_CLONES void disaggregate_window(const TierWindow& v) {
#if defined(MTPERF_HAS_ISA_CLONES)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512vl")) {
    return v.queue_out != nullptr
               ? disaggregate_packs<LanePack<8>, true>(v)
               : disaggregate_packs<LanePack<8>, false>(v);
  }
  if (__builtin_cpu_supports("avx2")) {
    return v.queue_out != nullptr
               ? disaggregate_packs<LanePack<4>, true>(v)
               : disaggregate_packs<LanePack<4>, false>(v);
  }
#endif
#if defined(__GNUC__)
  return v.queue_out != nullptr ? disaggregate_packs<LanePack<2>, true>(v)
                                : disaggregate_packs<LanePack<2>, false>(v);
#else
  return v.queue_out != nullptr ? disaggregate_packs<double, true>(v)
                                : disaggregate_packs<double, false>(v);
#endif
}

/// Extracted FES data of one tier: the profile result (kept alive for the
/// disaggregation tables) and the truncation point.
struct TierProfile {
  std::shared_ptr<const MvaResult> result;
  unsigned support = 1;
};

TierProfile extract_profile(const ClosedNetwork& network,
                            const DemandModel& demands, const TierSpec& tier,
                            unsigned max_population,
                            const HierarchyOptions& options, StationRows rows,
                            const SubnetworkEvaluator& evaluator) {
  const auto eval = [&](unsigned depth) -> std::shared_ptr<const MvaResult> {
    ScenarioSpec spec = subnetwork_spec(network, demands, tier, depth, rows);
    if (evaluator) {
      std::shared_ptr<const MvaResult> r = evaluator(spec);
      MTPERF_REQUIRE(r != nullptr && r->levels() >= depth,
                     "subnetwork evaluator returned a too-shallow result");
      return r;
    }
    return std::make_shared<const MvaResult>(
        solve(spec.network, &spec.demands, spec.options));
  };

  TierProfile profile;
  if (options.saturation_tolerance <= 0.0) {
    profile.result = eval(max_population);
    profile.support = max_population;
    return profile;
  }
  // Adaptive schedule: solve to a small depth, scan for the saturation
  // plateau, and double until found (or the full population is reached).
  // The scan predicate at j depends only on X(j-1) and X(j), which the
  // exact recursion computes identically at any depth >= j — so the
  // truncation point is schedule-independent, which keeps prefix trims of
  // deep solves bit-identical to direct shallow solves.
  unsigned depth = std::min(std::max(options.initial_depth, 2u), max_population);
  for (;;) {
    profile.result = eval(depth);
    for (unsigned j = 2; j <= depth; ++j) {
      const double x_prev = profile.result->throughput[j - 2];
      const double x_here = profile.result->throughput[j - 1];
      if (x_here - x_prev <= options.saturation_tolerance * x_here) {
        profile.support = j;
        return profile;
      }
    }
    if (depth == max_population) {
      profile.support = max_population;
      return profile;
    }
    depth = std::min(depth * 2, max_population);
  }
}

}  // namespace

HierarchyPlan plan_hierarchy(const ClosedNetwork& network,
                             const HierarchyOptions& options) {
  const std::size_t k_count = network.size();
  HierarchyPlan plan;
  plan.tiers = options.tiers.empty() ? auto_tiers(network) : options.tiers;

  // tier_of[k]: which tier owns station k (or npos).
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> tier_of(k_count, kNone);
  for (std::size_t t = 0; t < plan.tiers.size(); ++t) {
    TierSpec& tier = plan.tiers[t];
    tier.name = tier_display_name(tier, t);
    MTPERF_REQUIRE(!tier.stations.empty(), "hierarchy tier '" + tier.name +
                                               "' has no stations");
    for (std::size_t k : tier.stations) {
      MTPERF_REQUIRE(k < k_count,
                     "hierarchy tier '" + tier.name +
                         "' references station index " + std::to_string(k) +
                         " out of range (network has " +
                         std::to_string(k_count) + " stations)");
      MTPERF_REQUIRE(tier_of[k] == kNone,
                     "station '" + network.station(k).name +
                         "' appears in multiple hierarchy tiers");
      tier_of[k] = t;
    }
  }

  // Reduced-network order: each tier sits where its first member was.
  std::vector<bool> tier_emitted(plan.tiers.size(), false);
  for (std::size_t k = 0; k < k_count; ++k) {
    if (tier_of[k] == kNone) {
      plan.untouched.push_back(k);
      plan.units.push_back(HierarchyUnit{/*is_tier=*/false, k});
    } else if (!tier_emitted[tier_of[k]]) {
      tier_emitted[tier_of[k]] = true;
      plan.units.push_back(HierarchyUnit{/*is_tier=*/true, tier_of[k]});
    }
  }
  return plan;
}

ScenarioSpec subnetwork_spec(const ClosedNetwork& network,
                             const DemandModel& demands, const TierSpec& tier,
                             unsigned depth, StationRows rows) {
  std::vector<Station> stations;
  stations.reserve(tier.stations.size());
  for (std::size_t k : tier.stations) stations.push_back(network.station(k));
  ScenarioSpec spec;
  spec.label = "fes:" + tier.name;
  // Think time 0: the FES profile is the subnetwork's throughput with j
  // jobs circulating inside it and nothing else.
  spec.network = ClosedNetwork(std::move(stations), 0.0);
  spec.demands = subset_demands(demands, tier.stations);
  spec.options.solver = SolverKind::kMvasd;
  spec.options.max_population = depth;
  spec.options.station_rows = rows;
  return spec;
}

MvaResult solve_hierarchical(const ClosedNetwork& network,
                             const DemandModel* demands,
                             const SolveOptions& options,
                             const SubnetworkEvaluator& evaluator) {
  MTPERF_REQUIRE(demands != nullptr, "solve() needs a demand model");
  MTPERF_REQUIRE(demands->stations() == network.size(),
                 "demand model width must match station count");
  MTPERF_REQUIRE(demands->axis() == DemandModel::Axis::kConcurrency,
                 "hierarchical solver requires concurrency-axis demands");
  MTPERF_REQUIRE(options.max_population >= 1, "population must be at least 1");
  const HierarchyOptions& h = options.hierarchy;
  MTPERF_REQUIRE(h.saturation_tolerance >= 0.0 &&
                     std::isfinite(h.saturation_tolerance),
                 "hierarchy saturation tolerance must be finite and >= 0");
  MTPERF_REQUIRE(h.initial_depth >= 1,
                 "hierarchy initial depth must be at least 1");

  const unsigned n_max = options.max_population;
  const StationRows rows = options.station_rows;
  const bool all_rows = rows == StationRows::kAll;
  const HierarchyPlan plan = plan_hierarchy(network, h);

  // Reject tiers that cannot carry traffic before asking the subnetwork
  // solver to divide by their zero cycle time.
  for (const TierSpec& tier : plan.tiers) {
    double demand = 0.0;
    for (std::size_t k : tier.stations) {
      demand += network.station(k).visits * demands->at(k, 1.0);
    }
    MTPERF_REQUIRE(demand > 0.0, "hierarchy tier '" + tier.name +
                                     "' has zero aggregate demand");
  }

  // Extract (or fetch from the evaluator's cache) every tier's profile.
  std::vector<TierProfile> profiles;
  profiles.reserve(plan.tiers.size());
  for (const TierSpec& tier : plan.tiers) {
    profiles.push_back(
        extract_profile(network, *demands, tier, n_max, h, rows, evaluator));
  }

  // Untouched stations read their (possibly concurrency-varying) demands
  // from one tabulated grid over the original model.
  const DemandGrid grid(*demands, n_max);

  // ---- Build the reduced network in uniform truncated-support form.
  std::vector<ReducedUnit> units;
  units.reserve(plan.units.size());
  for (const HierarchyUnit& hu : plan.units) {
    ReducedUnit u;
    u.is_tier = hu.is_tier;
    u.index = hu.index;
    if (hu.is_tier) {
      const TierProfile& prof = profiles[hu.index];
      const double x1 = prof.result->throughput[0];
      MTPERF_REQUIRE(x1 > 0.0, "hierarchy tier '" + plan.tiers[hu.index].name +
                                   "' has zero throughput at population 1");
      u.visits = 1.0;
      u.service = 1.0 / x1;
      u.support = prof.support;
      u.alpha.assign(u.support + 1, 1.0);
      // Running max: exact closed-network throughput is provably
      // non-decreasing in population, but the multi-server recursion's
      // saturated-regime projection can wiggle a deeply saturated
      // subnetwork's profile at the ~1e-3 level.  Monotonizing restores
      // the physical invariant the reduced recursion depends on
      // (alpha_sat >= alpha(j), non-negative correction weights).
      double run = 1.0;
      for (unsigned j = 1; j <= u.support; ++j) {
        run = std::max(run, prof.result->throughput[j - 1] / x1);
        u.alpha[j] = run;
      }
      u.alpha_sat = u.alpha[u.support];
    } else {
      const Station& st = network.station(hu.index);
      u.visits = st.visits;
      u.delay = st.kind == StationKind::kDelay;
      if (!u.delay) {
        u.support = st.servers;
        u.alpha.assign(u.support + 1, 1.0);
        for (unsigned j = 1; j <= u.support; ++j) {
          u.alpha[j] = static_cast<double>(j);
        }
        u.alpha_sat = u.alpha[u.support];
      }
    }
    if (!u.delay) {
      u.p.assign(u.support, 0.0);
      u.p[0] = 1.0;
      u.weight_sat.assign(u.support, 0.0);
      for (unsigned j = 1; j < u.support; ++j) {
        u.weight_sat[j] =
            static_cast<double>(j) * (u.alpha_sat / u.alpha[j] - 1.0);
      }
    }
    units.push_back(std::move(u));
  }

  // Disaggregation tables (station detail only): per tier, the member
  // stations' conditional queue lengths and utilizations at subnetwork
  // populations 0..support, plus the saturated-growth share b_k =
  // Q_k(support) - Q_k(support - 1) (which sums to exactly 1: the
  // subnetwork has no think time, so its jobs are all at stations).  A
  // utilization-only solve builds the utilization table alone.
  const bool station_detail = h.detail == HierarchyDetail::kStations;
  std::vector<std::vector<double>> qsub(plan.tiers.size());
  std::vector<std::vector<double>> usub(plan.tiers.size());
  std::vector<std::vector<double>> bsub(plan.tiers.size());
  if (station_detail) {
    for (std::size_t t = 0; t < plan.tiers.size(); ++t) {
      const std::size_t members = plan.tiers[t].stations.size();
      const unsigned m = profiles[t].support;
      const MvaResult& r = *profiles[t].result;
      usub[t].assign(static_cast<std::size_t>(m + 1) * members, 0.0);
      for (unsigned j = 1; j <= m; ++j) {
        for (std::size_t k = 0; k < members; ++k) {
          usub[t][static_cast<std::size_t>(j) * members + k] =
              r.utilization(j - 1, k);
        }
      }
      if (!all_rows) continue;
      qsub[t].assign(static_cast<std::size_t>(m + 1) * members, 0.0);
      bsub[t].resize(members);
      for (unsigned j = 1; j <= m; ++j) {
        for (std::size_t k = 0; k < members; ++k) {
          qsub[t][static_cast<std::size_t>(j) * members + k] = r.queue(j - 1, k);
        }
      }
      for (std::size_t k = 0; k < members; ++k) {
        const double q_top = qsub[t][static_cast<std::size_t>(m) * members + k];
        const double q_prev =
            m >= 2 ? qsub[t][static_cast<std::size_t>(m - 1) * members + k]
                   : 0.0;
        bsub[t][k] = q_top - q_prev;
      }
    }
  }

  // Disaggregation windows: each tier's marginals (and, with all rows, its
  // queue) are staged for kLaneChunk levels, one lane pack, then
  // disaggregate_window turns the whole window into member rows.  The
  // staging is allocated before the result, so that it is freed inside the
  // heap rather than at its top (see batch_engine.cpp's note on grids and
  // results).
  const bool disaggregate = station_detail && !plan.tiers.empty();
  std::size_t staged = 0;
  if (disaggregate) {
    for (const ReducedUnit& u : units) {
      if (u.is_tier) staged += (u.support + (all_rows ? 1 : 0)) * kLaneChunk;
    }
  }
  std::vector<double> staging(staged);
  double* next_stage = staging.data();
  for (ReducedUnit& u : units) {
    if (!disaggregate || !u.is_tier) continue;
    u.stage = next_stage;
    next_stage += u.support * kLaneChunk;
    if (all_rows) {
      u.queue_stage = next_stage;
      next_stage += kLaneChunk;
    }
  }

  // ---- Result shape.
  MvaResult result;
  std::vector<std::string> names;
  if (station_detail) {
    names = network.station_names();
  } else {
    names.reserve(units.size());
    for (const ReducedUnit& u : units) {
      names.push_back(u.is_tier ? "fes:" + plan.tiers[u.index].name
                                : network.station(u.index).name);
    }
  }
  result.reset(std::move(names), n_max, rows);

  // ---- The reduced recursion (DESIGN.md §15).
  //
  // Asymptote-plus-correction form — the multi-server recursion's
  // R = (S/C)(1 + Q + F) generalized to arbitrary monotone rate profiles:
  //
  //   R(n) = (S / a_sat) (1 + Q(n-1) + F),
  //   F    = sum_{j=1}^{min(n, m-1)}  j (a_sat / alpha(j) - 1) p(j-1 | n-1).
  //
  // This is an exact regrouping of the textbook load-dependent wait
  // sum_j j S/alpha(j) p(j-1) using sum_j j p(j-1) = 1 + Q(n-1), with
  // Q(n-1) carried over exactly by Little's law.  Its point is numerical:
  // the correction weights vanish as alpha(j) -> a_sat, so the wait never
  // reads the high-occupancy marginals — exactly the region where the
  // classic load-dependent recursion loses accuracy once the station
  // saturates (naively summing the full marginal ladder there compounds
  // into unbounded throughput past the capacity bound).  The saturated
  // bulk enters only through the exact Q(n-1) term.
  //
  // The marginals update descending (each p(j) reads the previous
  // population's p(j-1)); p(0) then comes from the flow-balance identity
  //
  //   a p(0) + sum_{j>=1} (a - alpha(j)) p(j) = a - y,
  //
  // (y = X V S, the expected capacity in use), never from the
  // catastrophically cancelling 1 - sum p(j).  A station pushed past its
  // anchor (y >= a) zeroes its marginals: the exact asymptote, as in the
  // multi-server recursion.  For an untouched C-server station
  // (alpha(j) = min(j, C)) all of this degenerates to the multi-server
  // recursion (batch_engine.cpp) term for term in exact arithmetic; the
  // two round differently, which is why they stay two kernels
  // (DESIGN.md §15).
  //
  // The regrouping is exact for any anchor a >= alpha(j) over the
  // occupied range, so each level anchors at a = alpha(min(n, support)):
  // with n customers in the whole network the station never holds more
  // than n, and reading only alpha(1..n) keeps a population prefix of a
  // deep solve bit-identical to a direct shallow solve — the property the
  // service cache's prefix reuse depends on.  (Utilization alone reports
  // against the full-depth capacity alpha(support); see below.)
  const double think = network.think_time();
  std::size_t win_start = 0;  // first level staged in the current window
  for (unsigned n = 1; n <= n_max; ++n) {
    double total_vr = 0.0;
    for (ReducedUnit& u : units) {
      if (!u.is_tier) u.service = grid.at(n, u.index);
      if (u.delay) {
        u.residence = u.visits * u.service;
        total_vr += u.residence;
        continue;
      }
      const double a = u.alpha[std::min(n, u.support)];
      double f = 0.0;
      const unsigned lim = std::min(n, u.support - 1);
      if (n >= u.support) {
        for (unsigned j = 1; j <= lim; ++j) f += u.weight_sat[j] * u.p[j - 1];
      } else {
        for (unsigned j = 1; j <= lim; ++j) {
          f += static_cast<double>(j) * (a / u.alpha[j] - 1.0) * u.p[j - 1];
        }
      }
      u.residence = u.visits * u.service / a * (1.0 + u.queue + f);
      total_vr += u.residence;
    }
    const double cycle = total_vr + think;
    MTPERF_REQUIRE(cycle > 0.0, "degenerate network: zero cycle time");
    const double x = static_cast<double>(n) / cycle;

    // Marginal updates, queues, utilizations.
    for (ReducedUnit& u : units) {
      if (u.delay) {
        u.queue = x * u.residence;
        u.util = x * u.visits * u.service;
        continue;
      }
      const double y = x * u.visits * u.service;
      u.queue = x * u.residence;
      // Utilization is pure reporting (nothing downstream reads it back):
      // offered capacity-in-use over the profile's full truncation-depth
      // capacity (X V S / C for a C-server station).
      u.util = y / u.alpha_sat;
      const double a = u.alpha[std::min(n, u.support)];
      if (y >= a) {
        // Fully saturated: the correction vanishes and zero marginals are
        // the exact asymptote (R -> (S/a)(1 + Q)).
        std::fill(u.p.begin(), u.p.end(), 0.0);
        continue;
      }
      const unsigned jm = std::min(n, u.support - 1);
      double weighted = 0.0;
      for (unsigned j = jm; j >= 1; --j) {
        u.p[j] = y * u.p[j - 1] / u.alpha[j];
        weighted += (a - u.alpha[j]) * u.p[j];
      }
      // Flow-balance identity for p(0), projected when floating-point
      // drift near saturation overdraws the idle budget.
      const double idle = a - y;
      if (weighted > idle && weighted > 0.0) {
        const double scale = idle / weighted;
        for (unsigned j = 1; j <= jm; ++j) u.p[j] *= scale;
        u.p[0] = 0.0;
      } else {
        u.p[0] = (idle - weighted) / a;
      }
    }

    // ---- Report.
    const std::size_t level = n - 1;
    result.throughput[level] = x;
    result.response_time[level] = total_vr;
    result.cycle_time[level] = cycle;
    double* const queue_row = all_rows ? result.queue_row(level) : nullptr;
    double* const util_row = result.utilization_row(level);
    double* const residence_row =
        all_rows ? result.residence_row(level) : nullptr;
    const std::size_t slot = level - win_start;
    for (const ReducedUnit& u : units) {
      if (u.stage != nullptr) {
        // Stage p(0..min(n, support-1)); the slot's entries above that
        // are zeros already (a lower level left them, or nothing did).
        const unsigned jm = std::min(n, u.support - 1);
        for (unsigned j = 0; j <= jm; ++j) {
          u.stage[j * kLaneChunk + slot] = u.p[j];
        }
        if (all_rows) u.queue_stage[slot] = u.queue;
        continue;
      }
      const std::size_t pos =
          station_detail ? u.index
                         : static_cast<std::size_t>(&u - units.data());
      util_row[pos] = u.util;
      if (all_rows) {
        queue_row[pos] = u.queue;
        residence_row[pos] = u.residence;
      }
    }
    if (!disaggregate || (slot + 1 < kLaneChunk && n < n_max)) continue;

    // ---- Disaggregate the window: tiers into their member stations.
    for (const ReducedUnit& u : units) {
      if (u.stage == nullptr) continue;
      const std::vector<std::size_t>& members = plan.tiers[u.index].stations;
      TierWindow v;
      v.levels = slot + 1;
      v.support = u.support;
      v.j_top = std::min(n, u.support - 1);
      v.stage = u.stage;
      v.queue = u.queue_stage;
      v.x = result.throughput.data() + win_start;
      v.width = members.size();
      v.members = members.data();
      v.us = usub[u.index].data();
      v.qs = qsub[u.index].data();
      v.bs = bsub[u.index].data();
      v.row_stride = result.stations();
      v.util_out = result.utilization_row(win_start);
      if (all_rows) {
        v.queue_out = result.queue_row(win_start);
        v.residence_out = result.residence_row(win_start);
      }
      disaggregate_window(v);
    }
    win_start = n;
  }
  return result;
}

}  // namespace mtperf::core::detail
