#include "core/detail/multiclass_engine.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"

namespace mtperf::core::detail {

namespace {

/// Per-level state budget of the moment recursion: C(N + M, M) entries per
/// ping-pong buffer (N = total population, M = queueing stations).
constexpr std::size_t kMaxMomLevelStates = std::size_t{1} << 23;

/// Total work budget of the moment recursion across all per-class runs:
/// runs * C(N + M, M + 1) lattice states.
constexpr std::size_t kMaxMomWork = std::size_t{1} << 33;

}  // namespace

std::vector<std::string> class_names_of(
    const std::vector<CustomerClass>& classes) {
  std::vector<std::string> names;
  names.reserve(classes.size());
  for (const auto& c : classes) names.push_back(c.name);
  return names;
}

std::vector<unsigned> class_populations_of(
    const std::vector<CustomerClass>& classes) {
  std::vector<unsigned> pops;
  pops.reserve(classes.size());
  for (const auto& c : classes) pops.push_back(c.population);
  return pops;
}

void assemble_multiclass_level(MvaResult& result, std::size_t row,
                               const std::vector<CustomerClass>& classes,
                               const std::vector<unsigned>& level_pops,
                               const MulticlassLevelState& s) {
  const std::size_t c_count = classes.size();
  const std::size_t k_count = result.stations();

  double x_total = 0.0;
  std::size_t active = 0;
  std::size_t last_active = 0;
  unsigned pop_total = 0;
  for (std::size_t c = 0; c < c_count; ++c) {
    x_total += s.x[c];
    pop_total += level_pops[c];
    if (level_pops[c] > 0) {
      ++active;
      last_active = c;
    }
  }
  result.throughput[row] = x_total;
  if (active == 1) {
    result.response_time[row] = s.r[last_active];
    result.cycle_time[row] =
        s.r[last_active] + classes[last_active].think_time;
  } else {
    double weighted_r = 0.0;
    for (std::size_t c = 0; c < c_count; ++c) weighted_r += s.x[c] * s.r[c];
    result.response_time[row] = weighted_r / x_total;
    result.cycle_time[row] = static_cast<double>(pop_total) / x_total;
  }

  const std::size_t class_base = row * c_count;
  for (std::size_t c = 0; c < c_count; ++c) {
    result.class_throughput[class_base + c] = s.x[c];
    result.class_response_time[class_base + c] = s.r[c];
  }
  double* util_row = result.utilization_row(row);
  for (std::size_t k = 0; k < k_count; ++k) {
    double u = 0.0;
    for (std::size_t c = 0; c < c_count; ++c) u += s.x[c] * s.demand_rows[c][k];
    util_row[k] = u;
  }
  if (result.station_rows != StationRows::kAll) return;

  double* queue_row = result.queue_row(row);
  double* residence_row = result.residence_row(row);
  for (std::size_t k = 0; k < k_count; ++k) {
    double q = 0.0;
    for (std::size_t c = 0; c < c_count; ++c) {
      if (level_pops[c] > 0) q += s.x[c] * s.residence[c * k_count + k];
    }
    queue_row[k] = q;
    residence_row[k] = active == 1
                           ? s.residence[last_active * k_count + k]
                           : queue_row[k] / x_total;
  }

  const std::size_t queue_base = class_base * k_count;
  for (std::size_t c = 0; c < c_count; ++c) {
    if (level_pops[c] > 0) {
      for (std::size_t k = 0; k < k_count; ++k) {
        result.class_station_queue[queue_base + c * k_count + k] =
            s.x[c] * s.residence[c * k_count + k];
      }
    }
  }
}

void validate_multiclass(const ClosedNetwork& network,
                         const std::vector<CustomerClass>& classes) {
  MTPERF_REQUIRE(!classes.empty(), "need at least one customer class");
  for (const auto& st : network.stations()) {
    MTPERF_REQUIRE(st.servers == 1 || st.kind == StationKind::kDelay,
                   "multi-class MVA supports single-server queueing and delay "
                   "stations; use the Seidmann transform for multi-server "
                   "resources (station: " + st.name + ")");
  }
  std::unordered_set<std::string> seen;
  bool any_population = false;
  for (const auto& c : classes) {
    MTPERF_REQUIRE(seen.insert(c.name).second,
                   "duplicate customer class name: '" + c.name + "'");
    MTPERF_REQUIRE(std::isfinite(c.think_time) && c.think_time >= 0.0,
                   "think times must be non-negative");
    if (c.population > 0) any_population = true;
    if (c.demand_model != nullptr) {
      MTPERF_REQUIRE(c.demand_model->stations() == network.size(),
                     "class '" + c.name +
                         "': one demand per station required");
      MTPERF_REQUIRE(
          c.demand_model->axis() == DemandModel::Axis::kConcurrency,
          "class '" + c.name +
              "': per-class demand models must use the concurrency axis "
              "(demands are evaluated at the mix's total population)");
    } else {
      MTPERF_REQUIRE(c.demands.size() == network.size(),
                     "class '" + c.name + "': one demand per station required");
      for (double d : c.demands) {
        MTPERF_REQUIRE(std::isfinite(d) && d >= 0.0,
                       "service demands must be non-negative");
      }
    }
  }
  MTPERF_REQUIRE(any_population, "all classes have zero population");
}

// ---------------------------------------------------------------------------
// RECAL moment recursion.
//
// Basis: g_n(v) — the normalizing constant of the network after adding the
// first n customers, with station k's term augmented by v_k "extra tokens"
// (g_n(e_k)/g_n(0) - 1 is exactly the mean queue at k: the first moment of
// the station's state distribution, hence "method of moments").  Adding
// the j-th customer of class c (delay demands and think time folded into
// Z_c, queueing demands d_{c,m}):
//
//   g_n(v) = (1/j) * [ Z_c g_{n-1}(v) + sum_m d_{c,m} (v_m + 1)
//                                         g_{n-1}(v + e_m) ]
//
// Every term is non-negative — no cancellation, so the recursion is
// numerically benign; levels are rescaled when they drift out of range,
// which is free because only same-level ratios are ever read.  One run
// per active class, ordered so that class's customers come last: level
// N-1 of that run is the mix minus one class-c customer, giving the
// arrival-theorem queues Q_m(N - e_c) and with them the exact R_c and
// X_c = N_c / (Z_c + R_c).

namespace {

/// C(n, k) with saturation at 2^63 (the guard rejects anything near it).
std::size_t binom_saturating(std::size_t n, std::size_t k) {
  constexpr std::size_t kCap = std::size_t{1} << 62;
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::size_t result = 1;
  for (std::size_t i = 1; i <= k; ++i) {
    // result * (n - k + i) / i is exact at every step; saturate before
    // the multiply overflows.
    const std::size_t factor = n - k + i;
    if (result > kCap / factor) return kCap;
    result = result * factor / i;
  }
  return result;
}

/// One recursion step: fill g_cur over the |v| <= cap lattice from g_prev
/// (|v| <= cap + 1), both in lexicographic order with v_0 slowest.
///
/// Fixing v_0..v_{d-1} leaves a block: the lattice over the remaining
/// coordinates with the remaining cap r, one sub-block per value of v_d,
/// down to the last coordinate, a contiguous run.  Every previous-level
/// neighbour of a block's moments is known on entry:
///   - v sits in the previous level's block with the same prefix (cap
///     r + 1);
///   - v + e_m, for m < d, sits in a previous-level block shaped like v's
///     own, whose start the walk carries in nbr_[m];
///   - v + e_d is the next sub-block of v's previous-level block;
///   - v + e_{M-1} is the next element of v's previous-level run.
/// Walking a block advances every carried pointer by exactly that block's
/// size, so no lattice index is ever recomputed and a moment costs M
/// multiply-adds, summed in ascending m.  The walk recurses once per
/// coordinate: at most M frames deep.
class MomStep {
 public:
  /// Sized for levels of cap <= r_max over m_dims coordinates.
  MomStep(std::size_t r_max, std::size_t m_dims)
      : m_dims_(m_dims),
        sizes_((r_max + 1) * (m_dims + 1), 1),
        nbr_(m_dims),
        coef_(m_dims) {
    for (std::size_t r = 1; r <= r_max; ++r) {
      for (std::size_t k = 1; k <= m_dims; ++k) {
        sizes_[r * (m_dims + 1) + k] = size(r - 1, k) + size(r, k - 1);
      }
    }
  }

  /// States of a level with cap `cap`: C(cap + M, M).
  std::size_t states(std::size_t cap) const noexcept {
    return size(cap, m_dims_);
  }

  /// `d` holds the run class's M queueing demands.  Returns the level max.
  double operator()(const double* g_prev, double* g_cur, std::size_t cap,
                    const double* d, double z, double inv_j) {
    d_ = d;
    z_ = z;
    inv_j_ = inv_j;
    out_ = g_cur;
    level_max_ = 0.0;
    block(0, cap, g_prev);
    return level_max_;
  }

  /// The first level, read off g_0 = 1 instead of walking it: each moment
  /// is inv_j (z + sum_m d_m (v_m + 1)).  The walk over g_0 multiplies
  /// every term by 1.0, which is exact, and adds the terms in ascending m;
  /// carrying the partial sum down the blocks makes the same additions in
  /// the same order, so the bits match.  Returns the level max.
  double first(double* g_cur, std::size_t cap, const double* d, double z,
               double inv_j) {
    d_ = d;
    inv_j_ = inv_j;
    out_ = g_cur;
    level_max_ = 0.0;
    first_block(0, cap, z);
    return level_max_;
  }

 private:
  /// C(r + k, k): vectors over k coordinates with |v| <= r.
  std::size_t size(std::size_t r, std::size_t k) const noexcept {
    return sizes_[r * (m_dims_ + 1) + k];
  }

  /// The block over coordinates dim..M-1 with remaining cap r; q starts
  /// the previous level's block with the same prefix.
  void block(std::size_t dim, std::size_t r, const double* q) {
    const std::size_t rest = m_dims_ - 1 - dim;
    if (rest == 0) {
      run(r, q);
      return;
    }
    nbr_[dim] = q + size(r + 1, rest);
    for (std::size_t a = 0; a <= r; ++a) {
      coef_[dim] = d_[dim] * static_cast<double>(a + 1);
      // The block of v + e_dim is also the previous-level block of the
      // next value of v_dim.
      const double* next = nbr_[dim];
      if (a < r) {
        block(dim + 1, r - a, q);
      } else {
        single(dim, q);
      }
      q = next;
    }
  }

  /// The last coordinate: r + 1 moments; q is the previous level's run.
  void run(std::size_t r, const double* q) {
    const std::size_t last = m_dims_ - 1;
    const double* coef = coef_.data();
    const double* const* nbr = nbr_.data();
    const double z = z_;
    const double inv_j = inv_j_;
    const double d_last = d_[last];
    double* __restrict out = out_;
    double level_max = level_max_;
    double v_last = 1.0;  // v_{M-1} + 1, exact in a double
    for (std::size_t b = 0; b <= r; ++b) {
      double acc = z * q[b];
      for (std::size_t m = 0; m < last; ++m) acc += coef[m] * nbr[m][b];
      const double val = inv_j * (acc + d_last * v_last * q[b + 1]);
      out[b] = val;
      level_max = std::max(level_max, val);
      v_last += 1.0;
    }
    out_ = out + r + 1;
    level_max_ = level_max;
    for (std::size_t m = 0; m < last; ++m) nbr_[m] += r + 1;
  }

  /// first()'s block over coordinates dim..M-1 with remaining cap r;
  /// `partial` is z plus the terms of the coordinates before dim.
  void first_block(std::size_t dim, std::size_t r, double partial) {
    if (dim == m_dims_ - 1) {
      const double d_last = d_[dim];
      double v_last = 1.0;  // v_{M-1} + 1, as in run()
      for (std::size_t b = 0; b <= r; ++b) {
        const double val = inv_j_ * (partial + d_last * v_last);
        *out_++ = val;
        level_max_ = std::max(level_max_, val);
        v_last += 1.0;
      }
      return;
    }
    for (std::size_t a = 0; a <= r; ++a) {
      const double next = partial + d_[dim] * static_cast<double>(a + 1);
      if (a < r) {
        first_block(dim + 1, r - a, next);
      } else {
        // Cap 0 left: v_m = 0 past dim, as in single().
        double acc = next;
        for (std::size_t m = dim + 1; m < m_dims_; ++m) acc += d_[m];
        const double val = inv_j_ * acc;
        *out_++ = val;
        level_max_ = std::max(level_max_, val);
      }
    }
  }

  /// A block with remaining cap 0 is the one moment with v_m = 0 past dim.
  /// Its previous-level block q is the cap-1 lattice over those
  /// coordinates, where e_m sits at offset M - m (and v_m + 1 = 1).
  void single(std::size_t dim, const double* q) {
    const double* coef = coef_.data();
    const double** nbr = nbr_.data();
    double acc = z_ * q[0];
    for (std::size_t m = 0; m <= dim; ++m) acc += coef[m] * *nbr[m]++;
    for (std::size_t m = dim + 1; m < m_dims_; ++m) {
      acc += d_[m] * q[m_dims_ - m];
    }
    const double val = inv_j_ * acc;
    *out_++ = val;
    level_max_ = std::max(level_max_, val);
  }

  std::size_t m_dims_;
  std::vector<std::size_t> sizes_;  ///< size(r, k) at [r * (M + 1) + k]
  std::vector<const double*> nbr_;  ///< run pointer to g_prev(v + e_m)
  std::vector<double> coef_;        ///< d_m (v_m + 1)
  const double* d_ = nullptr;
  double z_ = 0.0;
  double inv_j_ = 0.0;
  double* out_ = nullptr;
  double level_max_ = 0.0;
};

}  // namespace

MvaResult mom_multiclass_engine(const ClosedNetwork& network,
                                const std::vector<CustomerClass>& classes,
                                StationRows rows) {
  const std::size_t k_count = network.size();
  const std::size_t c_count = classes.size();

  // Constant per-class demands, split into queueing stations (the lattice
  // dimensions) and delay stations (folded into Z_c).
  std::vector<std::vector<double>> demands(c_count);
  for (std::size_t c = 0; c < c_count; ++c) {
    const CustomerClass& cls = classes[c];
    if (cls.demand_model != nullptr) {
      MTPERF_REQUIRE(cls.demand_model->is_constant(),
                     "class '" + cls.name +
                         "': mom-multiclass requires constant demands; use "
                         "exact-multiclass or schweitzer-multiclass for "
                         "concurrency-varying classes");
      demands[c] = cls.demand_model->all_at(1.0);
    } else {
      demands[c] = cls.demands;
    }
  }
  std::vector<std::size_t> queueing;
  std::vector<std::size_t> delays;
  for (std::size_t k = 0; k < k_count; ++k) {
    (network.station(k).kind == StationKind::kDelay ? delays : queueing)
        .push_back(k);
  }
  const std::size_t m_dims = queueing.size();

  std::vector<std::size_t> active;
  // Summed wide: populations can add up past UINT_MAX, and a wrapped total
  // would size the lattice for fewer customers than the runs add.
  std::size_t total_pop = 0;
  for (std::size_t c = 0; c < c_count; ++c) {
    if (classes[c].population > 0) {
      active.push_back(c);
      total_pop += classes[c].population;
    }
  }

  // Z_c: think time plus delay-station demands (delay residences are
  // load-independent, so they behave exactly like think time in G).
  std::vector<double> z(c_count, 0.0);
  for (std::size_t c = 0; c < c_count; ++c) {
    z[c] = classes[c].think_time;
    for (const std::size_t k : delays) z[c] += demands[c][k];
  }

  MvaResult result;
  result.reset(network.station_names(), 1, rows);
  result.reset_classes(class_names_of(classes), class_populations_of(classes));
  // A single-level result at the full mix; report the total population
  // (the engine's exact-hit path never trims single-level results).
  result.population[0] = static_cast<unsigned>(total_pop);

  MulticlassLevelState state;
  state.resize(c_count, k_count);
  for (std::size_t c = 0; c < c_count; ++c) {
    state.demand_rows[c] = demands[c].data();
  }

  // Per-class arrival-theorem queues from one run each.
  std::vector<std::vector<double>> q_minus(c_count);

  if (m_dims > 0 && total_pop > 1) {
    // Adding customer n leaves cap N - n on the token vectors, so the
    // final level (n = N - 1) still reaches |v| <= 1 — exactly g(0) and
    // the g(e_m) the queue moments need.
    const std::size_t pop = total_pop;
    const std::size_t level_states = binom_saturating(pop + m_dims, m_dims);
    MTPERF_REQUIRE(level_states <= kMaxMomLevelStates,
                   "population-vector moment space too large for "
                   "mom-multiclass; use schweitzer-multiclass");
    const std::size_t run_work =
        binom_saturating(pop + m_dims, m_dims + 1);
    MTPERF_REQUIRE(run_work <= kMaxMomWork / std::max<std::size_t>(
                                   active.size(), 1),
                   "population-vector moment space too large for "
                   "mom-multiclass; use schweitzer-multiclass");

    MomStep step(pop, m_dims);
    // g_0 = 1 is never stored: level 1 is read off it directly.  g_b holds
    // the odd levels (cap <= N - 1), g_a the even ones (cap <= N - 2).
    std::vector<double> g_a(step.states(pop - 2));
    std::vector<double> g_b(step.states(pop - 1));
    std::vector<double> d_run(m_dims);

    for (const std::size_t last : active) {
      // Customer order for this run: every other active class in index
      // order, then N_last - 1 customers of the last class — level
      // n_steps is the mix minus one class-`last` customer.
      std::vector<std::pair<std::size_t, unsigned>> schedule;
      for (const std::size_t c : active) {
        if (c != last) schedule.emplace_back(c, classes[c].population);
      }
      if (classes[last].population > 1) {
        schedule.emplace_back(last, classes[last].population - 1);
      }

      double* g_prev = g_a.data();
      double* g_cur = g_b.data();
      std::size_t n = 0;
      for (const auto& [c, count] : schedule) {
        for (std::size_t m = 0; m < m_dims; ++m) {
          d_run[m] = demands[c][queueing[m]];
        }
        for (unsigned j = 1; j <= count; ++j) {
          ++n;
          const std::size_t cap = pop - n;
          const double inv_j = 1.0 / static_cast<double>(j);
          const double level_max =
              n == 1 ? step.first(g_cur, cap, d_run.data(), z[c], inv_j)
                     : step(g_prev, g_cur, cap, d_run.data(), z[c], inv_j);
          // Only same-level ratios are ever read, so levels can be
          // rescaled freely.  g_n is nondecreasing in every v coordinate
          // (all recurrence coefficients are non-negative and g_0 is
          // flat), so the level spans [g_cur[0], level_max] — a ratio
          // bounded by 2^N but still enormous at large mixes.  Center it
          // geometrically at 1 so both ends stay inside double range:
          // anchoring at the max (the naive choice) flushes the small-v
          // entries — the answer region — to zero once the spread passes
          // ~1e308.
          const double g_zero = g_cur[0];
          if (!std::isfinite(level_max) || g_zero <= 0.0) {
            throw numeric_error(
                "multiclass moment recursion degenerated (a class with "
                "zero think time and zero demands, or a moment spread "
                "beyond double range); use schweitzer-multiclass");
          }
          // sqrt halves the exponents, so the product cannot over- or
          // underflow even when the raw spread is near the format limits.
          const double scale = 1.0 / (std::sqrt(level_max) * std::sqrt(g_zero));
          if (scale < 0.5 || scale > 2.0) {
            const std::size_t states = step.states(cap);
            for (std::size_t i = 0; i < states; ++i) g_cur[i] *= scale;
          }
          if (g_cur[0] < 1e-300) {
            // Even centered, the spread exceeds ~600 decimal orders: the
            // small end would go subnormal and the final ratios with it.
            throw numeric_error(
                "multiclass moment spread exceeds double range at this "
                "mix; use schweitzer-multiclass");
          }
          std::swap(g_prev, g_cur);
        }
      }

      // The final level (N - 1 customers) has cap 1: g(0) at index 0,
      // g(e_m) at index M - m.  Q_m(N - e_last) = g(e_m)/g(0) - 1.
      const double g0 = g_prev[0];
      MTPERF_REQUIRE(g0 > 0.0,
                     "multiclass moment recursion lost the normalizing "
                     "constant (degenerate demands)");
      auto& q_row = q_minus[last];
      q_row.assign(m_dims, 0.0);
      for (std::size_t m = 0; m < m_dims; ++m) {
        q_row[m] = g_prev[m_dims - m] / g0 - 1.0;
      }
    }
  } else {
    // Either no queueing stations (delay-only network: queues seen on
    // arrival are irrelevant) or a single customer in total (it never
    // queues behind anyone).
    for (const std::size_t c : active) q_minus[c].assign(m_dims, 0.0);
  }

  // Arrival theorem: R_{c,k} = d_{c,k} (1 + Q_k(N - e_c)) at queueing
  // stations, d_{c,k} at delay stations; X_c = N_c / (Z_c + R_c) with the
  // think time kept separate from the folded delay demands.
  for (const std::size_t c : active) {
    double total_residence = 0.0;
    for (std::size_t k = 0; k < k_count; ++k) {
      state.residence[c * k_count + k] = demands[c][k];
    }
    for (std::size_t m = 0; m < m_dims; ++m) {
      const std::size_t k = queueing[m];
      state.residence[c * k_count + k] =
          demands[c][k] * (1.0 + q_minus[c][m]);
    }
    for (std::size_t k = 0; k < k_count; ++k) {
      total_residence += state.residence[c * k_count + k];
    }
    state.r[c] = total_residence;
    state.x[c] = static_cast<double>(classes[c].population) /
                 (classes[c].think_time + total_residence);
  }

  assemble_multiclass_level(result, 0, classes, class_populations_of(classes), state);
  return result;
}

}  // namespace mtperf::core::detail
