#include "core/detail/multiclass_batch_engine.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "core/detail/lane_block.hpp"
#include "core/detail/multiclass_engine.hpp"

namespace mtperf::core::detail {

// Implementation note — one implementation, the same bits in every block.
//
// This kernel is the only implementation of the two multiclass series
// recursions: core::solve runs a one-lane block, batches and served specs
// run wider ones.  Lanes are independent recursions, so vectorizing across
// them reorders nothing within a lane, and a lane's bits do not depend on
// the block it runs in (MulticlassExact.Golden* and
// MulticlassSchweitzer.Golden* pin core::solve, a one-lane block and a
// lane of a ragged block to the same literals).  Within a lane the order
// is fixed: residence sweeps accumulate stations in ascending k, the
// Schweitzer "queue seen on arrival" sum starts with the own-class
// discounted term and adds the other classes in ascending index order, and
// the exact lattice is swept in lexicographic vector order, class 0
// fastest.  Rows are assembled by assemble_multiclass_level, which MoM
// shares.  Besides the goldens, mom-multiclass checks the exact kind to
// 1e-9, and a one-class mix equals the single-class mvasd kind (exact) and
// schweitzer kind bit for bit.
//
// The Schweitzer discount (n_c - 1)/n_c and the cold-start spread n_c / K
// are computed once per class (the axis class: once per level).  A wide
// block runs its fixed point in chunks of kLaneChunk lanes, each chunk on
// its own until all its lanes have converged.  Per-lane convergence is
// handled by *freezing*: the first iteration whose per-lane max update
// delta drops below that lane's tolerance snapshots the lane's
// x/r/residence for its result row, and the lane keeps iterating
// harmlessly with the rest of its chunk (masking it would put a branch in
// the hot loop).  Each level the block fills its slots with its live lanes
// in the order of their iteration counts at the level before, so a chunk
// holds lanes that converge alike.  A live lane that exhausts its own
// iteration budget throws the kind's numeric_error.  A one-lane block just
// stops at its convergence iteration, its state already in the assembly
// scratch.
//
// A chunk computes on lane packs: kLaneChunk lanes as one, built from the
// vector registers of the ISA clone that runs it (lane_block.hpp), with
// sums in registers.  A one-lane block instantiates the same body with a
// plain double for the pack — no padding, no lane loops, demand rows read
// from its grid in place — and calls it directly.  The exact kind's vector
// body runs lane loops in compile-time kLaneChunk chunks instead.  This
// file is compiled with -ffp-contract=off (see src/core/CMakeLists.txt): no
// clone may contract a*b+c into an FMA, because every ISA the dispatcher
// can pick, every pack width, and the one-lane instantiation must round
// alike.

namespace {

/// Budgets of the exact kind's population-vector lattice, in lattice
/// states times stations.  A one-lane block (every core::solve) may use
/// 2^28, a Q lattice of up to 2 GiB; mixes past it must go through the
/// moment recursion (still exact) or Schweitzer.  A wider block admits
/// 2^22 per lane, so a full kBatchLaneBlock-lane lattice tops out near
/// 512 MiB; multiclass_batchable sends anything past that to core::solve.
constexpr std::size_t kMaxExactSpace = std::size_t{1} << 28;
constexpr std::size_t kMaxExactBatchSpace = std::size_t{1} << 22;

/// True when the population-vector lattice of `classes` (0 <= n_c <= N_c)
/// times k_count stations stays within `budget`.  Each multiply is checked
/// first: populations near 2^32 per class would wrap std::size_t, and a
/// wrapped product would pass the budget and index the lattice out of
/// bounds.
bool lattice_fits(const std::vector<CustomerClass>& classes,
                  std::size_t k_count, std::size_t budget) {
  std::size_t states = 1;
  for (const CustomerClass& cls : classes) {
    const std::size_t radix = static_cast<std::size_t>(cls.population) + 1;
    if (states > budget / radix) return false;
    states *= radix;
  }
  return states <= budget / k_count;
}

/// Per-class demand-model shape byte: the grouping key separates constant
/// demand vectors, constant models, and genuinely varying models so every
/// lane of a block gathers demand rows the same way.
char class_shape(const CustomerClass& cls) {
  if (cls.demand_model == nullptr) return 'c';
  return cls.demand_model->is_constant() ? 'k' : 'v';
}

/// Pointer view of one level's Schweitzer fixed point, over slots (a wide
/// block's live lanes, see solve_schweitzer_block): `real_lanes` slots in
/// use, every array with the padded lane stride `stride` (a multiple of
/// kLaneChunk in a wide block, 1 in a one-lane block).
struct McSchweitzerView {
  std::size_t c_count = 0;
  std::size_t k_count = 0;
  std::size_t real_lanes = 0;
  std::size_t stride = 0;
  const unsigned char* is_delay = nullptr;
  const unsigned char* class_active = nullptr;
  /// Per class, its level demands [k * stride + l]: the block's lane-major
  /// gather, or a one-lane block's grid row.
  const double* const* d = nullptr;
  const double* npop = nullptr;   ///< [c * stride + l], level populations
  const double* think = nullptr;  ///< [c * stride + l]
  const double* disc = nullptr;   ///< [c * stride + l] = (n_c - 1)/n_c
  double* q = nullptr;            ///< [(c * K + k) * stride + l]
  double* res = nullptr;
  double* r = nullptr;  ///< [c * stride + l]
  double* x = nullptr;
  const double* tol = nullptr;         ///< [stride] per-lane tolerance
  const unsigned* max_iter = nullptr;  ///< [stride] per-lane budget
  /// Out: per-lane freeze iteration, and (wide blocks) the frozen snapshot
  /// of the converged state: x / r / residence at the convergence
  /// iteration, while the lane's chunk keeps iterating.  A one-lane block
  /// has no snapshot (null): it stops at its convergence iteration.
  unsigned* iters = nullptr;
  double* snap_x = nullptr;    ///< [c * stride + l]
  double* snap_r = nullptr;    ///< [c * stride + l]
  double* snap_res = nullptr;  ///< [(c * K + k) * stride + l]
};

/// One class's residence sweep over the lanes of pack P from lo, stations
/// ascending, returning the class's total residence.  At a queueing
/// station the wait is d (1 + seen), the queue seen on arrival being the
/// own class's queue discounted by (n_c - 1)/n_c plus the other classes'
/// queues in ascending class order.  kOthers other classes (0-3, mixes of
/// up to four classes) are added from pinned rows; -1 (bigger mixes) loops
/// over the classes.  Inactive classes' queues are exact zeros: adding them
/// is bit-neutral and keeps the sum uniform.
template <typename P, std::size_t kStride, int kOthers>
MTPERF_INLINE P mc_residence_sweep(const McSchweitzerView& v, std::size_t c,
                                   std::size_t lo) {
  const std::size_t S = kStride != 0 ? kStride : v.stride;
  const std::size_t K = v.k_count;
  const std::size_t C = v.c_count;
  const double* const q = v.q + lo;
  const double* const dc = v.d[c] + lo;
  const double* const qc = q + c * K * S;
  double* const resc = v.res + c * K * S + lo;
  // The j-th other class in ascending order is j, or j + 1 from c on.
  const auto other = [&](std::size_t j) { return q + (j + (j >= c)) * K * S; };
  const double* const o0 = kOthers > 0 ? other(0) : nullptr;
  const double* const o1 = kOthers > 1 ? other(1) : nullptr;
  const double* const o2 = kOthers > 2 ? other(2) : nullptr;
  const P disc = load_pack<P>(v.disc + c * S + lo);
  P tot = P{};
  for (std::size_t k = 0; k < K; ++k) {
    const P dk = load_pack<P>(dc + k * S);
    if (v.is_delay[k] != 0) {
      store_pack(resc + k * S, dk);
      tot = tot + dk;
      continue;
    }
    P seen = disc * load_pack<P>(qc + k * S);
    if constexpr (kOthers >= 0) {
      if constexpr (kOthers > 0) seen = seen + load_pack<P>(o0 + k * S);
      if constexpr (kOthers > 1) seen = seen + load_pack<P>(o1 + k * S);
      if constexpr (kOthers > 2) seen = seen + load_pack<P>(o2 + k * S);
    } else {
      for (std::size_t d2 = 0; d2 < C; ++d2) {
        if (d2 != c) seen = seen + load_pack<P>(q + (d2 * K + k) * S);
      }
    }
    const P wait = dk * (1.0 + seen);
    store_pack(resc + k * S, wait);
    tot = tot + wait;
  }
  return tot;
}

/// Run the fixed point of the lanes of pack P from lo at one axis level until
/// each of them has converged: per iteration the residence / throughput
/// compute, then the queue update with each lane's max update delta.  A
/// lane freezes the first time its max delta drops below its tolerance;
/// the rest of its chunk keeps iterating it harmlessly.  NaN deltas never
/// raise the max, so a NaN never blocks convergence.  Returns the first
/// lane to exhaust its iteration budget, or SIZE_MAX when every live lane
/// froze.  kStride is 1 in a one-lane block, 0 for the view's stride.
template <typename P, std::size_t kStride>
MTPERF_INLINE std::size_t mc_schweitzer_body(const McSchweitzerView& v,
                                             std::size_t lo) {
  constexpr std::size_t kLanes = kPackLanes<P>;
  const std::size_t S = kStride != 0 ? kStride : v.stride;
  const std::size_t K = v.k_count;
  const std::size_t C = v.c_count;
  const std::size_t scan = std::min(kLanes, v.real_lanes - lo);
  const unsigned char* const class_active = v.class_active;
  double* const q = v.q + lo;
  const double* const res = v.res + lo;
  double* const x = v.x + lo;
  const unsigned* const max_iter = v.max_iter + lo;
  // Tolerances of the lanes still iterating, 0 for the others (frozen,
  // retired or padding): no max delta (>= 0) falls below 0, so one pack
  // comparison tells whether any lane froze.
  double live_tol[kLanes];
  std::size_t unfrozen = 0;
  for (std::size_t i = 0; i < kLanes; ++i) {
    live_tol[i] = i < scan ? v.tol[lo + i] : 0.0;
    if (live_tol[i] != 0.0) ++unfrozen;
  }
  // Exhaustion checks only run when the iteration counter reaches the
  // smallest live budget (recomputed when that lane freezes first).
  const auto smallest_budget = [&] {
    unsigned cap = static_cast<unsigned>(-1);
    for (std::size_t i = 0; i < scan; ++i) {
      if (live_tol[i] != 0.0 && max_iter[i] < cap) cap = max_iter[i];
    }
    return cap;
  };
  unsigned cap = smallest_budget();
  unsigned it = 0;
  while (unfrozen > 0) {
    if (it >= cap) {
      for (std::size_t i = 0; i < scan; ++i) {
        if (live_tol[i] != 0.0 && it >= max_iter[i]) return lo + i;
      }
      cap = smallest_budget();
    }
    // Compute phase: per active class, residence sweep and throughput.
    for (std::size_t c = 0; c < C; ++c) {
      if (class_active[c] == 0) continue;
      P tot;
      // The class count picks the sweep once per class, not per station.
      switch (C) {
        case 1: tot = mc_residence_sweep<P, kStride, 0>(v, c, lo); break;
        case 2: tot = mc_residence_sweep<P, kStride, 1>(v, c, lo); break;
        case 3: tot = mc_residence_sweep<P, kStride, 2>(v, c, lo); break;
        case 4: tot = mc_residence_sweep<P, kStride, 3>(v, c, lo); break;
        default: tot = mc_residence_sweep<P, kStride, -1>(v, c, lo);
      }
      store_pack(v.r + c * S + lo, tot);
      store_pack(x + c * S, load_pack<P>(v.npop + c * S + lo) /
                                (load_pack<P>(v.think + c * S + lo) + tot));
    }
    // Update phase: queue iterate + per-lane max update delta.
    P dm = P{};
    for (std::size_t c = 0; c < C; ++c) {
      if (class_active[c] == 0) continue;
      const P xc = load_pack<P>(x + c * S);
      for (std::size_t k = 0; k < K; ++k) {
        const std::size_t at = (c * K + k) * S;
        const P updated = xc * load_pack<P>(res + at);
        const P delta = abs_pack(updated - load_pack<P>(q + at));
        dm = max_pack(delta, dm);
        store_pack(q + at, updated);
      }
    }
    ++it;
    // Freeze scan: converged lanes record their iteration and (wide
    // blocks) snapshot the state they stop with.
    if (!any_below(dm, load_pack<P>(live_tol))) continue;
    double dmax[kLanes];
    store_pack(dmax, dm);
    for (std::size_t i = 0; i < scan; ++i) {
      if (!(dmax[i] < live_tol[i])) continue;
      const std::size_t l = lo + i;
      live_tol[i] = 0.0;
      --unfrozen;
      v.iters[l] = it;
      if (v.snap_x == nullptr) continue;
      for (std::size_t c = 0; c < C; ++c) {
        v.snap_x[c * S + l] = v.x[c * S + l];
        v.snap_r[c * S + l] = v.r[c * S + l];
        for (std::size_t k = 0; k < K; ++k) {
          const std::size_t at = (c * K + k) * S + l;
          v.snap_res[at] = v.res[at];
        }
      }
    }
  }
  return static_cast<std::size_t>(-1);
}

/// A wide block's level in packs of type P: each kLaneChunk-lane chunk
/// runs its own fixed point and stops once its own lanes have converged.
/// Lanes are independent, so this changes no bit.  When lanes exhaust
/// their budgets, the one reported has the smallest budget, as in a
/// lockstep sweep of the whole block.
template <typename P>
MTPERF_INLINE std::size_t mc_schweitzer_chunks(const McSchweitzerView& v) {
  std::size_t exhausted = static_cast<std::size_t>(-1);
  for (std::size_t lo = 0; lo < v.real_lanes; lo += kPackLanes<P>) {
    const std::size_t l = mc_schweitzer_body<P, 0>(v, lo);
    if (l != static_cast<std::size_t>(-1) &&
        (exhausted == static_cast<std::size_t>(-1) ||
         v.max_iter[l] < v.max_iter[exhausted])) {
      exhausted = l;
    }
  }
  return exhausted;
}

/// Each ISA clone runs the packs its vector registers hold: 8 doubles wide
/// with AVX-512, 4 with AVX2, 2 (SSE2, NEON) otherwise; without vector
/// extensions a wide block runs its lanes one at a time.
MTPERF_ISA_CLONES std::size_t mc_schweitzer_level(const McSchweitzerView& v) {
#if defined(MTPERF_HAS_ISA_CLONES)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512vl")) {
    return mc_schweitzer_chunks<LanePack<8>>(v);
  }
  if (__builtin_cpu_supports("avx2")) {
    return mc_schweitzer_chunks<LanePack<4>>(v);
  }
#endif
#if defined(__GNUC__)
  return mc_schweitzer_chunks<LanePack<2>>(v);
#else
  return mc_schweitzer_chunks<double>(v);
#endif
}

/// Pointer view of one exact-lattice population vector.  `idx` is the
/// vector's mixed-radix lattice index.
struct McExactView {
  std::size_t c_count = 0;
  std::size_t k_count = 0;
  std::size_t lanes = 0;
  std::size_t stride = 0;
  const unsigned char* is_delay = nullptr;
  const unsigned* digits = nullptr;        ///< n_c of the current vector
  const std::size_t* lattice_stride = nullptr;
  std::size_t idx = 0;
  /// Per class, its demands at the vector's total population
  /// [k * stride + l]: the block's lane-major table, or a one-lane block's
  /// grid row.
  const double* const* d = nullptr;
  const double* think = nullptr;  ///< [c * stride + l]
  double* q = nullptr;            ///< [(index * K + k) * stride + l]
  double* res = nullptr;          ///< [(c * K + k) * stride + l]
  double* r = nullptr;            ///< [c * stride + l]
  double* x = nullptr;
  double* tot = nullptr;  ///< [stride] scratch
};

/// One exact-recursion vector: the arrival-theorem residence sweep per
/// active class, then the vector's total-queue row.  kFixedLanes is 1 for
/// a one-lane block, or 0 for a runtime lane count padded to kLaneChunk.
template <std::size_t kFixedLanes>
MTPERF_INLINE void mc_exact_body(const McExactView& v) {
  constexpr std::size_t kChunk = kFixedLanes != 0 ? kFixedLanes : kLaneChunk;
  const std::size_t L = kFixedLanes != 0 ? kFixedLanes : v.lanes;
  const std::size_t S = kFixedLanes != 0 ? kFixedLanes : v.stride;
  const std::size_t K = v.k_count;
  const std::size_t chunks = L / kChunk;
  double tot_local[kChunk];
  double* __restrict tot = kFixedLanes != 0 ? tot_local : v.tot;
  for (std::size_t c = 0; c < v.c_count; ++c) {
    if (v.digits[c] == 0) continue;
    // Arrival theorem: class-c customers see the queue of n - e_c.
    const std::size_t prev = v.idx - v.lattice_stride[c];
    const double nc = static_cast<double>(v.digits[c]);
    std::fill(tot, tot + L, 0.0);
    for (std::size_t k = 0; k < K; ++k) {
      const double* __restrict dk = v.d[c] + k * S;
      double* __restrict rk = v.res + (c * K + k) * S;
      if (v.is_delay[k] == 0) {
        const double* __restrict qp = v.q + (prev * K + k) * S;
        for (std::size_t b = 0; b < chunks; ++b) {
          MTPERF_SIMD
          for (std::size_t i = 0; i < kChunk; ++i) {
            const std::size_t l = b * kChunk + i;
            const double wait = dk[l] * (1.0 + qp[l]);
            rk[l] = wait;
            tot[l] += wait;
          }
        }
      } else {
        for (std::size_t b = 0; b < chunks; ++b) {
          MTPERF_SIMD
          for (std::size_t i = 0; i < kChunk; ++i) {
            const std::size_t l = b * kChunk + i;
            rk[l] = dk[l];
            tot[l] += rk[l];
          }
        }
      }
    }
    const double* __restrict tc = v.think + c * S;
    double* __restrict rc = v.r + c * S;
    double* __restrict xc = v.x + c * S;
    for (std::size_t b = 0; b < chunks; ++b) {
      MTPERF_SIMD
      for (std::size_t i = 0; i < kChunk; ++i) {
        const std::size_t l = b * kChunk + i;
        rc[l] = tot[l];
        xc[l] = nc / (tc[l] + tot[l]);
      }
    }
  }
  for (std::size_t k = 0; k < K; ++k) {
    double* __restrict qk = v.q + (v.idx * K + k) * S;
    double q_local[kChunk];
    double* __restrict acc = kFixedLanes != 0 ? q_local : qk;
    std::fill(acc, acc + L, 0.0);
    for (std::size_t c = 0; c < v.c_count; ++c) {
      if (v.digits[c] == 0) continue;
      const double* __restrict xc = v.x + c * S;
      const double* __restrict rk = v.res + (c * K + k) * S;
      for (std::size_t b = 0; b < chunks; ++b) {
        MTPERF_SIMD
        for (std::size_t i = 0; i < kChunk; ++i) {
          const std::size_t l = b * kChunk + i;
          acc[l] += xc[l] * rk[l];
        }
      }
    }
    if constexpr (kFixedLanes != 0) std::copy(acc, acc + L, qk);
  }
}

MTPERF_ISA_CLONES void mc_exact_vector(const McExactView& v) {
  mc_exact_body<0>(v);
}

/// Shared lane validation and sizing: check the group contract the key
/// guarantees, size each lane's result, and return the group structure.
struct McBlockLayout {
  std::size_t k_count = 0;
  std::size_t c_count = 0;
  std::size_t axis = 0;
  std::vector<unsigned char> is_delay;  ///< per station
  unsigned depth_max = 1;          ///< deepest lane's axis population
  std::vector<unsigned> depth;     ///< per-lane axis population
  std::vector<unsigned> total;     ///< per-lane total mix population
};

McBlockLayout validate_block(SolverKind kind,
                             const std::vector<MulticlassBatchLane>& lanes,
                             std::vector<MvaResult>& results) {
  MTPERF_REQUIRE(batchable_multiclass_solver(kind),
                 "multiclass lockstep kernel only runs the series kinds");
  McBlockLayout layout;
  const ClosedNetwork& network = *lanes[0].network;
  const std::vector<CustomerClass>& first = *lanes[0].classes;
  layout.k_count = network.size();
  layout.c_count = first.size();
  layout.axis = multiclass_axis_class(first);
  layout.is_delay.reserve(layout.k_count);
  for (const Station& st : network.stations()) {
    layout.is_delay.push_back(st.kind == StationKind::kDelay ? 1 : 0);
  }
  layout.depth.resize(lanes.size());
  layout.total.resize(lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const MulticlassBatchLane& lane = lanes[l];
    MTPERF_REQUIRE(lane.network != nullptr && lane.classes != nullptr,
                   "multiclass batch lane needs a network and classes");
    validate_multiclass(*lane.network, *lane.classes);
    MTPERF_REQUIRE(same_station_structure(network, *lane.network),
                   "batch lanes must share station structure");
    const std::vector<CustomerClass>& classes = *lane.classes;
    MTPERF_REQUIRE(classes.size() == layout.c_count,
                   "multiclass batch lanes must share the class count");
    MTPERF_REQUIRE(multiclass_axis_class(classes) == layout.axis,
                   "multiclass batch lanes must share the axis class");
    for (std::size_t c = 0; c < layout.c_count; ++c) {
      if (c == layout.axis) continue;
      if (kind == SolverKind::kExactMulticlass) {
        MTPERF_REQUIRE(classes[c].population == first[c].population,
                       "exact multiclass lanes must share non-axis "
                       "populations (lattice strides must agree)");
      } else {
        MTPERF_REQUIRE((classes[c].population > 0) ==
                           (first[c].population > 0),
                       "multiclass batch lanes must share the class "
                       "activity pattern");
      }
    }
    if (kind == SolverKind::kSchweitzerMulticlass) {
      MTPERF_REQUIRE(lane.schweitzer.tolerance > 0.0,
                     "tolerance must be positive");
    } else {
      // The exact kind's one lattice guard, before any grid is tabulated.
      // The block's lattice is its deepest lane's own.
      MTPERF_REQUIRE(
          lattice_fits(classes, layout.k_count,
                       lanes.size() == 1 ? kMaxExactSpace
                                         : kMaxExactBatchSpace),
          "population-vector space too large for exact multi-class MVA; "
          "use mom-multiclass (constant demands) or schweitzer-multiclass");
    }
    layout.depth[l] = classes[layout.axis].population;
    layout.total[l] = multiclass_total_population(classes);
    layout.depth_max = std::max(layout.depth_max, layout.depth[l]);

    results[l].reset(lane.network->station_names(), layout.depth[l],
                     lane.rows);
    results[l].reset_classes(class_names_of(classes),
                             class_populations_of(classes));
    results[l].mc_axis = layout.axis;
  }
  return layout;
}

/// One MulticlassGrid per lane, tabulated to the lane's own total
/// population; the block owns them for its length.
std::vector<MulticlassGrid> tabulate_lane_grids(
    const McBlockLayout& layout,
    const std::vector<MulticlassBatchLane>& lanes) {
  std::vector<MulticlassGrid> grids;
  grids.reserve(lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    grids.emplace_back(*lanes[l].network, *lanes[l].classes, layout.total[l]);
  }
  return grids;
}

/// Padded live-lane prefix of a wide block at axis level `t`: every lane
/// with depth >= t must be covered.  plan_batch orders lanes by descending
/// depth, so the prefix is exactly the live set and shrinks as shallow
/// lanes retire; unsorted callers just compute some retired lanes
/// harmlessly (their demand rows are clamped to their own depth and their
/// rows are never assembled).
std::size_t live_prefix(const std::vector<unsigned>& depth, unsigned t) {
  std::size_t p = 0;
  for (std::size_t l = 0; l < depth.size(); ++l) {
    if (depth[l] >= t) p = l + 1;
  }
  return (p + kLaneChunk - 1) / kLaneChunk * kLaneChunk;
}

/// Strided gather of one slot's frozen level snapshot into the scratch the
/// shared assembly step reads.
void gather_lane_state(const McSchweitzerView& v, std::size_t slot,
                       MulticlassLevelState& s) {
  for (std::size_t c = 0; c < v.c_count; ++c) {
    s.x[c] = v.snap_x[c * v.stride + slot];
    s.r[c] = v.snap_r[c * v.stride + slot];
    for (std::size_t k = 0; k < v.k_count; ++k) {
      s.residence[c * v.k_count + k] =
          v.snap_res[(c * v.k_count + k) * v.stride + slot];
    }
  }
}

template <std::size_t kFixedLanes>
std::vector<MvaResult> solve_schweitzer_block(
    const McBlockLayout& layout, const std::vector<MulticlassBatchLane>& lanes,
    std::vector<MvaResult>& results) {
  constexpr bool kOneLane = kFixedLanes == 1;
  const std::size_t K = layout.k_count;
  const std::size_t C = layout.c_count;
  const std::size_t L = lanes.size();
  const std::size_t Lp = padded_lanes<kFixedLanes>(L);
  const std::size_t axis = layout.axis;
  const double k_double = static_cast<double>(K);
  const std::vector<MulticlassGrid> grids = tabulate_lane_grids(layout, lanes);

  // Inactive classes never compute (their queues stay exact zeros, their
  // x/r stay zero); the key guarantees the pattern is uniform across
  // lanes.
  std::vector<unsigned char> active(C, 0);
  for (std::size_t c = 0; c < C; ++c) {
    active[c] = (c == axis || (*lanes[0].classes)[c].population > 0) ? 1 : 0;
  }

  // Per-lane class data [c * L + l].  A non-axis class keeps its
  // population at every level, so its discount (n_c - 1)/n_c and its
  // even-spread start n_c / K (each class's customers split across the
  // stations) are worked out once.
  std::vector<unsigned> ipop(C * L, 0);
  std::vector<double> lane_think(C * L, 0.0);
  std::vector<double> lane_disc(C * L, 0.0);
  std::vector<double> lane_spread(C * L, 0.0);
  for (std::size_t l = 0; l < L; ++l) {
    const std::vector<CustomerClass>& classes = *lanes[l].classes;
    for (std::size_t c = 0; c < C; ++c) {
      const std::size_t at = c * L + l;
      ipop[at] = classes[c].population;
      lane_think[at] = classes[c].think_time;
      if (active[c] == 0 || c == axis) continue;
      const double nc = static_cast<double>(classes[c].population);
      lane_disc[at] = (nc - 1.0) / nc;
      lane_spread[at] = nc / k_double;
    }
  }

  // Fixed-point state, per slot [.. * Lp + s].  A one-lane block reads its
  // demand rows from its grid and iterates straight in the assembly
  // scratch, so it needs no gather, no snapshot and no state of its own.
  MulticlassLevelState scratch;
  scratch.resize(C, K);
  const std::size_t wide = kOneLane ? 0 : 1;
  std::vector<double> npop(C * Lp, 1.0);
  std::vector<double> think(C * Lp, 1.0);
  std::vector<double> disc(C * Lp, 0.0);
  std::vector<double> q(C * K * Lp, 0.0);
  std::vector<double> d(wide * C * K * Lp, 0.0);
  std::vector<double> res(wide * C * K * Lp, 0.0);
  std::vector<double> r(wide * C * Lp, 0.0), x(wide * C * Lp, 0.0);
  std::vector<double> snap_x(wide * C * Lp, 0.0), snap_r(wide * C * Lp, 0.0);
  std::vector<double> snap_res(wide * C * K * Lp, 0.0);
  std::vector<double> tol(Lp, 1.0);
  std::vector<unsigned> max_iter(Lp, 0), iters(Lp, 0);
  std::vector<const double*> d_rows(C);
  if constexpr (!kOneLane) {
    for (std::size_t c = 0; c < C; ++c) d_rows[c] = d.data() + c * K * Lp;
  }

  McSchweitzerView view;
  view.c_count = C;
  view.k_count = K;
  view.stride = Lp;
  view.is_delay = layout.is_delay.data();
  view.class_active = active.data();
  view.d = d_rows.data();
  view.npop = npop.data();
  view.think = think.data();
  view.disc = disc.data();
  view.q = q.data();
  view.res = kOneLane ? scratch.residence.data() : res.data();
  view.r = kOneLane ? scratch.r.data() : r.data();
  view.x = kOneLane ? scratch.x.data() : x.data();
  view.tol = tol.data();
  view.max_iter = max_iter.data();
  view.iters = iters.data();
  if constexpr (!kOneLane) {
    view.snap_x = snap_x.data();
    view.snap_r = snap_r.data();
    view.snap_res = snap_res.data();
  }

  // slot_lane[s] is the lane slot s runs this level.  A wide block fills
  // its slots with the live lanes in the order of their iteration counts
  // at the level before, most first, so each chunk holds lanes that
  // converge alike and stops iterating early.
  std::vector<std::size_t> slot_lane(L);
  for (std::size_t l = 0; l < L; ++l) slot_lane[l] = l;
  std::vector<unsigned> prev_iters(L, 0);
  std::size_t n = L;
  std::vector<unsigned> level_pops(C, 0);

  // Each axis level runs its own cold-started fixed point, so level t is
  // identical to solving every lane's shallower mix directly — the
  // property the cache's mix-prefix reuse requires (a warm start from
  // level t-1 would converge to the same point only approximately).
  for (unsigned t = 1; t <= layout.depth_max; ++t) {
    const double t_double = static_cast<double>(t);
    if constexpr (!kOneLane) {
      std::size_t live = 0;
      for (std::size_t s = 0; s < n; ++s) {
        if (layout.depth[slot_lane[s]] >= t) slot_lane[live++] = slot_lane[s];
      }
      n = live;
      for (std::size_t s = 1; s < n; ++s) {
        const std::size_t l = slot_lane[s];
        std::size_t at = s;
        for (; at > 0 && prev_iters[slot_lane[at - 1]] < prev_iters[l]; --at) {
          slot_lane[at] = slot_lane[at - 1];
        }
        slot_lane[at] = l;
      }
    }
    view.real_lanes = n;
    const double axis_disc = (t_double - 1.0) / t_double;
    const double axis_spread = t_double / k_double;

    // Load each slot's lane at level t: populations (the axis class at t),
    // think times, discounts, the cold start and the demands at the lane's
    // level-t total population.  Slots from n on are padding: inert at
    // first (population 1, think 1, zero demands: x = 1, q = 0), later
    // holding a retired lane's finite state; their rows are never read.
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t l = slot_lane[s];
      const unsigned total_n = layout.total[l] - layout.depth[l] + t;
      tol[s] = lanes[l].schweitzer.tolerance;
      max_iter[s] = lanes[l].schweitzer.max_iterations;
      for (std::size_t c = 0; c < C; ++c) {
        if (active[c] == 0) continue;
        const std::size_t at = c * L + l;
        const bool is_axis = c == axis;
        npop[c * Lp + s] = is_axis ? t_double : static_cast<double>(ipop[at]);
        think[c * Lp + s] = lane_think[at];
        disc[c * Lp + s] = is_axis ? axis_disc : lane_disc[at];
        const double spread = is_axis ? axis_spread : lane_spread[at];
        for (std::size_t k = 0; k < K; ++k) q[(c * K + k) * Lp + s] = spread;
        const double* row = grids[l].row(c, total_n);
        if constexpr (kOneLane) {
          d_rows[c] = row;
        } else {
          for (std::size_t k = 0; k < K; ++k) d[(c * K + k) * Lp + s] = row[k];
        }
      }
    }

    const std::size_t exhausted = kOneLane
                                      ? mc_schweitzer_body<double, 1>(view, 0)
                                      : mc_schweitzer_level(view);
    if (exhausted != static_cast<std::size_t>(-1)) {
      throw numeric_error(
          "multi-class Schweitzer MVA did not converge at axis population " +
          std::to_string(t) + " after " +
          std::to_string(
              lanes[slot_lane[exhausted]].schweitzer.max_iterations) +
          " iterations");
    }
    // Assemble each lane's row from the state it converged with.
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t l = slot_lane[s];
      results[l].mc_iterations = std::max(results[l].mc_iterations, iters[s]);
      prev_iters[l] = iters[s];
      if constexpr (!kOneLane) gather_lane_state(view, s, scratch);
      const unsigned total_n = layout.total[l] - layout.depth[l] + t;
      for (std::size_t c = 0; c < C; ++c) {
        scratch.demand_rows[c] = grids[l].row(c, total_n);
        level_pops[c] = c == axis ? t : ipop[c * L + l];
      }
      assemble_multiclass_level(results[l], t - 1, *lanes[l].classes,
                                level_pops, scratch);
    }
  }
  return std::move(results);
}

template <std::size_t kFixedLanes>
std::vector<MvaResult> solve_exact_block(
    const McBlockLayout& layout, const std::vector<MulticlassBatchLane>& lanes,
    std::vector<MvaResult>& results) {
  constexpr bool kOneLane = kFixedLanes == 1;
  const std::size_t K = layout.k_count;
  const std::size_t C = layout.c_count;
  const std::size_t L = lanes.size();
  const std::size_t Lp = padded_lanes<kFixedLanes>(L);
  const std::size_t axis = layout.axis;

  // Group lattice: non-axis radices are shared (validate_block pinned
  // them), the axis radix is the deepest lane's depth — exactly the
  // deepest lane's own lattice, which validate_block guarded.  Mixed-radix
  // strides, class 0 fastest.
  std::vector<unsigned> radix_pop = class_populations_of(*lanes[0].classes);
  radix_pop[axis] = layout.depth_max;
  std::vector<std::size_t> stride(C);
  std::size_t states = 1;
  for (std::size_t c = 0; c < C; ++c) {
    stride[c] = states;
    states *= static_cast<std::size_t>(radix_pop[c]) + 1;
  }

  const std::vector<MulticlassGrid> grids = tabulate_lane_grids(layout, lanes);

  // A wide block transposes its demand rows lane-major per total
  // population up front (a fresh gather per lattice vector would double
  // the sweep's memory traffic); rows past a lane's own total clamp to its
  // deepest row, read only while that lane computes retired garbage.  A
  // one-lane block reads its grid rows in place.
  const unsigned group_total_max =
      kOneLane ? 0
               : *std::max_element(layout.total.begin(), layout.total.end()) -
                     *std::min_element(layout.depth.begin(),
                                       layout.depth.end()) +
                     layout.depth_max;
  std::vector<double> dt(static_cast<std::size_t>(group_total_max) * C * K * Lp,
                         0.0);
  std::vector<double> think(C * Lp, 1.0);
  for (std::size_t l = 0; l < L; ++l) {
    const std::vector<CustomerClass>& classes = *lanes[l].classes;
    for (std::size_t c = 0; c < C; ++c) {
      think[c * Lp + l] = classes[c].think_time;
      for (unsigned n = 1; n <= group_total_max; ++n) {
        const double* row =
            grids[l].row(c, std::min<unsigned>(n, layout.total[l]));
        double* slot = dt.data() +
                       (static_cast<std::size_t>(n - 1) * C + c) * K * Lp;
        for (std::size_t k = 0; k < K; ++k) {
          slot[k * Lp + l] = row[k];
        }
      }
    }
  }

  // Lane-major lattice and per-vector state; a one-lane block computes
  // each vector straight in the assembly scratch.
  MulticlassLevelState scratch;
  scratch.resize(C, K);
  const std::size_t wide = kOneLane ? 0 : 1;
  std::vector<double> q(states * K * Lp, 0.0);
  std::vector<double> res(wide * C * K * Lp, 0.0);
  std::vector<double> r(wide * C * Lp, 0.0), x(wide * C * Lp, 0.0);
  std::vector<double> tot(wide * Lp, 0.0);
  std::vector<const double*> d_rows(C);
  // A one-lane block's class-c row at total population n starts at
  // row_base[c] + (n - 1) * row_step[c] (MulticlassGrid::row with its
  // lookups hoisted, so each vector costs one multiply-add per class).
  std::vector<const double*> row_base(wide == 0 ? C : 0);
  std::vector<std::size_t> row_step(wide == 0 ? C : 0);
  for (std::size_t c = 0; c < row_base.size(); ++c) {
    row_base[c] = grids[0].row(c, 1);
    row_step[c] = grids[0].row_stride(c);
  }

  McExactView view;
  view.c_count = C;
  view.k_count = K;
  view.lanes = Lp;
  view.stride = Lp;
  view.is_delay = layout.is_delay.data();
  view.lattice_stride = stride.data();
  view.d = d_rows.data();
  view.think = think.data();
  view.q = q.data();
  view.res = kOneLane ? scratch.residence.data() : res.data();
  view.r = kOneLane ? scratch.r.data() : r.data();
  view.x = kOneLane ? scratch.x.data() : x.data();
  view.tot = tot.data();

  std::vector<unsigned> n(C, 0);
  std::vector<unsigned> level_pops(C, 0);
  view.digits = n.data();

  // The lexicographic sweep varies class 0 fastest, so the axis class (the
  // last active class) is the slowest digit: the lattice advances through
  // axis populations in increasing order, vectors with every non-axis
  // class at full strength appear once per axis value (each one is a
  // result level), and a wide block's live-lane prefix shrinks as the axis
  // digit passes shallower lanes' depths (their recursion is complete —
  // reads only look down the lattice within the current prefix).
  const auto next_vector = [&]() {
    for (std::size_t c = 0; c < C; ++c) {
      if (n[c] < radix_pop[c]) {
        ++n[c];
        return true;
      }
      n[c] = 0;
    }
    return false;
  };

  while (next_vector()) {
    std::size_t idx = 0;
    unsigned total_n = 0;
    for (std::size_t c = 0; c < C; ++c) {
      idx += n[c] * stride[c];
      total_n += n[c];
    }
    view.idx = idx;
    if constexpr (kOneLane) {
      for (std::size_t c = 0; c < C; ++c) {
        d_rows[c] = row_base[c] + (total_n - 1) * row_step[c];
      }
      mc_exact_body<1>(view);
    } else {
      const double* slot =
          dt.data() + static_cast<std::size_t>(total_n - 1) * C * K * Lp;
      for (std::size_t c = 0; c < C; ++c) d_rows[c] = slot + c * K * Lp;
      view.lanes = live_prefix(layout.depth, n[axis]);
      mc_exact_vector(view);
    }

    bool at_level = n[axis] >= 1;
    for (std::size_t c = 0; c < C && at_level; ++c) {
      if (c != axis && n[c] != radix_pop[c]) at_level = false;
    }
    if (!at_level) continue;
    for (std::size_t l = 0; l < L; ++l) {
      if (layout.depth[l] < n[axis]) continue;
      for (std::size_t c = 0; c < C; ++c) {
        if constexpr (!kOneLane) {
          scratch.x[c] = x[c * Lp + l];
          scratch.r[c] = r[c * Lp + l];
          for (std::size_t k = 0; k < K; ++k) {
            scratch.residence[c * K + k] = res[(c * K + k) * Lp + l];
          }
        }
        scratch.demand_rows[c] = grids[l].row(c, total_n);
        level_pops[c] = n[c];
      }
      // Classes idle in the whole mix never compute: their x and r are 0.
      for (std::size_t c = 0; c < C; ++c) {
        if (n[c] == 0) {
          scratch.x[c] = 0.0;
          scratch.r[c] = 0.0;
        }
      }
      assemble_multiclass_level(results[l], n[axis] - 1, *lanes[l].classes,
                                level_pops, scratch);
    }
  }
  return std::move(results);
}

}  // namespace

bool batchable_multiclass_solver(SolverKind kind) {
  return kind == SolverKind::kExactMulticlass ||
         kind == SolverKind::kSchweitzerMulticlass;
}

bool multiclass_batchable(const ScenarioSpec& spec) {
  if (!batchable_multiclass_solver(spec.options.solver)) return false;
  const std::vector<CustomerClass>& classes = spec.options.classes;
  if (classes.empty()) return false;
  bool any = false;
  for (const auto& cls : classes) any = any || cls.population > 0;
  if (!any) return false;
  // The facade's axis-depth invariant: a spec that violates it belongs on
  // the scalar path, where solve() raises the canonical error.
  const std::size_t axis = multiclass_axis_class(classes);
  if (spec.options.max_population != classes[axis].population) return false;
  return spec.options.solver != SolverKind::kExactMulticlass ||
         lattice_fits(classes, spec.network.size(), kMaxExactBatchSpace);
}

std::string multiclass_batch_key(const ScenarioSpec& spec) {
  const std::vector<CustomerClass>& classes = spec.options.classes;
  const std::size_t axis = multiclass_axis_class(classes);
  std::string key;
  key.reserve(2 + spec.network.size() * 5 + 10 + classes.size() * 6);
  key.push_back(static_cast<char>(spec.options.solver));
  append_station_key(key, spec.network);
  append_u32(key, static_cast<unsigned>(classes.size()));
  append_u32(key, static_cast<unsigned>(axis));
  for (std::size_t c = 0; c < classes.size(); ++c) {
    key.push_back(class_shape(classes[c]));
    if (c == axis) continue;  // axis depth is per-lane data (ragged batches)
    if (spec.options.solver == SolverKind::kExactMulticlass) {
      append_u32(key, classes[c].population);
    } else {
      key.push_back(classes[c].population > 0 ? '1' : '0');
    }
  }
  return key;
}

std::vector<MvaResult> solve_multiclass_lane_block(
    SolverKind kind, const std::vector<MulticlassBatchLane>& lanes) {
  MTPERF_REQUIRE(!lanes.empty(), "batched solve needs at least one lane");
  std::vector<MvaResult> results(lanes.size());
  const McBlockLayout layout = validate_block(kind, lanes, results);
  const bool one = lanes.size() == 1;
  if (kind == SolverKind::kExactMulticlass) {
    return one ? solve_exact_block<1>(layout, lanes, results)
               : solve_exact_block<0>(layout, lanes, results);
  }
  return one ? solve_schweitzer_block<1>(layout, lanes, results)
             : solve_schweitzer_block<0>(layout, lanes, results);
}

}  // namespace mtperf::core::detail
