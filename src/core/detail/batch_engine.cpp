#include "core/detail/batch_engine.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "common/error.hpp"
#include "core/detail/lane_block.hpp"
#include "core/detail/multiclass_batch_engine.hpp"

namespace mtperf::core::detail {

// Implementation note — the recursion and its paper fidelity.
//
// The paper's Algorithm 2/3 pseudocode stores marginal queue-size
// probabilities in a 1-shifted array p_k(1..C_k) and updates them in place.
// Transcribed literally, that recursion is inconsistent with the exact
// multi-server MVA of the reference it cites ([8], Reiser's algorithm as
// popularized by Menascé et al.): the (C_k - j) weights are missing from
// the empty-queue update, the j-th entry divides by j instead of j-1 after
// the shift, and the in-place order makes p_k(2) read the *new* p_k(1).
// Under load (X S_k approaching C_k) the literal recursion diverges to
// negative response times.  This kernel implements the canonical recursion
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
// Single-server stations use R_k = S_k (1 + Q_k(n-1)) and delay stations
// R_k = S_k; neither keeps marginals.  A station at or past saturation
// (X V S >= C) zeroes its marginals, the exact asymptote; below it the
// update projects back onto the idle-server identity (update_level).
//
// Implementation note — lanes.  A block runs the recursion for many
// scenarios ("lanes") at once.  Lanes are independent recursions, so
// vectorizing across them reorders nothing within a lane: a lane's bits do
// not depend on the block it runs in (Mvasd.Golden* pins a one-lane block
// and lanes of a ragged 16-lane block to the same literals).
//
// The one deliberate deviation from the plain recurrence: subnormal
// marginal stores are flushed to exact zero.  A subnormal P_k(j) is below
// 2^-1022 while the sums it feeds
// — the correction term F, the weighted tail, the probabilities' own
// normalization — are on the order of P_k(0..j*) which the same
// distribution keeps near 1/C_k or larger whenever a tail slot can
// underflow (tails only underflow when the distribution is concentrated
// far below C_k).  The flushed slot therefore sits below half an ulp of
// every exported quantity, and dropping it leaves throughput, residence,
// queue, and utilization bit-identical; what it buys is that the
// underflowed tail stops propagating (zero operands instead of denormal
// assists) and stays out of the clamped support walk below.
//
// Hot-loop shape: the lane dimension is padded to a multiple of kLaneChunk
// and every inner loop runs over a compile-time kLaneChunk-wide chunk with
// unit stride and restrict-qualified pointers.  The constant trip count
// lets the compiler unroll each chunk into a couple of vector ops with no
// prologue/epilogue; at 16-lane blocks a runtime trip count spends more
// cycles on loop setup than on the math.  The two per-level hot functions
// are cloned per ISA (see MTPERF_ISA_CLONES) so a portable binary still
// runs 4- or 8-wide on AVX2/AVX-512 hosts; the chunk, the padding rule and
// the clone attribute are lane_block.hpp's, shared with the multiclass
// kernel.  A one-lane block instantiates the same bodies with the lane
// count fixed at 1 at compile time: no padding, no lane loops, and the
// level's rows written straight into the result, since a one-lane window
// already has the result's row layout.
// This file is compiled with -ffp-contract=off (see src/core/CMakeLists.txt):
// no clone may contract a*b+c into an FMA, because every ISA the
// dispatcher can pick, and the one-lane instantiation, must round alike.

namespace {

/// Levels of staged output rows flushed to the per-lane results at once.
/// The recursion writes its per-population rows into a lane-major staging
/// window (one contiguous write stream) and transposes a whole window per
/// lane in one pass — interleaving transposed writes to every lane's
/// result each population turns out to be the kernel's dominant cost (3 SoA
/// arrays x L lanes of concurrent write streams defeat the cache).
constexpr std::size_t kLevelWindow = 64;

/// True when 1/d is exactly representable, i.e. d is a power of two.  Then
/// x / d == x * (1/d) bit-for-bit for every x (the quotient is just an
/// exponent shift, exact in IEEE-754 for multiply and divide alike), so the
/// kernel may replace the division without changing a bit.  MVA divisors
/// are small positive integers — server counts and occupancy indices — so
/// this fires for C_k in {1, 2, 4, 8, 16, 32, ...} and for marginal indices
/// j in {1, 2, 4, 8, ...}, which is most of the recursion's division budget
/// (divides are an order of magnitude slower than multiplies and are what
/// the lockstep inner loops otherwise spend their time on).
bool exact_reciprocal(double d) {
  int exponent = 0;
  return d > 0.0 && std::frexp(d, &exponent) == 0.5;
}

/// One station's structure, shared by every lane of a group (station
/// structs carry their name, so iterating network.station(k) would stride
/// over strings).
struct StationShape {
  unsigned servers = 1;
  bool delay = false;
  /// 1 / C is exact (see exact_reciprocal), so x / C == x * inv_cap.
  bool cap_pow2 = false;
  double cap = 1.0;  ///< C as double
  double inv_cap = 1.0;
  /// Marginal slots: station k's P_k(j) lane vectors live at
  /// [p_offset, p_offset + slots) — C_k slots for a multi-server queue,
  /// none for delay and single-server stations (the recursion never reads
  /// their marginals).
  std::size_t p_offset = 0;
  std::size_t slots = 0;
};

/// The first lane's station structure, which every lane of a block shares
/// (same_station_structure).
struct GroupStructure {
  std::vector<StationShape> shape;
  std::size_t slots = 0;  ///< total marginal slots
  unsigned max_servers = 1;

  explicit GroupStructure(const ClosedNetwork& network)
      : shape(network.size()) {
    for (std::size_t k = 0; k < shape.size(); ++k) {
      const Station& st = network.station(k);
      StationShape& sh = shape[k];
      sh.servers = st.servers;
      sh.delay = st.kind == StationKind::kDelay;
      sh.cap = static_cast<double>(st.servers);
      sh.inv_cap = 1.0 / sh.cap;
      sh.cap_pow2 = exact_reciprocal(sh.cap);
      sh.p_offset = slots;
      sh.slots = st.servers > 1 && !sh.delay ? st.servers : 0;
      slots += sh.slots;
      max_servers = std::max(max_servers, st.servers);
    }
  }
};

/// Pointer view of one population level's lockstep state, shared by the
/// hot functions below.  `lanes` is the lane stride of every array: a
/// multiple of kLaneChunk, or 1 in a one-lane block.
struct LevelView {
  std::size_t k_count = 0;
  std::size_t lanes = 0;
  const StationShape* shape = nullptr;
  const double* s_now = nullptr;
  const double* visits = nullptr;
  /// Occupancy tables indexed by j in [1, max servers]: 1.0 / j and
  /// whether that reciprocal is exact (j a power of two), hoisted out of
  /// the marginal sweep.
  const double* inv_occ = nullptr;
  const unsigned char* occ_pow2 = nullptr;
  /// Per-station support high-water: the largest occupancy j whose P_k(j)
  /// is nonzero in any lane.  Slots above it are exact zeros, so both
  /// marginal sweeps clamp to it — the support can only grow by one slot
  /// per population level (P_k(j) at level n is built from P_k(j-1) at
  /// level n-1) and it stalls where the tail underflows, which at large
  /// server counts leaves most of the occupancy range permanently zero.
  /// update_level maintains it.
  std::size_t* occ_support = nullptr;
  double* queue = nullptr;
  /// This level's outputs: residences, total residence R, throughput X and
  /// utilizations.  They point into the staging window, or straight into
  /// the result in a one-lane block.
  double* residence = nullptr;
  double* total = nullptr;
  double* x = nullptr;
  double* util = nullptr;
  double* p = nullptr;
  double* f = nullptr;
  double* xs = nullptr;
  double* wtail = nullptr;
};

/// Residence sweep (Eq. 10/11): stations ascending; each station's branch
/// is taken once for all lanes.  kFixedLanes is the block's compile-time
/// lane count (1 for a one-lane block), or 0 for a runtime count padded to
/// kLaneChunk.
template <std::size_t kFixedLanes>
MTPERF_INLINE void residence_body(const LevelView& v) {
  constexpr std::size_t kChunk = kFixedLanes != 0 ? kFixedLanes : kLaneChunk;
  const std::size_t L = kFixedLanes != 0 ? kFixedLanes : v.lanes;
  const std::size_t chunks = L / kChunk;
  // A fixed-width block accumulates in locals the compiler keeps in
  // registers; a runtime-width block in the view's lane vectors.
  double tot_local[kChunk];
  double f_local[kChunk];
  double* __restrict tot = kFixedLanes != 0 ? tot_local : v.total;
  std::fill(tot, tot + L, 0.0);
  for (std::size_t k = 0; k < v.k_count; ++k) {
    const double* __restrict sk = v.s_now + k * L;
    const double* __restrict qk = v.queue + k * L;
    const double* __restrict vk = v.visits + k * L;
    double* __restrict rk = v.residence + k * L;
    const StationShape& sh = v.shape[k];
    if (sh.delay) {
      for (std::size_t b = 0; b < chunks; ++b) {
        MTPERF_SIMD
        for (std::size_t i = 0; i < kChunk; ++i) {
          const std::size_t l = b * kChunk + i;
          const double wait = sk[l];
          rk[l] = vk[l] * wait;
          tot[l] += rk[l];
        }
      }
    } else if (sh.servers == 1) {
      for (std::size_t b = 0; b < chunks; ++b) {
        MTPERF_SIMD
        for (std::size_t i = 0; i < kChunk; ++i) {
          const std::size_t l = b * kChunk + i;
          const double wait = sk[l] * (1.0 + qk[l]);
          rk[l] = vk[l] * wait;
          tot[l] += rk[l];
        }
      }
    } else {
      const double c = sh.cap;
      const double* __restrict pk = v.p + sh.p_offset * L;
      double* __restrict fl = kFixedLanes != 0 ? f_local : v.f;
      std::fill(fl, fl + L, 0.0);
      // Occupancy-outer: all lane chunks advance together through the
      // j-walk, so their dependency chains interleave and hide each
      // other's latency (chunk-outer order serializes them and measures
      // 20-50% slower).  Slots above the support high-water are exact
      // zeros — skipping them adds nothing to f and is bit-exact.
      const unsigned j_end = static_cast<unsigned>(
          std::min<std::size_t>(sh.servers - 1, v.occ_support[k] + 1));
      // The weights C - 1 - j are small integers, exact in a running
      // double (no int-to-double conversion per slot).
      double w = c - 1.0;
      for (unsigned j = 0; j < j_end; ++j, w -= 1.0) {
        const double* __restrict pj = pk + j * L;
        for (std::size_t b = 0; b < chunks; ++b) {
          MTPERF_SIMD
          for (std::size_t i = 0; i < kChunk; ++i) {
            const std::size_t l = b * kChunk + i;
            fl[l] += w * pj[l];
          }
        }
      }
      // Divides dominate the lockstep loops; when c is a power of two the
      // reciprocal multiply is bit-identical (see exact_reciprocal).
      if (sh.cap_pow2) {
        const double inv_c = sh.inv_cap;
        for (std::size_t b = 0; b < chunks; ++b) {
          MTPERF_SIMD
          for (std::size_t i = 0; i < kChunk; ++i) {
            const std::size_t l = b * kChunk + i;
            const double wait = sk[l] * inv_c * (1.0 + qk[l] + fl[l]);
            rk[l] = vk[l] * wait;
            tot[l] += rk[l];
          }
        }
      } else {
        for (std::size_t b = 0; b < chunks; ++b) {
          MTPERF_SIMD
          for (std::size_t i = 0; i < kChunk; ++i) {
            const std::size_t l = b * kChunk + i;
            const double wait = sk[l] / c * (1.0 + qk[l] + fl[l]);
            rk[l] = vk[l] * wait;
            tot[l] += rk[l];
          }
        }
      }
    }
  }
  if constexpr (kFixedLanes != 0) std::copy(tot, tot + L, v.total);
}

/// Update sweep: queues, utilizations, marginal distributions.
template <std::size_t kFixedLanes>
MTPERF_INLINE void update_body(const LevelView& v) {
  constexpr std::size_t kChunk = kFixedLanes != 0 ? kFixedLanes : kLaneChunk;
  const std::size_t L = kFixedLanes != 0 ? kFixedLanes : v.lanes;
  const std::size_t chunks = L / kChunk;
  const double* __restrict xl = v.x;
  for (std::size_t k = 0; k < v.k_count; ++k) {
    const double* __restrict sk = v.s_now + k * L;
    const double* __restrict vk = v.visits + k * L;
    const double* __restrict rk = v.residence + k * L;
    double* __restrict qk = v.queue + k * L;
    double* __restrict uk = v.util + k * L;
    const StationShape& sh = v.shape[k];
    const double c = sh.cap;
    const bool c_pow2 = sh.cap_pow2;
    const double inv_c = sh.inv_cap;
    if (c_pow2) {
      for (std::size_t b = 0; b < chunks; ++b) {
        MTPERF_SIMD
        for (std::size_t i = 0; i < kChunk; ++i) {
          const std::size_t l = b * kChunk + i;
          qk[l] = xl[l] * rk[l];
          uk[l] = xl[l] * vk[l] * sk[l] * inv_c;
        }
      }
    } else {
      for (std::size_t b = 0; b < chunks; ++b) {
        MTPERF_SIMD
        for (std::size_t i = 0; i < kChunk; ++i) {
          const std::size_t l = b * kChunk + i;
          qk[l] = xl[l] * rk[l];
          uk[l] = xl[l] * vk[l] * sk[l] / c;
        }
      }
    }
    if (sh.slots == 0) continue;

    const unsigned servers = sh.servers;
    double* __restrict pk = v.p + sh.p_offset * L;
    double xs_local[kChunk];
    double wt_local[kChunk];
    double* __restrict xsl = kFixedLanes != 0 ? xs_local : v.xs;
    double* __restrict wt = kFixedLanes != 0 ? wt_local : v.wtail;
    const double* __restrict inv_occ = v.inv_occ;
    const unsigned char* __restrict occ_pow2 = v.occ_pow2;
    for (std::size_t b = 0; b < chunks; ++b) {
      MTPERF_SIMD
      for (std::size_t i = 0; i < kChunk; ++i) {
        const std::size_t l = b * kChunk + i;
        xsl[l] = xl[l] * vk[l] * sk[l];  // expected busy servers
        wt[l] = 0.0;
      }
    }
    // In-place update, highest occupancy first: writing j reads the
    // previous population's j-1 lane vector, which this descending sweep
    // has not yet overwritten.  The divide by j and the single-accumulator
    // weighted tail are part of the pinned arithmetic: near saturation the
    // recursion is ill-conditioned enough that any reassociation moves
    // bits.  Occupancy-outer keeps the chunks' divide chains interleaved
    // (see residence_body).
    //
    // The walk is clamped to one slot above the support high-water — every
    // deeper slot reads a zero and writes a zero, so skipping it is exact.
    // Stores flush subnormals to zero (see the implementation note): the
    // slot's contribution to every sum it can ever reach is below half an
    // ulp of that sum, so no exported value changes, and the tail stops
    // burning denormal assists and stops growing.
    const unsigned j_top = static_cast<unsigned>(std::min<std::size_t>(
        servers - 1, v.occ_support[k] + 1));
    constexpr double kTiny = std::numeric_limits<double>::min();
    double dj = static_cast<double>(j_top);
    for (unsigned j = j_top; j >= 1; --j, dj -= 1.0) {
      const double w = c - dj;
      double* __restrict pj = pk + j * L;
      const double* __restrict pjm1 = pk + (j - 1) * L;
      // A one-lane block always divides: both forms give the same bits, and
      // in a scalar loop the table lookup and branch cost more than the
      // divide they save.
      if (kFixedLanes != 1 && occ_pow2[j] != 0) {
        const double inv_j = inv_occ[j];
        for (std::size_t b = 0; b < chunks; ++b) {
          MTPERF_SIMD
          for (std::size_t i = 0; i < kChunk; ++i) {
            const std::size_t l = b * kChunk + i;
            const double t = xsl[l] * pjm1[l] * inv_j;
            pj[l] = t >= kTiny ? t : 0.0;
            wt[l] += w * pj[l];
          }
        }
      } else {
        for (std::size_t b = 0; b < chunks; ++b) {
          MTPERF_SIMD
          for (std::size_t i = 0; i < kChunk; ++i) {
            const std::size_t l = b * kChunk + i;
            const double t = xsl[l] * pjm1[l] / dj;
            pj[l] = t >= kTiny ? t : 0.0;
            wt[l] += w * pj[l];
          }
        }
      }
    }
    // Saturation clamps are rare per-lane branches; they run scalar over
    // the (strided) lane column.  Lanes at or past saturation were updated
    // above and are overwritten here with the exact asymptote: queueing
    // dominates, the correction vanishes (R -> (S/C)(1 + Q)), and zeroing
    // the marginals avoids the recursion's instability.
    //
    // Below saturation, exact arithmetic maintains the idle-server identity
    //   C p(0) + sum_j (C-j) p(j) = C - xs;
    // in floating point the recursion is known to drift near saturation
    // (negative p(0), unbounded mass).  Project back onto the identity:
    // rescale the tail when it alone exceeds the idle budget, otherwise
    // solve for p(0) exactly.
    for (std::size_t l = 0; l < L; ++l) {
      if (xsl[l] >= c) {
        for (unsigned j = 0; j < servers; ++j) pk[j * L + l] = 0.0;
        continue;
      }
      const double idle = c - xsl[l];
      if (wt[l] > idle && wt[l] > 0.0) {
        const double scale = idle / wt[l];
        for (unsigned j = 1; j < servers; ++j) pk[j * L + l] *= scale;
        pk[l] = 0.0;
      } else {
        const double head = idle - wt[l];
        pk[l] = c_pow2 ? head * inv_c : head / c;
      }
    }
    // Re-establish the support high-water: highest occupancy with any
    // nonzero lane.  The walk starts at j_top (nothing above it was
    // touched) and usually stops within a slot or two.
    std::size_t support = 0;
    for (unsigned j = j_top; j >= 1; --j) {
      bool any = false;
      for (std::size_t l = 0; l < L; ++l) any = any || pk[j * L + l] != 0.0;
      if (any) {
        support = j;
        break;
      }
    }
    v.occ_support[k] = support;
  }
}

MTPERF_ISA_CLONES void residence_level(const LevelView& v) {
  residence_body<0>(v);
}

MTPERF_ISA_CLONES void update_level(const LevelView& v) {
  update_body<0>(v);
}

/// How one lane reads its demands, from the grid the block tabulates for
/// it: tabulated lanes read its rows directly (stride 0 collapses constant
/// models to one shared row); throughput-axis lanes (base null) evaluate
/// through its eval_into, whose monotone cursors make the per-step lookup
/// amortized O(1).
struct LaneDemands {
  LaneDemands(const DemandModel& model, unsigned max_population)
      : grid(model, max_population),
        base(grid.tabulated() ? grid.data() : nullptr),
        stride(grid.tabulated() ? grid.row_stride() : 0) {}
  DemandGrid grid;
  const double* base;
  std::size_t stride;
};

/// Solve one block: kFixedLanes = 1 for a one-lane block, 0 for a runtime
/// lane count padded to kLaneChunk.
template <std::size_t kFixedLanes>
std::vector<MvaResult> solve_block(const std::vector<BatchLane>& lanes) {
  constexpr bool kOneLane = kFixedLanes == 1;
  const GroupStructure st(*lanes[0].network);
  const std::size_t K = st.shape.size();
  const std::size_t L = lanes.size();
  // Lane stride: the recursion runs over all Lp lanes with compile-time
  // chunk-wide inner loops; lanes in [L, Lp) are inert padding (zero
  // demands and visits, unit think), never flushed.
  const std::size_t Lp = padded_lanes<kFixedLanes>(L);

  // Validate the group contract, tabulate each lane's demands and size its
  // result.  A lane's grid is allocated before its result: the grids die
  // with the block while the results live on in the scenario cache, so
  // this order leaves the grids' memory inside the heap for the next block
  // to reuse.  Grids allocated after the results sit at the top of the
  // heap, which the allocator hands back to the system when they are
  // freed, and every block faults them in again (cold serving traffic
  // measured about 6 minor faults per request that way, against 0.3).
  std::vector<MvaResult> results(L);
  std::vector<LaneDemands> demand;
  demand.reserve(L);
  unsigned n_max = 1;
  bool any_all_rows = false;  // some lane keeps queue and residence rows
  bool any_trace = false;
  for (std::size_t l = 0; l < L; ++l) {
    const BatchLane& lane = lanes[l];
    MTPERF_REQUIRE(lane.network != nullptr && lane.demands != nullptr,
                   "batch lane needs a network and a demand model");
    MTPERF_REQUIRE(same_station_structure(*lanes[0].network, *lane.network),
                   "batch lanes must share station structure");
    MTPERF_REQUIRE(lane.demands->stations() == K,
                   "demand model width must match station count");
    MTPERF_REQUIRE(lane.max_population >= 1, "population must be at least 1");
    n_max = std::max(n_max, lane.max_population);
    demand.emplace_back(*lane.demands, lane.max_population);
    results[l].reset(lane.network->station_names(), lane.max_population,
                     lane.rows);
    any_all_rows = any_all_rows || lane.rows == StationRows::kAll;
    if (lane.trace != nullptr) {
      const std::size_t k = lane.trace->station;
      MTPERF_REQUIRE(k < K, "trace station out of range");
      MTPERF_REQUIRE(st.shape[k].slots != 0,
                     "trace station '" + lane.network->station(k).name +
                         "' keeps no marginal distribution (only "
                         "multi-server queueing stations have one)");
      lane.trace->rows.clear();
      lane.trace->rows.reserve(lane.max_population);
      any_trace = true;
    }
  }

  const unsigned max_servers = st.max_servers;
  std::vector<unsigned char> occ_pow2(max_servers + 1, 0);
  // At population 0 every marginal distribution is the point mass P_k(0).
  std::vector<std::size_t> occ_support(K, 0);

  // Lane-major state, quantity[k * Lp + l], and the staging windows (wide
  // blocks only), carved out of one zeroed allocation.  The batch
  // dimension is contiguous, so the lane loops in the per-level hot
  // functions are unit-stride.
  //
  // Staged output rows are lane-major and kLevelWindow levels deep; the
  // flush transposes a window into each lane's result, one lane at a
  // time.  Window slot w holds level win_start + w; each lane is trimmed
  // to its own population, so lanes running past their depth (and padding
  // lanes) stage rows that simply never reach a result.
  // queue is not staged: queue == x * residence is the recursion's own
  // update expression, so recomputing it lane-by-lane at flush time from
  // the staged throughput and residence is bit-identical and saves a third
  // of the staging traffic.  Residences are staged only when some lane
  // keeps them; utilization-only lanes flush their utilization rows alone.
  const std::size_t kl = K * Lp;
  const std::size_t window = kOneLane ? 0 : kLevelWindow;
  const std::size_t r_window = any_all_rows ? window * kl : 0;
  std::vector<double> arena(4 * kl + K + st.slots * Lp + 5 * Lp +
                            (max_servers + 1) + r_window + window * kl +
                            2 * window * Lp);
  double* next = arena.data();
  const auto carve = [&next](std::size_t count) {
    double* const at = next;
    next += count;
    return at;
  };
  double* const queue = carve(kl);
  double* const residence = carve(kl);
  double* const s_now = carve(kl);
  double* const visits = carve(kl);
  double* const scratch = carve(K);
  double* const p = carve(st.slots * Lp);
  double* const think = carve(Lp);
  double* const x_prev = carve(Lp);
  double* const f = carve(Lp);
  double* const xs = carve(Lp);
  double* const wtail = carve(Lp);
  double* const inv_occ = carve(max_servers + 1);
  double* const r_hist = carve(r_window);
  double* const u_hist = carve(window * kl);
  double* const x_hist = carve(window * Lp);
  double* const rt_hist = carve(window * Lp);
  for (unsigned j = 1; j <= max_servers; ++j) {
    inv_occ[j] = 1.0 / static_cast<double>(j);
    occ_pow2[j] = exact_reciprocal(static_cast<double>(j)) ? 1 : 0;
  }

  LevelView view;
  view.k_count = K;
  view.lanes = Lp;
  view.shape = st.shape.data();
  view.s_now = s_now;
  view.visits = visits;
  view.inv_occ = inv_occ;
  view.occ_pow2 = occ_pow2.data();
  view.occ_support = occ_support.data();
  view.queue = queue;
  view.residence = residence;
  view.p = p;
  view.f = f;
  view.xs = xs;
  view.wtail = wtail;

  std::size_t win_start = 0;  // first level staged in the current window
  const auto flush_window = [&](std::size_t up_to_level) {
    for (std::size_t l = 0; l < L; ++l) {
      const std::size_t lane_end = std::min<std::size_t>(
          up_to_level, lanes[l].max_population);
      MvaResult& r = results[l];
      const bool all_rows = r.station_rows == StationRows::kAll;
      const double lane_think = think[l];
      for (std::size_t level = win_start; level < lane_end; ++level) {
        const std::size_t w = level - win_start;
        const double x_at = x_hist[w * Lp + l];
        r.throughput[level] = x_at;
        r.response_time[level] = rt_hist[w * Lp + l];
        r.cycle_time[level] = rt_hist[w * Lp + l] + lane_think;
        const double* __restrict uh = u_hist + w * kl + l;
        double* __restrict ur = r.utilization_row(level);
        if (!all_rows) {
          for (std::size_t k = 0; k < K; ++k) ur[k] = uh[k * Lp];
          continue;
        }
        const double* __restrict rh = r_hist + w * kl + l;
        double* __restrict qr = r.queue_row(level);
        double* __restrict rr = r.residence_row(level);
        for (std::size_t k = 0; k < K; ++k) {
          const double res_at = rh[k * Lp];
          rr[k] = res_at;
          qr[k] = x_at * res_at;
          ur[k] = uh[k * Lp];
        }
      }
    }
    win_start = up_to_level;
  };

  std::fill(think, think + Lp, 1.0);
  for (std::size_t l = 0; l < L; ++l) {
    const BatchLane& lane = lanes[l];
    think[l] = lane.network->think_time();
    for (std::size_t k = 0; k < K; ++k) {
      visits[k * Lp + l] = lane.network->station(k).visits;
      if (st.shape[k].slots != 0) {
        p[st.shape[k].p_offset * Lp + l] = 1.0;  // P_k(0 | 0) = 1
      }
    }
    // Constant demands never change across populations: gather them once.
    if (demand[l].base != nullptr && demand[l].stride == 0) {
      for (std::size_t k = 0; k < K; ++k) s_now[k * Lp + l] = demand[l].base[k];
    }
  }

  for (unsigned n = 1; n <= n_max; ++n) {
    const std::size_t level = n - 1;
    if constexpr (kOneLane) {
      // One lane reads its grid row in place, and writes this level's rows
      // straight into its result.
      const LaneDemands& d = demand[0];
      if (d.base != nullptr) {
        view.s_now = d.base + level * d.stride;
      } else {
        d.grid.eval_into(x_prev[0], s_now);
      }
      MvaResult& r = results[0];
      view.residence = r.station_rows == StationRows::kAll
                           ? r.residence_row(level)
                           : residence;
      view.util = r.utilization_row(level);
      view.x = r.throughput.data() + level;
      view.total = r.response_time.data() + level;
    } else {
      // Demand gather: one tabulated row (contiguous K doubles) per varying
      // lane, transposed into the lane-major buffer.  Lanes shallower than
      // the block run on past their own depth (their rows are never
      // flushed); their demand row is clamped to the last one they own.
      for (std::size_t l = 0; l < L; ++l) {
        const LaneDemands& d = demand[l];
        if (d.stride != 0) {
          const std::size_t row_index =
              std::min(n, lanes[l].max_population) - 1;
          const double* row = d.base + row_index * d.stride;
          for (std::size_t k = 0; k < K; ++k) s_now[k * Lp + l] = row[k];
        } else if (d.base == nullptr) {
          d.grid.eval_into(x_prev[l], scratch);
          for (std::size_t k = 0; k < K; ++k) s_now[k * Lp + l] = scratch[k];
        }
      }
      // This level's rows land in the staging window.
      const std::size_t w = level - win_start;
      view.residence = any_all_rows ? r_hist + w * kl : residence;
      view.util = u_hist + w * kl;
      view.x = x_hist + w * Lp;
      view.total = rt_hist + w * Lp;
    }

    if constexpr (kOneLane) {
      residence_body<1>(view);
    } else {
      residence_level(view);
    }

    for (std::size_t l = 0; l < Lp; ++l) {
      const double cycle = view.total[l] + think[l];
      MTPERF_REQUIRE(cycle > 0.0, "degenerate network: zero cycle time");
      view.x[l] = static_cast<double>(n) / cycle;
    }

    if constexpr (kOneLane) {
      update_body<1>(view);
    } else {
      update_level(view);
    }

    if (any_trace) {
      for (std::size_t l = 0; l < L; ++l) {
        MarginalTrace* const trace = lanes[l].trace;
        if (trace == nullptr || n > lanes[l].max_population) continue;
        const StationShape& sh = st.shape[trace->station];
        std::vector<double>& row = trace->rows.emplace_back(sh.slots);
        for (std::size_t j = 0; j < sh.slots; ++j) {
          row[j] = p[(sh.p_offset + j) * Lp + l];
        }
      }
    }
    std::copy(view.x, view.x + Lp, x_prev);
    if constexpr (kOneLane) {
      MvaResult& r = results[0];
      r.cycle_time[level] = view.total[0] + think[0];
      if (r.station_rows == StationRows::kAll) {
        std::copy(queue, queue + K, r.queue_row(level));
      }
    } else if (n - win_start == kLevelWindow) {
      flush_window(n);
    }
  }
  if constexpr (!kOneLane) flush_window(n_max);
  return results;
}

}  // namespace

bool batchable_solver(SolverKind kind) {
  // kMvasd runs this kernel for every demand axis, so mixed axes
  // (constant, concurrency splines, throughput splines) batch together as
  // long as the station structure matches.
  return kind == SolverKind::kMvasd;
}

std::string batch_structure_key(const ClosedNetwork& network,
                                SolverKind kind) {
  std::string key;
  key.reserve(2 + network.size() * 5);
  key.push_back(static_cast<char>(kind));
  append_station_key(key, network);
  return key;
}

BatchPlan plan_batch(const std::vector<const ScenarioSpec*>& specs) {
  BatchPlan plan;
  // Grouping preserves first-seen order for determinism.  Single-class and
  // multiclass groups share one key space: the multiclass key embeds the
  // solver kind, and the kinds are disjoint, so prefixing is unnecessary.
  std::vector<std::string> keys;
  std::vector<std::vector<std::size_t>> groups;
  std::vector<char> group_mc;
  std::vector<std::vector<std::size_t>> multiclass_blocks;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioSpec& spec = *specs[i];
    std::string key;
    bool mc = false;
    // A class mix on a single-class kind goes to the scalar path, where
    // solve() raises the canonical error; the lane kernel reads no classes.
    if (batchable_solver(spec.options.solver) &&
        spec.options.classes.empty()) {
      key = batch_structure_key(spec.network, spec.options.solver);
    } else if (multiclass_batchable(spec)) {
      key = multiclass_batch_key(spec);
      mc = true;
    } else {
      plan.scalars.push_back(i);
      continue;
    }
    const auto it = std::find(keys.begin(), keys.end(), key);
    if (it == keys.end()) {
      keys.push_back(std::move(key));
      groups.push_back({i});
      group_mc.push_back(mc ? 1 : 0);
    } else {
      groups[static_cast<std::size_t>(it - keys.begin())].push_back(i);
    }
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    auto& group = groups[g];
    // Deepest lanes first so each block spans a narrow depth range (every
    // lane of a block runs to the block's deepest population; depth-sorted
    // chunks keep that overshoot small).  For multiclass groups the depth
    // is the axis population, and descending order additionally makes the
    // live-lane set a shrinking prefix as the kernel's axis sweep passes
    // shallower lanes.  The stable tiebreak keeps the plan deterministic.
    std::stable_sort(group.begin(), group.end(),
                     [&](std::size_t a, std::size_t b) {
                       return specs[a]->options.max_population >
                              specs[b]->options.max_population;
                     });
    auto& out = group_mc[g] != 0 ? multiclass_blocks : plan.blocks;
    const std::size_t width =
        group_mc[g] != 0 && specs[group[0]]->options.solver ==
                                SolverKind::kSchweitzerMulticlass
            ? kMcSchweitzerLaneBlock
            : kBatchLaneBlock;
    for (std::size_t at = 0; at < group.size(); at += width) {
      const std::size_t end = std::min(group.size(), at + width);
      if (group_mc[g] == 0 && end - at < kMinBatchLaneBlock) {
        // Too narrow to pay for its padding: one-lane blocks (a lane's
        // bits do not depend on its block).
        for (std::size_t i = at; i < end; ++i) out.push_back({group[i]});
        continue;
      }
      out.emplace_back(group.begin() + at, group.begin() + end);
    }
  }
  // Single-class blocks first, then multiclass blocks: callers run blocks
  // as tasks in plan order.
  plan.blocks.insert(plan.blocks.end(),
                     std::make_move_iterator(multiclass_blocks.begin()),
                     std::make_move_iterator(multiclass_blocks.end()));
  return plan;
}

std::vector<MvaResult> solve_planned_block(
    const std::vector<const ScenarioSpec*>& specs,
    const std::vector<std::size_t>& block) {
  MTPERF_REQUIRE(!block.empty(), "batched solve needs at least one lane");
  const SolverKind kind = specs[block[0]]->options.solver;
  if (batchable_solver(kind)) {
    std::vector<BatchLane> lanes(block.size());
    for (std::size_t l = 0; l < block.size(); ++l) {
      const ScenarioSpec& spec = *specs[block[l]];
      lanes[l].network = &spec.network;
      lanes[l].demands = &spec.demands;
      lanes[l].max_population = spec.options.max_population;
      lanes[l].rows = spec.options.station_rows;
    }
    return solve_lane_block(lanes);
  }
  std::vector<MulticlassBatchLane> lanes(block.size());
  for (std::size_t l = 0; l < block.size(); ++l) {
    const ScenarioSpec& spec = *specs[block[l]];
    lanes[l].network = &spec.network;
    lanes[l].classes = &spec.options.classes;
    lanes[l].schweitzer = spec.options.schweitzer;
    lanes[l].rows = spec.options.station_rows;
  }
  return solve_multiclass_lane_block(kind, lanes);
}

std::vector<MvaResult> solve_lane_block(const std::vector<BatchLane>& lanes) {
  MTPERF_REQUIRE(!lanes.empty(), "batched solve needs at least one lane");
  return lanes.size() == 1 ? solve_block<1>(lanes) : solve_block<0>(lanes);
}

}  // namespace mtperf::core::detail
