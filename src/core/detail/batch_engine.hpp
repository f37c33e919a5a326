// The exact multi-server MVA recursion — the paper's Algorithm 2 (constant
// demands) and Algorithm 3 (MVASD, concurrency- or throughput-varying
// demands) — run in lane-major lockstep.  It is the one implementation of
// that recursion: core::solve runs it as a one-lane block (kMvasd and the
// single-server kinds), and batches as blocks of up to kBatchLaneBlock lanes.
//
// MVASD is the paper's contribution: exact multi-server MVA in which each
// station's service demand is not a constant but an *array* SS_k^n indexed
// by concurrency, produced by spline interpolation of demands measured at a
// few load-test points (Service Demand Law).  At every population n the
// recursion re-evaluates the splines (Eq. 11), so the predicted
// throughput/response-time slopes track the measured demand variation —
// the effect plain MVA misses (paper Figs. 4-7).  A throughput-axis
// DemandModel gives Section 7's variant: demands interpolated against
// throughput and looked up with the previous iteration's X.
//
// Capacity-planning traffic is batch-shaped — hundreds of structurally
// identical networks (same stations, server counts and kinds) that differ
// only in demands, visit counts, think times, or requested population.
// Instead of one recursion per scenario, a block runs the population
// recursion n = 1..N once for a whole group of such scenarios ("lanes"),
// with every piece of per-scenario state laid out lane-major:
// state[k][lane], contiguous across the batch.  The inner station loop then
// becomes a dense sweep over lanes that auto-vectorizes under -O3 — the
// batch dimension is the one axis the exact recursion can exploit without
// approximation (lanes are independent, so a lane's result is bit-identical
// whatever block it runs in).
//
// Ragged batches (per-lane max_population) run every lane to the block's
// deepest level: a lane past its own depth runs on (a tabulated lane on its
// last demand row), and its extra levels never reach its result.
//
// Not part of the public API — callers go through core::solve and
// core::solve_batch (the facade), core::run_scenarios, or
// service::Engine::evaluate_batch.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/demand_model.hpp"
#include "core/network.hpp"
#include "core/result.hpp"
#include "core/solve.hpp"
#include "core/sweep.hpp"

namespace mtperf::core::detail {

/// Lanes per lockstep block.  Two doubles per SSE vector means 16 lanes
/// already saturate the vector units; wider blocks only grow the working
/// set (state, marginals, and the staged output window) past L1/L2 and
/// measurably slow the kernel, while 16-lane blocks still split a
/// 256-scenario batch into enough work units to feed every pool worker.
inline constexpr std::size_t kBatchLaneBlock = 16;

/// Narrowest block plan_batch forms for this kernel.  A wide block is
/// padded to a multiple of kLaneChunk lanes, so a block of 2-5 lanes pays
/// for eight and runs slower than its lanes solved as one-lane blocks (on a
/// 4-vCPU AVX-512 VM, cold-corpus tier subnetworks at N = 64: three lanes
/// take 52 us as one block and 35 us as one-lane blocks, five 55 vs 58 us,
/// six 56 vs 70 us).  plan_batch plans a smaller single-class block as
/// one-lane blocks.
inline constexpr std::size_t kMinBatchLaneBlock = 6;

/// Optional per-population capture of one station's marginal queue-size
/// probabilities P_k(j), j = 0..C_k-1 (paper Fig. 3 plots these for a
/// 4-core CPU).  Only multi-server queueing stations keep marginals; a
/// trace of any other station is refused.
struct MarginalTrace {
  std::size_t station = 0;
  /// rows[n-1][j] = P_station(j | n) after the population-n update.
  std::vector<std::vector<double>> rows;
};

/// One scenario of a structure-compatible group.  `network` and `demands`
/// are borrowed and must outlive the solve.
struct BatchLane {
  const ClosedNetwork* network = nullptr;
  const DemandModel* demands = nullptr;
  unsigned max_population = 1;
  /// The station rows this lane's result carries; lanes of one block may
  /// differ.
  StationRows rows = StationRows::kAll;
  /// Optional marginal trace of this lane (borrowed; its `station` selects
  /// the station, its rows are replaced).
  MarginalTrace* trace = nullptr;
};

/// True when `kind` runs the exact multi-server recursion this kernel
/// implements (kMvasd, Algorithms 2 and 3).
bool batchable_solver(SolverKind kind);

/// Grouping key: two specs may share a lockstep group iff their keys match
/// — same solver kind, station count, and per-station server counts and
/// kinds.  Demands, visits, think times, labels, station names, and
/// max_population are all per-lane data and deliberately excluded.
std::string batch_structure_key(const ClosedNetwork& network, SolverKind kind);

/// Partition of a spec list into lockstep work units.
struct BatchPlan {
  /// Each block: indices into the input list, structure-compatible, ordered
  /// by descending max_population (so each block spans a narrow depth range).
  /// Single-class blocks (at most kBatchLaneBlock lanes, grouped by
  /// batch_structure_key; a group's remainder of fewer than
  /// kMinBatchLaneBlock lanes becomes one-lane blocks) come first, then
  /// multiclass blocks (grouped by
  /// multiclass_batch_key, at most kMcSchweitzerLaneBlock lanes for the
  /// Schweitzer kind and kBatchLaneBlock for the exact kind).
  std::vector<std::vector<std::size_t>> blocks;
  /// Specs no batched kernel covers — solve these through core::solve.
  std::vector<std::size_t> scalars;
};

/// Group batchable specs by structure key (class-aware for the multiclass
/// series kinds), order each group by descending population, and chunk it
/// into blocks.
BatchPlan plan_batch(const std::vector<const ScenarioSpec*>& specs);

/// Solve one block of plan_batch(specs): fill its lanes from the specs and
/// run the kernel their kind needs (solve_lane_block or
/// solve_multiclass_lane_block).  Returns one MvaResult per lane, in block
/// order; throws what the kernel throws.
std::vector<MvaResult> solve_planned_block(
    const std::vector<const ScenarioSpec*>& specs,
    const std::vector<std::size_t>& block);

/// Solve one structure-compatible lane group in lockstep and return one
/// MvaResult per lane, in input order.  All lanes must share the structure
/// batch_structure_key captures.  A one-lane block runs a width-1
/// instantiation of the same per-level code (no padding, rows written in
/// place).  Callers chunk large groups into kBatchLaneBlock-sized blocks
/// (see plan_batch) and run blocks in parallel; the kernel itself is
/// single-threaded.
std::vector<MvaResult> solve_lane_block(const std::vector<BatchLane>& lanes);

}  // namespace mtperf::core::detail
