// Lane-major batched multiclass MVA: class-aware what-if batches in
// lockstep.
//
// The single-class batch engine (batch_engine.hpp) exploits the one axis
// the exact recursion can use without approximation — the batch dimension.
// Capacity-planning traffic for class mixes (per-class upgrade sweeps, mix
// rebalancing) is batch-shaped in exactly the same way: hundreds of specs
// over the same station structure and class mix, differing only in per-
// class demands or think times.  This kernel is the one implementation of
// the multiclass series recursions — the per-level Schweitzer fixed point
// and the exact population-vector lattice.  It runs them once for a whole
// lane group, with every piece of per-lane state laid out lane-major
// (state[class][station][lane]) so the inner lane loops vectorize, and
// core::solve runs it as a one-lane block: a width-1 instantiation of the
// same per-level bodies.  A lane's bits do not depend on its block.
//
// Ragged batches (per-lane axis depth) retire lanes in descending-depth
// order: the Schweitzer kernel runs each axis level only over the prefix of
// still-live lanes, and the exact kernel's lattice sweep shrinks its lane
// prefix as the axis digit passes shallower lanes' depths.
//
// Not part of the public API — callers go through core::solve,
// core::solve_batch, core::run_scenarios, or
// service::Engine::evaluate_batch.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/mva_multiclass.hpp"
#include "core/network.hpp"
#include "core/result.hpp"
#include "core/solve.hpp"
#include "core/sweep.hpp"

namespace mtperf::core::detail {

/// Lanes per multiclass *Schweitzer* lockstep block.  Wider than the
/// single-class kBatchLaneBlock: the block runs its fixed point in
/// kLaneChunk-lane chunks, and more lanes let it group lanes that converge
/// alike into a chunk (and spread its per-level setup), while the
/// per-level state (a few C*K*lanes arrays) stays L1-resident.  The exact
/// multiclass kind keeps kBatchLaneBlock — its lane-major Q lattice is the
/// working set, and doubling it would double a budget already near 512 MiB.
inline constexpr std::size_t kMcSchweitzerLaneBlock = 32;

/// One scenario of a class-compatible group.  `network` and `classes` are
/// borrowed and must outlive the solve.
struct MulticlassBatchLane {
  const ClosedNetwork* network = nullptr;
  const std::vector<CustomerClass>* classes = nullptr;
  /// Fixed-point controls for the Schweitzer kind (per-lane: tolerance and
  /// iteration budget are data, not structure).  Ignored by the exact kind.
  SchweitzerOptions schweitzer{};
  /// The station rows this lane's result carries; lanes of one block may
  /// differ.
  StationRows rows = StationRows::kAll;
};

/// True when `kind` runs a multiclass series recursion the lockstep kernel
/// implements.  kMomMulticlass is a single-level moment recursion with no
/// shared population axis — it stays on the scalar path.
bool batchable_multiclass_solver(SolverKind kind);

/// True when a wide lockstep block covers this spec: a batchable
/// multiclass kind whose options satisfy the axis-depth invariant, and (for
/// the exact kind) a population-vector lattice small enough that a full
/// block's lattices fit the wide-block budget (2^22 states times stations
/// per lane).  Specs it refuses still solve, through core::solve.
bool multiclass_batchable(const ScenarioSpec& spec);

/// Class-aware grouping key: two multiclass specs may share a lockstep
/// group iff their keys match — same solver kind, station structure
/// (server counts and kinds), class count, axis class, per-class
/// demand-model shape (constant vector / constant model / varying model),
/// and the per-class population structure the recursion's control flow
/// depends on: the full non-axis population vector for the exact kind
/// (lattice strides must agree), the zero/nonzero activity pattern for
/// Schweitzer (class skips must be uniform across lanes).  Demands, think
/// times, axis depth, tolerances, and names are per-lane data and
/// deliberately excluded.
std::string multiclass_batch_key(const ScenarioSpec& spec);

/// Solve one class-compatible lane group in lockstep and return one
/// MvaResult per lane, in input order.  All lanes must share the structure
/// multiclass_batch_key captures.  A one-lane block runs a width-1
/// instantiation of the same per-level code (no padding, demand rows read
/// in place).  Callers chunk large groups into blocks (see plan_batch) and
/// run blocks in parallel; the kernel itself is single-threaded.
///
/// Every lane is validated (validate_multiclass) first.  The exact kind's
/// one lattice guard follows, before any grid is tabulated: a lane whose
/// population-vector lattice times its stations passes 2^28 in a one-lane
/// block, or 2^22 in a wider one, is refused with the kind's "too large"
/// error (naming mom-multiclass and schweitzer-multiclass).  A Schweitzer
/// lane that exhausts its iterations throws numeric_error naming the axis
/// level.
std::vector<MvaResult> solve_multiclass_lane_block(
    SolverKind kind, const std::vector<MulticlassBatchLane>& lanes);

}  // namespace mtperf::core::detail
