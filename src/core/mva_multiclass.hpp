// Multi-class Mean Value Analysis: the customer-class types shared by the
// multiclass solver kinds.
//
// The paper restricts itself to a single customer class ("the customers are
// assumed to be indistinguishable"); real capacity studies usually need
// classes — e.g. VINS's Renew Policy vs Read Policy users with different
// demands and think times.  core::solve runs three solvers over a
// SolveOptions::classes mix (MoM in core/detail/multiclass_engine.hpp, the
// two series kinds in the lane kernel of
// core/detail/multiclass_batch_engine.hpp):
//
//   * kExactMulticlass — the canonical exact recursion over all population
//     vectors n <= N (Reiser & Lavenberg).  Exponential in the number of
//     classes; the small-mix oracle.
//   * kMomMulticlass — an exact Method-of-Moments-style solver: a RECAL
//     (Conway–Georganas) recursion over normalizing-constant moments
//     g_n(v), where v counts "extra tokens" per queueing station.  Time is
//     O(R * C(N + M, M + 1)) for total population N over M queueing
//     stations — polynomial in N for a fixed station count — so 3+-class
//     mixes far beyond the exact recursion's 2^28 state-space guard stay
//     solvable.  See DESIGN.md §13 for the recurrence.
//   * kSchweitzerMulticlass — the multi-class Schweitzer fixed point, for
//     mixes beyond even the moment recursion's budget.
//
// Per-class service demands may vary with the *total* concurrency (the
// paper's core idea, extended classwise): each class carries either a
// constant demand vector or a DemandModel whose concurrency axis is the
// total customer count in the network.  MulticlassGrid pre-tabulates all
// classes' models for a solve, as the single-class DemandGrid does for one
// model.
//
// Stations are single-server queueing or delay stations (the standard
// product-form multi-class setting); multi-core resources can be handled
// via the Seidmann transform (see seidmann.hpp).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/demand_model.hpp"
#include "core/network.hpp"
#include "core/result.hpp"

namespace mtperf::core {

/// One customer class: population, think time, and per-station service
/// demands (D_{c,k} = V_{c,k} * S_{c,k}, i.e. visits folded in).  Demands
/// are either the constant `demands` vector or, when set, `demand_model` —
/// a per-class concurrency-varying model evaluated at the *total*
/// population of the mix (the multiclass extension of MVASD's SS_k^n).
struct CustomerClass {
  std::string name;
  unsigned population = 0;
  double think_time = 0.0;
  std::vector<double> demands;  ///< one per station; ignored when a model is set
  std::shared_ptr<const DemandModel> demand_model;  ///< optional, per class
};

/// Pre-tabulated per-class demand rows for one multiclass solve: one
/// DemandGrid per class, each indexed by the mix's *total* population
/// 1..max_total_population.  Holds the class demand models its grids
/// borrow: a constant class's demand vector becomes a constant model here.
class MulticlassGrid {
 public:
  MulticlassGrid(const ClosedNetwork& network,
                 const std::vector<CustomerClass>& classes,
                 unsigned max_total_population);

  /// Demands of class c at total population n (1-based), as one contiguous
  /// row.  Constant classes share a single row (stride 0), so the same
  /// expression serves both.
  const double* row(std::size_t c, unsigned n) const noexcept {
    const DemandGrid& g = grids_[c];
    return g.data() + static_cast<std::size_t>(n - 1) * row_stride(c);
  }

  /// Distance between class c's consecutive rows: row(c, n) is
  /// row(c, 1) + (n - 1) * row_stride(c).
  std::size_t row_stride(std::size_t c) const noexcept {
    return grids_[c].row_stride();
  }

 private:
  std::vector<std::shared_ptr<const DemandModel>> models_;
  std::vector<DemandGrid> grids_;
};

/// Index of the population axis class: the last class with a nonzero
/// population.  The series solvers emit one result level per axis-class
/// population 1..N_axis with every other class held at full strength, so
/// a deep solve's prefix answers any shallower axis mix (the multiclass
/// analogue of the single-class population-prefix reuse).  Throws
/// mtperf::invalid_argument_error when every class has zero population.
std::size_t multiclass_axis_class(const std::vector<CustomerClass>& classes);

/// Total population of the mix (sum over classes).  Throws
/// mtperf::invalid_argument_error when the sum does not fit in an unsigned.
unsigned multiclass_total_population(const std::vector<CustomerClass>& classes);

}  // namespace mtperf::core
