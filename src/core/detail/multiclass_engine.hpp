// What the multiclass solver kinds of core::solve share (types in
// core/mva_multiclass.hpp): validation, the per-level state and its row
// assembly, and the RECAL moment-recursion solver behind mom-multiclass.
// The two series kinds (exact-multiclass, schweitzer-multiclass) run the
// lane kernel in multiclass_batch_engine.hpp.  Every engine emits the
// unified SoA MvaResult (with its multiclass extension) so the facade, the
// fingerprint cache, and the serve protocol treat multiclass results like
// any other.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/mva_multiclass.hpp"
#include "core/network.hpp"
#include "core/result.hpp"
#include "core/solve.hpp"

namespace mtperf::core::detail {

/// Shared validation for every multiclass solver: at least one class, all
/// populations not simultaneously zero, unique class names, per-class
/// demand widths matching the station count (naming the class), finite
/// non-negative demands and think times, single-server queueing or delay
/// stations only, and concurrency-axis demand models.
void validate_multiclass(const ClosedNetwork& network,
                         const std::vector<CustomerClass>& classes);

/// Per-level solver state read by the assembly step: per-class throughput
/// / response plus the flat C x K residence matrix, and the demand row each
/// class used at this level (for utilizations).  The lane kernel and MoM
/// both assemble result rows from it, through the same arithmetic.
struct MulticlassLevelState {
  std::vector<double> x;                   ///< X_c (0 for inactive classes)
  std::vector<double> r;                   ///< R_c
  std::vector<double> residence;           ///< [c * K + k]
  std::vector<const double*> demand_rows;  ///< per class, K entries each

  void resize(std::size_t c_count, std::size_t k_count) {
    x.assign(c_count, 0.0);
    r.assign(c_count, 0.0);
    residence.assign(c_count * k_count, 0.0);
    demand_rows.assign(c_count, nullptr);
  }
};

/// Fill result row `row` from a solved level.  `level_pops` is the class
/// population vector of this level (axis class at the level's depth).
///
/// When exactly one class is active the aggregates are copied from that
/// class directly rather than recomputed as weighted means — this is what
/// makes a single-class multiclass spec bit-identical to the single-class
/// solvers (their wait/residence/cycle arithmetic is the same, and a sum
/// with one nonzero term is exact, but a weighted mean would round x*r/x
/// differently from r).
///
/// Under result.station_rows == kUtilization only the system series, the
/// class X and R and the utilization row are written.
void assemble_multiclass_level(MvaResult& result, std::size_t row,
                               const std::vector<CustomerClass>& classes,
                               const std::vector<unsigned>& level_pops,
                               const MulticlassLevelState& s);

/// The class names and populations of a mix, in class order (a
/// multiclass result's class_names and class_population).
std::vector<std::string> class_names_of(
    const std::vector<CustomerClass>& classes);
std::vector<unsigned> class_populations_of(
    const std::vector<CustomerClass>& classes);

/// RECAL moment recursion (see DESIGN.md §13): exact, single result level
/// at the full mix.  Requires constant per-class demands.
MvaResult mom_multiclass_engine(const ClosedNetwork& network,
                                const std::vector<CustomerClass>& classes,
                                StationRows rows = StationRows::kAll);

}  // namespace mtperf::core::detail
