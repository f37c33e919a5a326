// Service-demand models for the MVA family.
//
// Classic MVA takes one constant demand per station.  MVASD (Algorithm 3)
// instead takes, per station, an *array* of demands indexed by concurrency
// — in practice a spline through measured points (the paper's SS_k^n =
// h(a_k, b_k, n)).  Section 7 additionally explores demands indexed by
// *throughput*.  DemandModel abstracts over all three so every solver can
// share one input type.
//
// DemandGrid is the hot-path companion: it pre-tabulates a DemandModel
// into a flat row-major population × station buffer (concurrency axis) or
// holds per-station monotone segment cursors (throughput axis), so the
// O(N K) MVA inner loop pays a single indexed load per (n, k) instead of a
// std::function → shared_ptr → virtual → binary-search chain.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "interp/cubic_spline.hpp"
#include "interp/interpolator.hpp"
#include "interp/piecewise_cubic.hpp"
#include "ops/demand_table.hpp"

namespace mtperf::core {

class DemandModel {
 public:
  /// What the per-station functions are indexed by.
  enum class Axis {
    kConcurrency,  ///< SS_k(n) — the MVASD default
    kThroughput,   ///< SS_k(X_{n-1}) — Section 7's open-system variant
  };

  /// Constant demands (classic MVA inputs).
  static DemandModel constant(std::vector<double> demands);

  /// One interpolant per station over the chosen axis.
  static DemandModel interpolated(
      std::vector<std::shared_ptr<const interp::Interpolator1D>> interpolants,
      Axis axis = Axis::kConcurrency);

  /// Build spline demand models straight from a measurement campaign —
  /// the paper's Step 3 (Fig. 17): one not-a-knot cubic spline with pegged
  /// extrapolation per station, over concurrency or throughput.
  static DemandModel from_table(const ops::DemandTable& table,
                                Axis axis = Axis::kConcurrency,
                                const interp::CubicSplineOptions& options = {});

  /// Demand of station k at the given axis value (concurrency level n for
  /// kConcurrency, previous-iteration throughput for kThroughput).
  /// Negative interpolated values are clamped to zero: demands are times.
  double at(std::size_t station, double axis_value) const;

  Axis axis() const noexcept { return axis_; }
  std::size_t stations() const noexcept { return per_station_.size(); }
  bool is_constant() const noexcept { return constant_; }

  /// Demands of all stations at one axis value.
  std::vector<double> all_at(double axis_value) const;
  /// Allocation-free variant for callers that loop over axis values:
  /// resizes `out` to stations() and fills it in place.
  void all_at(double axis_value, std::vector<double>& out) const;

  /// The interpolant backing station k, or nullptr for constant models.
  /// Lets hot paths (DemandGrid) bypass the std::function indirection.
  const interp::Interpolator1D* interpolant(std::size_t station) const;

  /// Shared ownership of the interpolant backing station k (nullptr for
  /// constant models) — lets the hierarchical solver assemble subnetwork
  /// demand models as views onto this model's splines without copying.
  std::shared_ptr<const interp::Interpolator1D> shared_interpolant(
      std::size_t station) const;

 private:
  DemandModel(std::vector<std::function<double(double)>> fns, Axis axis,
              bool constant)
      : per_station_(std::move(fns)), axis_(axis), constant_(constant) {}

  std::vector<std::function<double(double)>> per_station_;
  std::vector<std::shared_ptr<const interp::Interpolator1D>> interpolants_;
  Axis axis_;
  bool constant_;
};

/// `model` with every station's demand multiplied by `factor` — the
/// per-class demand derivation of the multiclass workmodel lowering (one
/// compiled mesh, classes as scaled traffic).  Constant models scale their
/// values; interpolated models must be piecewise-cubic (the family every
/// campaign- and graph-derived model uses) and scale their coefficients,
/// so the scaled model evaluates to exactly factor * demand up to one
/// rounding per coefficient.  Throws mtperf::invalid_argument_error for
/// other interpolant families.
DemandModel scale_demand_model(const DemandModel& model, double factor);

/// Pre-tabulated view of a DemandModel for one solver run.
///
/// Concurrency-axis (and constant) models are tabulated once into a flat
/// row-major max_population × stations buffer, 64 stations at a time.  The
/// fill goes run by run: over each range of n where every station stays on
/// one piece of its PiecewiseCubic, the rows are written with those pieces'
/// coefficients held in locals, a dense loop across stations per row.  Rows
/// where a station lies outside its knots or has another interpolant
/// family are evaluated per entry (value_with_cursor on the cubics,
/// DemandModel::at on the others).  The fill allocates nothing.
/// Throughput-axis models cannot be tabulated ahead of the recursion (the
/// axis value is the previous iteration's throughput); they evaluate on
/// demand through per-station cursors, which is amortized O(1) per call
/// because MVA throughput is non-decreasing in the population.
///
/// All values are clamped at zero exactly like DemandModel::at, and are
/// bit-identical to it.  A DemandGrid borrows the model: it must not
/// outlive the DemandModel it was built from.  Not thread-safe (the
/// throughput-axis cursors are mutable state); build one per solve.
class DemandGrid {
 public:
  DemandGrid(const DemandModel& model, unsigned max_population);

  /// True when row() is available (concurrency-axis or constant models).
  bool tabulated() const noexcept { return tabulated_; }

  /// Every station's demand at population n (1-based), as one contiguous
  /// row of the tabulated buffer.  Requires tabulated().
  const double* row(unsigned n) const;

  /// Demand of one station at population n via the tabulated buffer.
  double at(unsigned n, std::size_t station) const {
    return row(n)[station];
  }

  /// Raw tabulated buffer for solvers that sweep every population: row n
  /// starts at data() + (n-1) * row_stride().  The stride is 0 for constant
  /// models (all populations share one row), so the same expression works
  /// unconditionally.  Requires tabulated(); the pointer is valid for the
  /// grid's lifetime.
  const double* data() const noexcept { return grid_.data(); }
  std::size_t row_stride() const noexcept {
    return model_->is_constant() ? 0 : stations_;
  }

  /// Evaluate every station at an arbitrary axis value into out[0..K).
  /// This is the throughput-axis path; it also works for tabulated models
  /// (delegating to DemandModel::at for non-integer axis values).
  void eval_into(double axis_value, double* out) const;

 private:
  const DemandModel* model_;
  std::size_t stations_;
  unsigned max_population_;
  bool tabulated_;
  std::vector<double> grid_;  ///< row-major; one row for constant models
  std::vector<const interp::PiecewiseCubic*> cubics_;  ///< per station; may hold nullptr
  mutable std::vector<std::size_t> cursors_;
};

}  // namespace mtperf::core
