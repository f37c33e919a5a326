// Concrete piecewise-cubic interpolant shared by every cubic family in the
// module (interpolating splines, PCHIP, smoothing splines).  Each interval
// [x_i, x_{i+1}] carries coefficients of
//   S_i(x) = a_i + b_i t + c_i t^2 + d_i t^3,   t = x - x_i.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "interp/interpolator.hpp"

namespace mtperf::interp {

class PiecewiseCubic final : public Interpolator1D {
 public:
  /// `knots` are the n sample abscissae; the coefficient arrays have n-1
  /// entries (or, for a single-point set, one constant interval).
  PiecewiseCubic(std::vector<double> knots, std::vector<double> a,
                 std::vector<double> b, std::vector<double> c,
                 std::vector<double> d, Extrapolation extrapolation,
                 std::string family_name);

  double value(double x) const override;
  double derivative(double x, int order) const override;
  std::string name() const override { return name_; }
  double x_min() const override { return knots_.front(); }
  double x_max() const override { return knots_.back(); }

  const std::vector<double>& knots() const noexcept { return knots_; }
  Extrapolation extrapolation() const noexcept { return extrapolation_; }

  /// One polynomial piece: S(x) = piece(a, b, c, d, x - knot).
  struct Segment {
    double knot, a, b, c, d;
  };
  /// Number of pieces: knots - 1, or 1 for a single-knot constant.
  std::size_t segments() const noexcept { return a_.size(); }
  /// Piece i (i < segments()): its left knot and coefficients.  Tabulation
  /// (core::DemandGrid) walks a run of abscissae within one piece with
  /// these held in registers instead of calling value_with_cursor per x.
  Segment segment(std::size_t i) const noexcept {
    return {knots_[i], a_[i], b_[i], c_[i], d_[i]};
  }
  /// The piece polynomial at local offset t — the one definition every
  /// value this class or a tabulation of it returns goes through, so all
  /// of them round alike.
  static double piece(double a, double b, double c, double d, double t) {
    return a + t * (b + t * (c + t * d));
  }

  /// Evaluation with a caller-owned segment cursor.  For non-decreasing
  /// query sequences (the MVA recursion's concurrency or throughput axis)
  /// the segment lookup advances the cursor instead of binary-searching,
  /// making evaluation amortized O(1) per call instead of O(log m).  The
  /// cursor is an opaque segment hint: initialize it to 0, pass the same
  /// variable for each subsequent query, and reuse per evaluation stream
  /// (never share one cursor across threads).  Arbitrary (non-monotone) x
  /// are still answered correctly — they just fall back to the binary
  /// search.  Results are bit-identical to value().
  double value_with_cursor(double x, std::size_t& cursor) const;

  /// Second derivative at knot i — used by tests to verify C² continuity.
  double second_derivative_at_knot(std::size_t i) const;

  /// This cubic with every segment polynomial multiplied by `factor`
  /// (same knots, same extrapolation policy).  The multiclass workmodel
  /// lowering uses this to derive per-class demand curves from one
  /// compiled mesh: scaling the coefficients scales the value exactly, so
  /// scaled(f).value(x) == f * value(x) up to one rounding per coefficient.
  PiecewiseCubic scaled(double factor) const;

 private:
  /// Evaluate d-th derivative of interval `seg` at local offset t.
  double eval(std::size_t seg, double t, int order) const;
  /// Map x to (segment, local offset) applying the extrapolation policy.
  /// Returns false when the policy resolves the query without a segment
  /// (pegged outside the range), writing the answer to *out.
  bool locate(double x, int order, std::size_t& seg, double& t,
              double* out) const;

  std::vector<double> knots_;
  std::vector<double> a_, b_, c_, d_;
  Extrapolation extrapolation_;
  std::string name_;
};

/// Assemble a C²-continuous piecewise cubic from knot ordinates `y` and knot
/// second derivatives `m` (the classic spline representation).  Shared by
/// the interpolating and smoothing spline builders.
PiecewiseCubic cubic_from_second_derivatives(std::span<const double> x,
                                             std::span<const double> y,
                                             std::span<const double> m,
                                             Extrapolation extrapolation,
                                             std::string family_name);

}  // namespace mtperf::interp
