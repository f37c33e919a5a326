#include "interp/piecewise_cubic.hpp"

#include <cmath>
#include <utility>

namespace mtperf::interp {

PiecewiseCubic::PiecewiseCubic(std::vector<double> knots, std::vector<double> a,
                               std::vector<double> b, std::vector<double> c,
                               std::vector<double> d,
                               Extrapolation extrapolation,
                               std::string family_name)
    : knots_(std::move(knots)),
      a_(std::move(a)),
      b_(std::move(b)),
      c_(std::move(c)),
      d_(std::move(d)),
      extrapolation_(extrapolation),
      name_(std::move(family_name)) {
  MTPERF_REQUIRE(!knots_.empty(), "piecewise cubic needs at least one knot");
  const std::size_t segments = knots_.size() == 1 ? 1 : knots_.size() - 1;
  MTPERF_REQUIRE(a_.size() == segments && b_.size() == segments &&
                     c_.size() == segments && d_.size() == segments,
                 "coefficient array length mismatch");
}

double PiecewiseCubic::eval(std::size_t seg, double t, int order) const {
  switch (order) {
    case 0:
      return piece(a_[seg], b_[seg], c_[seg], d_[seg], t);
    case 1:
      return b_[seg] + t * (2.0 * c_[seg] + t * 3.0 * d_[seg]);
    case 2:
      return 2.0 * c_[seg] + 6.0 * d_[seg] * t;
    case 3:
      return 6.0 * d_[seg];
    default:
      throw invalid_argument_error("derivative order must be in [0,3]");
  }
}

bool PiecewiseCubic::locate(double x, int order, std::size_t& seg, double& t,
                            double* out) const {
  const double lo = knots_.front();
  const double hi = knots_.back();
  if (x >= lo && x <= hi) {
    seg = knots_.size() == 1 ? 0 : find_interval(knots_, x);
    t = x - knots_[seg];
    return true;
  }
  switch (extrapolation_) {
    case Extrapolation::kThrow:
      throw invalid_argument_error("x outside interpolation range");
    case Extrapolation::kPegged: {
      // Paper Eq. 14: constant beyond the sampled range.
      if (order > 0) {
        *out = 0.0;
        return false;
      }
      seg = x < lo ? 0 : (knots_.size() == 1 ? 0 : knots_.size() - 2);
      t = x < lo ? 0.0 : knots_.back() - knots_[seg];
      return true;
    }
    case Extrapolation::kLinear: {
      const std::size_t boundary_seg =
          x < lo ? 0 : (knots_.size() == 1 ? 0 : knots_.size() - 2);
      const double edge_x = x < lo ? lo : hi;
      const double edge_t = edge_x - knots_[boundary_seg];
      const double y0 = eval(boundary_seg, edge_t, 0);
      const double s = eval(boundary_seg, edge_t, 1);
      if (order == 0) {
        *out = y0 + s * (x - edge_x);
      } else if (order == 1) {
        *out = s;
      } else {
        *out = 0.0;
      }
      return false;
    }
    case Extrapolation::kNatural: {
      seg = x < lo ? 0 : (knots_.size() == 1 ? 0 : knots_.size() - 2);
      t = x - knots_[seg];
      return true;
    }
  }
  throw invalid_argument_error("unknown extrapolation policy");
}

double PiecewiseCubic::value_with_cursor(double x, std::size_t& cursor) const {
  const double lo = knots_.front();
  const double hi = knots_.back();
  if (x < lo || x > hi) {
    // Out-of-range queries take the (rare) extrapolation path unchanged;
    // park the cursor at the matching boundary segment so a later return
    // into range stays amortized O(1).
    cursor = x > hi && knots_.size() > 1 ? knots_.size() - 2 : 0;
    return value(x);
  }
  if (knots_.size() == 1) {
    cursor = 0;
    return eval(0, x - knots_[0], 0);
  }
  const std::size_t max_seg = knots_.size() - 2;
  std::size_t seg = cursor > max_seg ? max_seg : cursor;
  if (x < knots_[seg]) {
    seg = find_interval(knots_, x);  // non-monotone query: full search
  } else {
    while (seg < max_seg && x >= knots_[seg + 1]) ++seg;
  }
  cursor = seg;
  return eval(seg, x - knots_[seg], 0);
}

double PiecewiseCubic::value(double x) const {
  std::size_t seg = 0;
  double t = 0.0, out = 0.0;
  if (!locate(x, 0, seg, t, &out)) return out;
  return eval(seg, t, 0);
}

double PiecewiseCubic::derivative(double x, int order) const {
  MTPERF_REQUIRE(order >= 0 && order <= 3, "derivative order must be in [0,3]");
  if (order == 0) return value(x);
  std::size_t seg = 0;
  double t = 0.0, out = 0.0;
  if (!locate(x, order, seg, t, &out)) return out;
  return eval(seg, t, order);
}

double PiecewiseCubic::second_derivative_at_knot(std::size_t i) const {
  MTPERF_REQUIRE(i < knots_.size(), "knot index out of range");
  if (knots_.size() == 1) return 0.0;
  if (i + 1 == knots_.size()) {
    const std::size_t seg = knots_.size() - 2;
    return eval(seg, knots_[i] - knots_[seg], 2);
  }
  return eval(i, 0.0, 2);
}

PiecewiseCubic PiecewiseCubic::scaled(double factor) const {
  MTPERF_REQUIRE(std::isfinite(factor) && factor >= 0.0,
                 "scale factor must be finite and non-negative");
  std::vector<double> a = a_, b = b_, c = c_, d = d_;
  for (double& v : a) v *= factor;
  for (double& v : b) v *= factor;
  for (double& v : c) v *= factor;
  for (double& v : d) v *= factor;
  return PiecewiseCubic(knots_, std::move(a), std::move(b), std::move(c),
                        std::move(d), extrapolation_, name_);
}

PiecewiseCubic cubic_from_second_derivatives(std::span<const double> x,
                                             std::span<const double> y,
                                             std::span<const double> m,
                                             Extrapolation extrapolation,
                                             std::string family_name) {
  const std::size_t n = x.size();
  MTPERF_REQUIRE(n >= 2 && y.size() == n && m.size() == n,
                 "second-derivative assembly needs matching arrays, n >= 2");
  std::vector<double> a(n - 1), b(n - 1), c(n - 1), d(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double h = x[i + 1] - x[i];
    a[i] = y[i];
    b[i] = (y[i + 1] - y[i]) / h - h * (2.0 * m[i] + m[i + 1]) / 6.0;
    c[i] = m[i] / 2.0;
    d[i] = (m[i + 1] - m[i]) / (6.0 * h);
  }
  return PiecewiseCubic(std::vector<double>(x.begin(), x.end()), std::move(a),
                        std::move(b), std::move(c), std::move(d), extrapolation,
                        std::move(family_name));
}

}  // namespace mtperf::interp
