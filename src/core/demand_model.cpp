#include "core/demand_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace mtperf::core {

DemandModel DemandModel::constant(std::vector<double> demands) {
  MTPERF_REQUIRE(!demands.empty(), "demand model needs at least one station");
  std::vector<std::function<double(double)>> fns;
  fns.reserve(demands.size());
  for (double d : demands) {
    MTPERF_REQUIRE(d >= 0.0, "service demands must be non-negative");
    fns.emplace_back([d](double) { return d; });
  }
  return DemandModel(std::move(fns), Axis::kConcurrency, /*constant=*/true);
}

DemandModel DemandModel::interpolated(
    std::vector<std::shared_ptr<const interp::Interpolator1D>> interpolants,
    Axis axis) {
  MTPERF_REQUIRE(!interpolants.empty(), "demand model needs at least one station");
  std::vector<std::function<double(double)>> fns;
  fns.reserve(interpolants.size());
  for (auto& ip : interpolants) {
    MTPERF_REQUIRE(ip != nullptr, "null interpolant");
    fns.emplace_back([ip](double x) { return ip->value(x); });
  }
  DemandModel model(std::move(fns), axis, /*constant=*/false);
  model.interpolants_ = std::move(interpolants);
  return model;
}

DemandModel DemandModel::from_table(const ops::DemandTable& table, Axis axis,
                                    const interp::CubicSplineOptions& options) {
  std::vector<std::shared_ptr<const interp::Interpolator1D>> interpolants;
  interpolants.reserve(table.stations().size());
  for (std::size_t k = 0; k < table.stations().size(); ++k) {
    const interp::SampleSet samples = axis == Axis::kConcurrency
                                          ? table.demand_vs_concurrency(k)
                                          : table.demand_vs_throughput(k);
    interpolants.push_back(std::make_shared<interp::PiecewiseCubic>(
        interp::build_cubic_spline(samples, options)));
  }
  return interpolated(std::move(interpolants), axis);
}

double DemandModel::at(std::size_t station, double axis_value) const {
  MTPERF_REQUIRE(station < per_station_.size(), "station index out of range");
  return std::max(0.0, per_station_[station](axis_value));
}

std::vector<double> DemandModel::all_at(double axis_value) const {
  std::vector<double> out;
  all_at(axis_value, out);
  return out;
}

void DemandModel::all_at(double axis_value, std::vector<double>& out) const {
  out.resize(per_station_.size());
  for (std::size_t k = 0; k < per_station_.size(); ++k) {
    out[k] = at(k, axis_value);
  }
}

const interp::Interpolator1D* DemandModel::interpolant(
    std::size_t station) const {
  MTPERF_REQUIRE(station < per_station_.size(), "station index out of range");
  return station < interpolants_.size() ? interpolants_[station].get() : nullptr;
}

std::shared_ptr<const interp::Interpolator1D> DemandModel::shared_interpolant(
    std::size_t station) const {
  MTPERF_REQUIRE(station < per_station_.size(), "station index out of range");
  return station < interpolants_.size() ? interpolants_[station] : nullptr;
}

DemandModel scale_demand_model(const DemandModel& model, double factor) {
  MTPERF_REQUIRE(std::isfinite(factor) && factor >= 0.0,
                 "demand scale factor must be finite and non-negative");
  if (model.is_constant()) {
    std::vector<double> values = model.all_at(1.0);
    for (double& v : values) v *= factor;
    return DemandModel::constant(std::move(values));
  }
  std::vector<std::shared_ptr<const interp::Interpolator1D>> scaled;
  scaled.reserve(model.stations());
  for (std::size_t k = 0; k < model.stations(); ++k) {
    const auto* cubic =
        dynamic_cast<const interp::PiecewiseCubic*>(model.interpolant(k));
    MTPERF_REQUIRE(cubic != nullptr,
                   "scale_demand_model requires constant or piecewise-cubic "
                   "demands (the family campaign and workmodel models use)");
    scaled.push_back(
        std::make_shared<interp::PiecewiseCubic>(cubic->scaled(factor)));
  }
  return DemandModel::interpolated(std::move(scaled), model.axis());
}

// ----------------------------------------------------------------- DemandGrid

namespace {

/// Columns tabulated together.  The fill keeps its per-column scratch on
/// the stack, so wider models are filled in chunks of this many stations.
/// Heap scratch here is not free: glibc trims the heap top where a lane
/// block's freed grids sit, and one heap cursor vector per grid costs a
/// single-threaded 15-lane fleet block 2.7 minor faults per lane, against
/// 0.01 without it.
constexpr std::size_t kFillChunk = 64;

/// Tabulate columns [k0, k0 + width) of rows 1..n_max of a row-major grid
/// whose rows are `stride` doubles apart; cubics[k] is column k's
/// PiecewiseCubic, or null for any other interpolant family.
///
/// Run by run: from row n, each column's piece is found by a monotone
/// cursor, and the run ends at the last row where every column is still on
/// the same piece.  The run's rows are then written with the pieces'
/// coefficients held in local arrays, a dense loop over the columns per
/// row.  Each entry is PiecewiseCubic::piece at t = n - knot, clamped at
/// zero: the expression value_with_cursor evaluates for an in-range n, on
/// the piece it would pick, so the bits match DemandModel::at.  A row where
/// any column is not a cubic or lies outside its knots (extrapolation, or
/// kThrow's refusal) is evaluated per entry: value_with_cursor on the cubic
/// columns, DemandModel::at on the others.
void fill_columns(const DemandModel& model,
                  const interp::PiecewiseCubic* const* cubics, std::size_t k0,
                  std::size_t width, std::size_t stride, unsigned n_max,
                  double* out) {
  double knot[kFillChunk], a[kFillChunk], b[kFillChunk], c[kFillChunk],
      d[kFillChunk];
  std::size_t seg[kFillChunk] = {};
  unsigned n = 1;
  while (n <= n_max) {
    const double x = static_cast<double>(n);
    unsigned run_end = n_max;
    bool in_range = true;
    for (std::size_t i = 0; i < width; ++i) {
      const interp::PiecewiseCubic* const cubic = cubics[k0 + i];
      in_range = cubic != nullptr && x >= cubic->knots().front() &&
                 x <= cubic->knots().back();
      if (!in_range) break;
      const std::vector<double>& knots = cubic->knots();
      const std::size_t last = cubic->segments() - 1;
      std::size_t s = seg[i];
      while (s < last && x >= knots[s + 1]) ++s;
      seg[i] = s;
      // The piece holds for the rows below the next knot; the last piece
      // for the rows up to the last knot.
      const double bound =
          s < last ? std::ceil(knots[s + 1]) - 1.0 : std::floor(knots.back());
      if (bound < static_cast<double>(run_end)) {
        run_end = static_cast<unsigned>(bound);
      }
      const interp::PiecewiseCubic::Segment p = cubic->segment(s);
      knot[i] = p.knot;
      a[i] = p.a;
      b[i] = p.b;
      c[i] = p.c;
      d[i] = p.d;
    }
    if (!in_range) {
      double* const row = out + static_cast<std::size_t>(n - 1) * stride + k0;
      for (std::size_t i = 0; i < width; ++i) {
        const interp::PiecewiseCubic* const cubic = cubics[k0 + i];
        row[i] = cubic != nullptr
                     ? std::max(0.0, cubic->value_with_cursor(x, seg[i]))
                     : model.at(k0 + i, x);
      }
      ++n;
      continue;
    }
    for (; n <= run_end; ++n) {
      const double xn = static_cast<double>(n);
      double* __restrict const row =
          out + static_cast<std::size_t>(n - 1) * stride + k0;
      for (std::size_t i = 0; i < width; ++i) {
        row[i] = std::max(0.0, interp::PiecewiseCubic::piece(
                                   a[i], b[i], c[i], d[i], xn - knot[i]));
      }
    }
  }
}

}  // namespace

DemandGrid::DemandGrid(const DemandModel& model, unsigned max_population)
    : model_(&model),
      stations_(model.stations()),
      max_population_(max_population),
      tabulated_(model.axis() == DemandModel::Axis::kConcurrency) {
  MTPERF_REQUIRE(max_population >= 1, "population must be at least 1");
  cubics_.resize(stations_, nullptr);
  cursors_.assign(stations_, 0);
  for (std::size_t k = 0; k < stations_; ++k) {
    cubics_[k] =
        dynamic_cast<const interp::PiecewiseCubic*>(model.interpolant(k));
  }
  if (!tabulated_) return;

  if (model.is_constant()) {
    // One shared row: every population sees the same demands.
    grid_.resize(stations_);
    for (std::size_t k = 0; k < stations_; ++k) grid_[k] = model.at(k, 1.0);
    return;
  }
  grid_.resize(static_cast<std::size_t>(max_population) * stations_);
  // Row-major, so each cache line of a chunk's rows is written once.
  for (std::size_t k0 = 0; k0 < stations_; k0 += kFillChunk) {
    fill_columns(model, cubics_.data(), k0,
                 std::min(kFillChunk, stations_ - k0), stations_,
                 max_population, grid_.data());
  }
}

const double* DemandGrid::row(unsigned n) const {
  MTPERF_REQUIRE(tabulated_, "demand grid not tabulated (throughput axis)");
  MTPERF_REQUIRE(n >= 1 && n <= max_population_,
                 "population outside tabulated range");
  if (model_->is_constant()) return grid_.data();
  return grid_.data() + static_cast<std::size_t>(n - 1) * stations_;
}

void DemandGrid::eval_into(double axis_value, double* out) const {
  for (std::size_t k = 0; k < stations_; ++k) {
    out[k] = cubics_[k] != nullptr
                 ? std::max(0.0, cubics_[k]->value_with_cursor(axis_value,
                                                               cursors_[k]))
                 : model_->at(k, axis_value);
  }
}

}  // namespace mtperf::core
