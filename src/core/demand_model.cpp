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
  double* out = grid_.data();
  // Row-major fill, one monotone cursor per station: n = 1..N is
  // non-decreasing so segment lookup never searches — O(N K + segments)
  // total — and each cache line of the buffer is written exactly once
  // (a column-order fill would touch every line stations() times).
  std::vector<std::size_t> cursor(stations_, 0);
  for (unsigned n = 1; n <= max_population; ++n, out += stations_) {
    for (std::size_t k = 0; k < stations_; ++k) {
      out[k] = cubics_[k] != nullptr
                   ? std::max(0.0, cubics_[k]->value_with_cursor(
                                       static_cast<double>(n), cursor[k]))
                   : model.at(k, static_cast<double>(n));
    }
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
