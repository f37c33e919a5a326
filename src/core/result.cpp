#include "core/result.hpp"

#include <cmath>
#include <type_traits>

#include "common/error.hpp"

namespace mtperf::core {

void MvaResult::reset(std::vector<std::string> names, std::size_t n_levels,
                      StationRows rows) {
  station_names = std::move(names);
  station_rows = rows;
  const std::size_t k_count = station_names.size();
  population.resize(n_levels);
  for (std::size_t i = 0; i < n_levels; ++i) {
    population[i] = static_cast<unsigned>(i + 1);
  }
  throughput.assign(n_levels, 0.0);
  response_time.assign(n_levels, 0.0);
  cycle_time.assign(n_levels, 0.0);
  station_utilization.assign(n_levels * k_count, 0.0);
  if (rows == StationRows::kAll) {
    station_queue.assign(n_levels * k_count, 0.0);
    station_residence.assign(n_levels * k_count, 0.0);
  } else {
    station_queue.clear();
    station_residence.clear();
  }
  class_names.clear();
  class_population.clear();
  class_throughput.clear();
  class_response_time.clear();
  class_station_queue.clear();
  mc_axis = kNoAxis;
  mc_iterations = 0;
}

void MvaResult::reset_classes(std::vector<std::string> names,
                              std::vector<unsigned> populations) {
  MTPERF_REQUIRE(names.size() == populations.size(),
                 "one population per customer class required");
  class_names = std::move(names);
  class_population = std::move(populations);
  const std::size_t c_count = class_names.size();
  const std::size_t n_levels = levels();
  class_throughput.assign(n_levels * c_count, 0.0);
  class_response_time.assign(n_levels * c_count, 0.0);
  if (station_rows == StationRows::kAll) {
    class_station_queue.assign(n_levels * c_count * station_names.size(), 0.0);
  } else {
    class_station_queue.clear();
  }
}

std::size_t MvaResult::bytes() const noexcept {
  const auto of = [](const auto& v) {
    return v.size() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return of(population) + of(throughput) + of(response_time) +
         of(cycle_time) + of(station_queue) + of(station_utilization) +
         of(station_residence) + of(class_population) + of(class_throughput) +
         of(class_response_time) + of(class_station_queue);
}

std::size_t MvaResult::row_for(unsigned n) const {
  for (std::size_t i = 0; i < population.size(); ++i) {
    if (population[i] == n) return i;
  }
  throw invalid_argument_error("population level not present in MVA result: " +
                               std::to_string(n));
}

MvaResult MvaResult::prefix(unsigned max_population) const {
  MTPERF_REQUIRE(max_population >= 1, "population must be at least 1");
  MTPERF_REQUIRE(max_population <= levels(),
                 "prefix deeper than the solved population range");
  MTPERF_REQUIRE(!population.empty() && population.front() == 1 &&
                     population.back() == levels(),
                 "prefix requires the canonical 1..N population numbering");
  const std::size_t n_levels = max_population;
  const std::size_t k_count = station_names.size();
  const bool all_rows = station_rows == StationRows::kAll;
  MvaResult out;
  out.station_names = station_names;
  out.station_rows = station_rows;
  out.population.assign(population.begin(), population.begin() + n_levels);
  out.throughput.assign(throughput.begin(), throughput.begin() + n_levels);
  out.response_time.assign(response_time.begin(),
                           response_time.begin() + n_levels);
  out.cycle_time.assign(cycle_time.begin(), cycle_time.begin() + n_levels);
  const std::size_t cells = n_levels * k_count;
  out.station_utilization.assign(station_utilization.begin(),
                                 station_utilization.begin() + cells);
  if (all_rows) {
    out.station_queue.assign(station_queue.begin(),
                             station_queue.begin() + cells);
    out.station_residence.assign(station_residence.begin(),
                                 station_residence.begin() + cells);
  }
  if (!class_names.empty()) {
    const std::size_t c_count = class_names.size();
    out.class_names = class_names;
    out.class_population = class_population;
    out.mc_axis = mc_axis;
    out.mc_iterations = mc_iterations;
    if (mc_axis != kNoAxis) {
      // Each level of a series result carries the axis class at that
      // level's population; the trimmed top is the new axis depth.
      out.class_population[mc_axis] = max_population;
    }
    const std::size_t class_cells = n_levels * c_count;
    out.class_throughput.assign(class_throughput.begin(),
                                class_throughput.begin() + class_cells);
    out.class_response_time.assign(class_response_time.begin(),
                                   class_response_time.begin() + class_cells);
    if (all_rows) {
      const std::size_t queue_cells = class_cells * k_count;
      out.class_station_queue.assign(
          class_station_queue.begin(),
          class_station_queue.begin() + queue_cells);
    }
  }
  return out;
}

std::vector<double> MvaResult::utilization_series(std::size_t station) const {
  MTPERF_REQUIRE(station < station_names.size(), "station index out of range");
  std::vector<double> out;
  out.reserve(levels());
  for (std::size_t i = 0; i < levels(); ++i) out.push_back(utilization(i, station));
  return out;
}

std::vector<double> MvaResult::queue_series(std::size_t station) const {
  MTPERF_REQUIRE(station < station_names.size(), "station index out of range");
  MTPERF_REQUIRE(station_rows == StationRows::kAll,
                 "queue_series needs a result solved with all station rows; "
                 "this one holds utilization rows only");
  std::vector<double> out;
  out.reserve(levels());
  for (std::size_t i = 0; i < levels(); ++i) out.push_back(queue(i, station));
  return out;
}

namespace {

std::vector<double> sample_series(const std::vector<unsigned>& population,
                                  const std::vector<double>& series,
                                  const std::vector<double>& at) {
  std::vector<double> out;
  out.reserve(at.size());
  for (double n : at) {
    const auto level = static_cast<unsigned>(std::lround(n));
    bool found = false;
    for (std::size_t i = 0; i < population.size(); ++i) {
      if (population[i] == level) {
        out.push_back(series[i]);
        found = true;
        break;
      }
    }
    MTPERF_REQUIRE(found, "requested population not covered by MVA run: " +
                              std::to_string(level));
  }
  return out;
}

}  // namespace

std::vector<double> MvaResult::throughput_at(
    const std::vector<double>& populations) const {
  return sample_series(population, throughput, populations);
}

std::vector<double> MvaResult::cycle_time_at(
    const std::vector<double>& populations) const {
  return sample_series(population, cycle_time, populations);
}

}  // namespace mtperf::core
