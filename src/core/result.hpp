// Output of every MVA-family solver: the full recursion trace from 1 to N
// customers.  The paper's figures plot exactly these series (throughput and
// cycle time vs concurrency; per-station utilization vs concurrency).
//
// Per-station series are stored structure-of-arrays: one flat row-major
// levels × stations buffer per quantity, pre-sized once by reset().  The
// solvers write rows in place (no per-population allocation) and readers go
// through the (level, station) accessors.
//
// A result holds every per-station row, or, when solved with
// StationRows::kUtilization, the utilization rows alone: the shape a served
// response needs, at a third of the per-station bytes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mtperf::core {

/// Which per-station rows a solve computes and stores (SolveOptions::
/// station_rows).  The system series (population, X, R, Z), the class
/// throughputs and response times, and the multiclass metadata are always
/// there.
enum class StationRows {
  /// Queue, utilization and residence of every station, plus the per-class
  /// station queues of multiclass results (the default).
  kAll,
  /// Utilization rows only: station_queue, station_residence and
  /// class_station_queue stay empty, and the kernels skip the work that
  /// only feeds them.  The scenario server asks for this shape, since its
  /// responses carry X, R, Z and utilizations and nothing else.
  kUtilization,
};

struct MvaResult {
  /// Population levels the recursion visited (1..N).
  std::vector<unsigned> population;
  /// X_n — system throughput at each population.
  std::vector<double> throughput;
  /// R_n — system response time at each population.
  std::vector<double> response_time;
  /// R_n + Z — cycle time (what the paper's response-time tables report).
  std::vector<double> cycle_time;
  /// Q_k at each population, flat row-major: station_queue[(n-1)*K + k].
  std::vector<double> station_queue;
  /// Per-server utilization X_n V_k S_k / C_k, same layout.
  std::vector<double> station_utilization;
  /// Residence time V_k R_k, same layout.
  std::vector<double> station_residence;
  /// Station names; their count is the row stride of the flat buffers.
  std::vector<std::string> station_names;
  /// The rows this result holds (set by reset()).  Under kUtilization the
  /// queue and residence buffers, and class_station_queue, are empty, and
  /// their accessors must not be called.
  StationRows station_rows = StationRows::kAll;

  // ------------------------------------------------------------------
  // Multiclass extension.  Empty for single-class solvers; the multiclass
  // kinds additionally fill these SoA buffers with per-class series in the
  // same levels-major layout as the station buffers.  The aggregate rows
  // above stay populated (throughput = sum of class throughputs, and so
  // on), so every single-class consumer — the cache, the serve protocol,
  // the series output — reads multiclass results unchanged.

  /// Class names; their count is the class-row stride.  Nonempty marks a
  /// multiclass result.
  std::vector<std::string> class_names;
  /// Per-class population at the deepest level (the requested mix).  For
  /// the series solvers the axis class's entry equals population.back().
  std::vector<unsigned> class_population;
  /// X_c per level, flat row-major: class_throughput[level * C + c].
  std::vector<double> class_throughput;
  /// R_c per level (per-class response time), same layout.
  std::vector<double> class_response_time;
  /// Q_{c,k} per level, flat: [level * C * K + c * K + k].
  std::vector<double> class_station_queue;
  /// Index (into the class arrays) of the population axis class for the
  /// series solvers — the class whose population varies 1..levels() while
  /// the others stay at full strength.  npos for single-mix results (MoM).
  static constexpr std::size_t kNoAxis = static_cast<std::size_t>(-1);
  std::size_t mc_axis = kNoAxis;
  /// Iteration report for the approximate multiclass solver: the largest
  /// fixed-point iteration count any level needed (0 for exact solvers).
  /// Results are only produced when the fixed point converged; exhaustion
  /// throws mtperf::numeric_error instead.
  unsigned mc_iterations = 0;

  std::size_t levels() const noexcept { return population.size(); }
  std::size_t stations() const noexcept { return station_names.size(); }
  std::size_t classes() const noexcept { return class_names.size(); }
  /// Bytes of the numeric buffers (names excluded).
  std::size_t bytes() const noexcept;

  /// (level, class) accessors into the flat multiclass buffers.
  double class_x(std::size_t level, std::size_t c) const noexcept {
    return class_throughput[level * class_names.size() + c];
  }
  double class_r(std::size_t level, std::size_t c) const noexcept {
    return class_response_time[level * class_names.size() + c];
  }
  double class_queue(std::size_t level, std::size_t c,
                     std::size_t station) const noexcept {
    const std::size_t stride = class_names.size() * station_names.size();
    return class_station_queue[level * stride + c * station_names.size() +
                               station];
  }

  /// Pre-size the multiclass buffers for levels() rows over the named
  /// classes (call after reset(); class_station_queue only for kAll).
  void reset_classes(std::vector<std::string> names,
                     std::vector<unsigned> populations);

  /// Pre-size the buffers `rows` asks for, for `levels` population levels
  /// over the named stations, and fill `population` with 1..levels.
  /// Solvers call this once up front and then write rows in place.
  void reset(std::vector<std::string> names, std::size_t levels,
             StationRows rows = StationRows::kAll);

  /// (level, station) accessors into the flat buffers; `level` is the
  /// 0-based row index (population n lives at level n-1).
  double queue(std::size_t level, std::size_t station) const noexcept {
    return station_queue[level * station_names.size() + station];
  }
  double utilization(std::size_t level, std::size_t station) const noexcept {
    return station_utilization[level * station_names.size() + station];
  }
  double residence(std::size_t level, std::size_t station) const noexcept {
    return station_residence[level * station_names.size() + station];
  }

  /// Mutable row pointers for solver inner loops.
  double* queue_row(std::size_t level) noexcept {
    return station_queue.data() + level * station_names.size();
  }
  double* utilization_row(std::size_t level) noexcept {
    return station_utilization.data() + level * station_names.size();
  }
  double* residence_row(std::size_t level) noexcept {
    return station_residence.data() + level * station_names.size();
  }

  /// Index of the row for population n; throws if the recursion did not
  /// visit n.
  std::size_t row_for(unsigned n) const;

  /// Copy of the first `max_population` levels (1..N' of this result's
  /// 1..N).  Every MVA recursion here computes level n from levels below
  /// it only, so the prefix of a deep solve is identical to a shallower
  /// solve — the property the scenario engine's cached-prefix reuse rests
  /// on.  Requires levels() >= max_population >= 1 and the canonical
  /// population numbering 1..N that reset() establishes.
  ///
  /// Multiclass results trim the class buffers too.  For the series
  /// solvers a level is a full solve of the mix with the axis class at
  /// that level's population, so the trimmed result is identical to
  /// solving the shallower mix directly — the multiclass mix-prefix
  /// reuse the scenario engine rests on.  (The axis class's entry in
  /// class_population is adjusted to the new depth.)  The copy holds the
  /// same rows as this result.
  MvaResult prefix(unsigned max_population) const;

  /// Series of one station's utilization across all populations.
  std::vector<double> utilization_series(std::size_t station) const;
  /// Series of one station's mean queue length across all populations;
  /// throws mtperf::invalid_argument_error on a utilization-only result.
  std::vector<double> queue_series(std::size_t station) const;

  /// Subset of the throughput / cycle-time series at the given populations
  /// (for comparing against measurements taken at those levels).
  std::vector<double> throughput_at(const std::vector<double>& populations) const;
  std::vector<double> cycle_time_at(const std::vector<double>& populations) const;
};

}  // namespace mtperf::core
