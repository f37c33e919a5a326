#include "core/prediction.hpp"

#include "common/stats.hpp"

namespace mtperf::core {

ClosedNetwork network_from_table(const ops::DemandTable& table,
                                 double think_time) {
  return make_network(table.stations(), table.servers(), think_time);
}

ScenarioSpec mvasd_scenario(std::string label, const ops::DemandTable& table,
                            double think_time, unsigned max_population,
                            DemandModel::Axis axis,
                            const interp::CubicSplineOptions& spline) {
  ScenarioSpec spec;
  spec.label = std::move(label);
  spec.network = network_from_table(table, think_time);
  spec.demands = DemandModel::from_table(table, axis, spline);
  spec.options.solver = SolverKind::kMvasd;
  spec.options.max_population = max_population;
  return spec;
}

ScenarioSpec mvasd_single_server_scenario(
    std::string label, const ops::DemandTable& table, double think_time,
    unsigned max_population, const interp::CubicSplineOptions& spline) {
  ScenarioSpec spec;
  spec.label = std::move(label);
  spec.network = network_from_table(table, think_time);
  spec.demands =
      DemandModel::from_table(table, DemandModel::Axis::kConcurrency, spline);
  spec.options.solver = SolverKind::kMvasdSingleServer;
  spec.options.max_population = max_population;
  return spec;
}

ScenarioSpec mva_fixed_scenario(std::string label,
                                const ops::DemandTable& table,
                                double think_time, unsigned max_population,
                                double demand_source_concurrency) {
  ScenarioSpec spec;
  spec.label = std::move(label);
  spec.network = network_from_table(table, think_time);
  spec.demands = DemandModel::constant(
      table.demands_at_concurrency(demand_source_concurrency));
  spec.options.solver = SolverKind::kMvasd;
  spec.options.max_population = max_population;
  return spec;
}

DeviationReport deviation_against_measurements(const std::string& model,
                                               const MvaResult& prediction,
                                               const ops::DemandTable& table,
                                               double think_time) {
  const std::vector<double> at = table.concurrency_series();
  const std::vector<double> measured_x = table.throughput_series();
  std::vector<double> measured_cycle = table.response_time_series();
  for (double& r : measured_cycle) r += think_time;

  DeviationReport report;
  report.model = model;
  report.throughput_deviation_pct =
      mean_percent_deviation(prediction.throughput_at(at), measured_x);
  report.cycle_time_deviation_pct =
      mean_percent_deviation(prediction.cycle_time_at(at), measured_cycle);
  return report;
}

}  // namespace mtperf::core
