// End-to-end prediction pipeline (paper Fig. 17):
//   measured utilization table  →  Service Demand Law  →  demand splines
//   →  MVASD  →  predicted throughput / cycle time  →  deviation vs measured.
// These helpers glue ops::DemandTable to the solvers and compute the Eq. 15
// deviation summaries reported in the paper's Tables 4 and 5.
#pragma once

#include <string>
#include <vector>

#include "core/demand_model.hpp"
#include "core/network.hpp"
#include "core/result.hpp"
#include "core/solve.hpp"
#include "core/sweep.hpp"
#include "ops/demand_table.hpp"

namespace mtperf::core {

/// Accuracy of one model against the measured campaign (Eq. 15 deviations
/// evaluated at the measured concurrency levels).
struct DeviationReport {
  std::string model;
  double throughput_deviation_pct = 0.0;
  double cycle_time_deviation_pct = 0.0;
};

/// Build the closed network implied by a measurement campaign: one
/// queueing station per monitored resource (with its server count) and the
/// terminal think time Z.
ClosedNetwork network_from_table(const ops::DemandTable& table,
                                 double think_time);

/// The campaign predictions, as specs: each returns a ScenarioSpec ready
/// for solve(), run_scenarios() or service::Engine, so benches and examples
/// state *what* to evaluate and let the facade/engine decide how.
///
/// MVASD: spline the per-station demands over the chosen axis and run
/// Algorithm 3 up to max_population.
ScenarioSpec mvasd_scenario(std::string label, const ops::DemandTable& table,
                            double think_time, unsigned max_population,
                            DemandModel::Axis axis = DemandModel::Axis::kConcurrency,
                            const interp::CubicSplineOptions& spline = {});

/// Fig. 8 baseline: same splined demands, single-server normalization.
ScenarioSpec mvasd_single_server_scenario(
    std::string label, const ops::DemandTable& table, double think_time,
    unsigned max_population, const interp::CubicSplineOptions& spline = {});

/// "MVA i" baseline (Figs. 4, 6, 7): Algorithm 2 with the *constant*
/// demands measured at the campaign row closest to
/// `demand_source_concurrency`.
ScenarioSpec mva_fixed_scenario(std::string label,
                                const ops::DemandTable& table,
                                double think_time, unsigned max_population,
                                double demand_source_concurrency);

/// Eq. 15 deviation of a prediction against the campaign's measured
/// throughput and cycle time (R + Z), at the measured concurrency levels.
DeviationReport deviation_against_measurements(const std::string& model,
                                               const MvaResult& prediction,
                                               const ops::DemandTable& table,
                                               double think_time);

}  // namespace mtperf::core
