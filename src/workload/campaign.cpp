#include "workload/campaign.hpp"

#include "common/error.hpp"
#include "workload/monitors.hpp"

namespace mtperf::workload {

std::vector<double> CampaignResult::page_throughput_series() const {
  std::vector<double> out;
  out.reserve(runs.size());
  for (const auto& run : runs) {
    out.push_back(run.sim.throughput *
                  static_cast<double>(pages_per_transaction));
  }
  return out;
}

CampaignResult run_campaign(const ApplicationModel& app,
                            const std::vector<unsigned>& levels,
                            const CampaignSettings& settings) {
  MTPERF_REQUIRE(!levels.empty(), "campaign needs at least one level");
  for (std::size_t i = 1; i < levels.size(); ++i) {
    MTPERF_REQUIRE(levels[i] > levels[i - 1],
                   "campaign levels must be ascending and unique");
  }

  // Fire R simulated Grinder replications per level as one flat task grid
  // (cell = level x replication): every cell is an independent simulation,
  // so one parallel_for runs them without nesting, and the per-level merges
  // run afterwards in fixed order — deterministic at any pool size.  Cells
  // are claimed from the highest level down.  Every level simulates the
  // same time and a cell's visits grow with N up to saturation, flat after
  // it, so this is longest-processing-time-first without an estimate.
  MTPERF_REQUIRE(settings.replications >= 1,
                 "campaign needs at least one replication");
  const std::size_t reps = settings.replications;
  const auto replicated_options = [&](std::size_t i) {
    sim::ReplicatedSimOptions ropts;
    ropts.base = settings.grinder.to_sim_options(
        app.think_time(), settings.seed + i, settings.warmup_fraction);
    ropts.base.customers = levels[i];
    ropts.replications = settings.replications;
    ropts.base_seed = settings.seed + i;
    ropts.split_measure_time = settings.split_measure_time;
    return ropts;
  };
  std::vector<sim::ReplicationRun> grid(levels.size() * reps);
  auto run_cell = [&](std::size_t k) {
    const std::size_t cell = grid.size() - 1 - k;
    const std::size_t i = cell / reps;
    const auto rep = static_cast<unsigned>(cell % reps);
    grid[cell] = sim::run_replication(app.stations(),
                                      app.workflow(levels[i]),
                                      replicated_options(i), rep);
  };
  if (settings.pool != nullptr) {
    parallel_for(*settings.pool, grid.size(), run_cell);
  } else {
    for (std::size_t k = 0; k < grid.size(); ++k) run_cell(k);
  }

  std::vector<CampaignRun> runs(levels.size());
  for (std::size_t i = 0; i < levels.size(); ++i) {
    std::vector<sim::ReplicationRun> level_runs(
        std::make_move_iterator(grid.begin() + i * reps),
        std::make_move_iterator(grid.begin() + (i + 1) * reps));
    auto merged =
        sim::merge_replications(std::move(level_runs), replicated_options(i));
    CampaignRun run;
    run.concurrency = levels[i];
    run.sim = std::move(merged.merged);
    run.throughput_ci = merged.throughput_ci;
    run.replications = merged.replications;
    runs[i] = std::move(run);
  }

  // Assemble the measurement table.
  std::vector<std::string> names;
  std::vector<unsigned> servers;
  for (const auto& st : app.stations()) {
    names.push_back(st.name);
    servers.push_back(st.servers);
  }
  CampaignResult result{ops::DemandTable(std::move(names), std::move(servers)),
                        {},
                        app.page_count()};
  for (auto& run : runs) {
    ops::MeasuredLoadPoint point;
    point.concurrency = static_cast<double>(run.concurrency);
    point.throughput = run.sim.throughput;
    point.response_time = run.sim.response_time;
    const double monitored_interval =
        settings.grinder.duration_s * (1.0 - settings.warmup_fraction);
    const auto readings = collect_readings(run.sim, monitored_interval);
    point.utilization.reserve(readings.size());
    for (const auto& r : readings) point.utilization.push_back(r.utilization);
    result.table.add_point(std::move(point));
  }
  result.runs = std::move(runs);
  return result;
}

}  // namespace mtperf::workload
