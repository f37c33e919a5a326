// Unit tests for mtperf::workload — Grinder configuration, application
// models, monitors, test plans, and the campaign runner.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "ops/laws.hpp"
#include "workload/application.hpp"
#include "workload/campaign.hpp"
#include "workload/grinder.hpp"
#include "workload/monitors.hpp"
#include "workload/report.hpp"
#include "workload/test_plan.hpp"

namespace mtperf::workload {
namespace {

// ----------------------------------------------------------------- Grinder

TEST(Grinder, VirtualUserArithmetic) {
  GrinderConfig cfg;
  cfg.agents = 2;
  cfg.processes = 4;
  cfg.threads = 25;
  EXPECT_EQ(cfg.virtual_users(), 200u);  // the paper's formula
}

TEST(Grinder, PropertiesRoundTrip) {
  GrinderConfig cfg;
  cfg.script = "renew_policy.py";
  cfg.processes = 8;
  cfg.threads = 10;
  cfg.runs = 100;
  cfg.duration_s = 1200.0;
  cfg.initial_sleep_time_s = 5.0;
  cfg.process_increment = 2;
  cfg.process_increment_interval_s = 30.0;
  const GrinderConfig parsed = GrinderConfig::from_properties(cfg.to_properties());
  EXPECT_EQ(parsed.script, "renew_policy.py");
  EXPECT_EQ(parsed.processes, 8u);
  EXPECT_EQ(parsed.threads, 10u);
  EXPECT_EQ(parsed.runs, 100u);
  EXPECT_DOUBLE_EQ(parsed.duration_s, 1200.0);
  EXPECT_DOUBLE_EQ(parsed.initial_sleep_time_s, 5.0);
  EXPECT_EQ(parsed.process_increment, 2u);
  EXPECT_DOUBLE_EQ(parsed.process_increment_interval_s, 30.0);
}

TEST(Grinder, ParserIgnoresCommentsAndUnknownKeys) {
  const auto cfg = GrinderConfig::from_properties(
      "# a comment\n"
      "grinder.threads = 7  # trailing comment\n"
      "grinder.jvm.arguments = -Xmx512m\n"
      "not a property line\n");
  EXPECT_EQ(cfg.threads, 7u);
}

TEST(Grinder, ParserRejectsMalformedNumbers) {
  EXPECT_THROW(GrinderConfig::from_properties("grinder.threads = many\n"),
               invalid_argument_error);
}

TEST(Grinder, RampIntervalFromProcessIncrements) {
  GrinderConfig cfg;
  cfg.threads = 10;
  cfg.process_increment = 2;
  cfg.process_increment_interval_s = 60.0;
  // 2 processes * 10 threads = 20 users per 60 s -> 3 s per user.
  EXPECT_DOUBLE_EQ(cfg.per_user_ramp_interval(), 3.0);
  cfg.process_increment = 0;
  EXPECT_DOUBLE_EQ(cfg.per_user_ramp_interval(), 0.0);
}

TEST(Grinder, ToSimOptionsSplitsWarmup) {
  GrinderConfig cfg;
  cfg.threads = 5;
  cfg.duration_s = 1000.0;
  const auto opt = cfg.to_sim_options(1.0, 77, 0.3);
  EXPECT_EQ(opt.customers, 5u);
  EXPECT_DOUBLE_EQ(opt.warmup_time, 300.0);
  EXPECT_DOUBLE_EQ(opt.measure_time, 700.0);
  EXPECT_EQ(opt.seed, 77u);
  EXPECT_THROW(cfg.to_sim_options(1.0, 1, 1.5), invalid_argument_error);
}


TEST(Grinder, SleepTimeVariationMapsToThinkDistribution) {
  GrinderConfig cfg;
  cfg.threads = 3;
  cfg.duration_s = 100.0;
  cfg.sleep_time_variation = 0.5;
  const auto opt = cfg.to_sim_options(1.0, 1);
  ASSERT_TRUE(opt.think_distribution.has_value());
  EXPECT_EQ(opt.think_distribution->kind, sim::DistributionKind::kLogNormal);
  EXPECT_DOUBLE_EQ(opt.think_distribution->cv, 0.5);
  cfg.sleep_time_variation = 0.0;
  EXPECT_FALSE(cfg.to_sim_options(1.0, 1).think_distribution.has_value());
}

TEST(Grinder, VariedThinkTimePreservesMeanThroughput) {
  // Think-time variability does not change mean cycle time for a delay
  // (think) stage, so single-user throughput stays 1 / (D + Z).
  GrinderConfig cfg;
  cfg.threads = 1;
  cfg.duration_s = 2000.0;
  cfg.sleep_time_variation = 0.8;
  auto opt = cfg.to_sim_options(1.0, 5);
  const std::vector<sim::SimStation> stations{{"cpu", 1}};
  const std::vector<sim::SimVisit> flow{{0, 0.06}};
  const auto r = sim::simulate_closed_network(stations, flow, opt);
  EXPECT_NEAR(r.throughput, 1.0 / (0.06 + 1.0), 0.05);
}

// ------------------------------------------------------------ ScalingLaws

TEST(ScalingLaws, ConstantIsOne) {
  const auto law = constant_law();
  EXPECT_DOUBLE_EQ(law(1.0), 1.0);
  EXPECT_DOUBLE_EQ(law(1000.0), 1.0);
}

TEST(ScalingLaws, CachingLawDecaysToFloor) {
  const auto law = caching_law(0.6, 50.0);
  EXPECT_DOUBLE_EQ(law(1.0), 1.0);
  EXPECT_GT(law(25.0), 0.6);
  EXPECT_NEAR(law(100000.0), 0.6, 1e-6);
  // monotone decreasing
  double prev = law(1.0);
  for (double n = 2.0; n < 500.0; n *= 1.5) {
    EXPECT_LE(law(n), prev);
    prev = law(n);
  }
}

TEST(ScalingLaws, ContentionLawSaturatesAtOnePlusSlope) {
  const auto law = contention_law(0.4, 30.0);
  EXPECT_DOUBLE_EQ(law(1.0), 1.0);
  EXPECT_NEAR(law(1e9), 1.4, 1e-6);
}

TEST(ScalingLaws, Validation) {
  EXPECT_THROW(caching_law(0.0, 10.0), invalid_argument_error);
  EXPECT_THROW(caching_law(1.5, 10.0), invalid_argument_error);
  EXPECT_THROW(caching_law(0.5, 0.0), invalid_argument_error);
  EXPECT_THROW(contention_law(-0.1, 10.0), invalid_argument_error);
}

// ------------------------------------------------------- ApplicationModel

ApplicationModel tiny_app() {
  std::vector<sim::SimStation> stations{{"cpu", 2}, {"disk", 1}};
  std::vector<Page> pages{{"p1", {0.02, 0.01}}, {"p2", {0.03, 0.00}}};
  std::vector<ScalingLaw> laws{caching_law(0.5, 10.0), constant_law()};
  return ApplicationModel("tiny", std::move(stations), std::move(pages),
                          std::move(laws), 1.0);
}

TEST(ApplicationModel, TrueDemandSumsPagesAndScales) {
  const auto app = tiny_app();
  EXPECT_DOUBLE_EQ(app.true_demand(0, 1.0), 0.05);  // law(1) = 1
  EXPECT_DOUBLE_EQ(app.true_demand(1, 1.0), 0.01);
  // At large n the cpu law floor halves the demand.
  EXPECT_NEAR(app.true_demand(0, 1e6), 0.025, 1e-6);
  EXPECT_DOUBLE_EQ(app.true_demand(1, 1e6), 0.01);
}

TEST(ApplicationModel, WorkflowSkipsZeroDemandVisits) {
  const auto app = tiny_app();
  const auto flow = app.workflow(1.0);
  // p1 visits cpu+disk, p2 visits cpu only -> 3 visits.
  ASSERT_EQ(flow.size(), 3u);
  EXPECT_EQ(flow[0].station, 0u);
  EXPECT_EQ(flow[1].station, 1u);
  EXPECT_EQ(flow[2].station, 0u);
}

TEST(ApplicationModel, WorkflowDemandsSumToTrueDemand) {
  const auto app = tiny_app();
  for (double n : {1.0, 5.0, 50.0}) {
    const auto flow = app.workflow(n);
    double cpu = 0.0;
    for (const auto& v : flow) {
      if (v.station == 0) cpu += v.mean_service_time;
    }
    EXPECT_NEAR(cpu, app.true_demand(0, n), 1e-12);
  }
}

TEST(ApplicationModel, Validation) {
  std::vector<sim::SimStation> stations{{"cpu", 1}};
  std::vector<ScalingLaw> laws{constant_law()};
  EXPECT_THROW(ApplicationModel("x", stations, {{"p", {0.1, 0.2}}}, laws, 1.0),
               invalid_argument_error);  // page width mismatch
  EXPECT_THROW(ApplicationModel("x", stations, {}, laws, 1.0),
               invalid_argument_error);
  EXPECT_THROW(ApplicationModel("x", stations, {{"p", {0.1}}}, {}, 1.0),
               invalid_argument_error);
  const auto app = tiny_app();
  EXPECT_THROW(app.true_demand(5, 1.0), invalid_argument_error);
  EXPECT_THROW(app.workflow(0.5), invalid_argument_error);
}

// ---------------------------------------------------------------- monitors

TEST(Monitors, PacketCountersInvertEq7) {
  const auto counters = emulate_packet_counters(0.25, 10.0);
  // Re-applying Eq. 7 must recover 25%.
  const double util = ops::network_utilization_percent(
      counters.packets, counters.packet_size_bytes, counters.interval_seconds,
      counters.bandwidth_bps);
  EXPECT_NEAR(util, 25.0, 1e-9);
}

TEST(Monitors, CollectReadingsRoundTripsNetworkStations) {
  sim::SimResult result;
  result.stations = {{"db/cpu", 16, 0.35, 2.0, 100},
                     {"db/net-tx", 1, 0.10, 0.1, 100}};
  const auto readings = collect_readings(result, 60.0);
  ASSERT_EQ(readings.size(), 2u);
  EXPECT_NEAR(readings[0].utilization, 0.35, 1e-12);  // vmstat path
  EXPECT_NEAR(readings[1].utilization, 0.10, 1e-9);   // netstat path
}

// --------------------------------------------------------------- test plan

TEST(TestPlan, ChebyshevMatchesPaperNodes) {
  const auto plan = plan_concurrency_levels(1, 300, 3,
                                            SamplingStrategy::kChebyshev);
  EXPECT_EQ(plan, (std::vector<unsigned>{22, 151, 280}));
}

TEST(TestPlan, EquispacedCoversRange) {
  const auto plan = plan_concurrency_levels(1, 100, 5,
                                            SamplingStrategy::kEquispaced);
  ASSERT_EQ(plan.size(), 5u);
  EXPECT_EQ(plan.front(), 1u);
  EXPECT_EQ(plan.back(), 100u);
}

TEST(TestPlan, RandomIsSortedUniqueInRange) {
  const auto plan =
      plan_concurrency_levels(10, 500, 6, SamplingStrategy::kRandom, 99);
  ASSERT_EQ(plan.size(), 6u);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_GE(plan[i], 10u);
    EXPECT_LE(plan[i], 500u);
    if (i) EXPECT_GT(plan[i], plan[i - 1]);
  }
}

TEST(TestPlan, IncludeSingleUserAnchorsSplines) {
  const auto plan = plan_concurrency_levels(
      1, 300, 3, SamplingStrategy::kChebyshev, 1, /*include_single_user=*/true);
  EXPECT_EQ(plan.front(), 1u);
  EXPECT_EQ(plan.size(), 4u);
}

TEST(TestPlan, Validation) {
  EXPECT_THROW(plan_concurrency_levels(0, 10, 3, SamplingStrategy::kChebyshev),
               invalid_argument_error);
  EXPECT_THROW(plan_concurrency_levels(10, 10, 3, SamplingStrategy::kChebyshev),
               invalid_argument_error);
  EXPECT_THROW(plan_concurrency_levels(1, 10, 0, SamplingStrategy::kChebyshev),
               invalid_argument_error);
}

// ---------------------------------------------------------------- campaign

CampaignSettings quick_settings() {
  CampaignSettings s;
  s.grinder.duration_s = 240.0;
  s.warmup_fraction = 0.25;
  s.seed = 5;
  return s;
}

TEST(Campaign, ProducesOneRowPerLevel) {
  const auto app = tiny_app();
  const auto result = run_campaign(app, {1, 4, 8}, quick_settings());
  EXPECT_EQ(result.runs.size(), 3u);
  EXPECT_EQ(result.table.points().size(), 3u);
  EXPECT_EQ(result.pages_per_transaction, 2u);
  EXPECT_EQ(result.table.stations().size(), 2u);
  // Throughput grows with offered load below saturation.
  EXPECT_GT(result.table.points()[2].throughput,
            result.table.points()[0].throughput);
}

TEST(Campaign, ExtractedDemandsApproximateTrueDemands) {
  const auto app = tiny_app();
  CampaignSettings s = quick_settings();
  s.grinder.duration_s = 1200.0;
  const auto result = run_campaign(app, {1, 6, 12}, s);
  const auto cpu = result.table.demand_vs_concurrency(0);
  for (std::size_t i = 0; i < cpu.size(); ++i) {
    const double truth = app.true_demand(0, cpu.x[i]);
    EXPECT_NEAR(cpu.y[i], truth, 0.12 * truth) << "level " << cpu.x[i];
  }
}

/// Every SimResult field, bit for bit (the fields test_sim_golden pins).
void expect_same_sim(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.response_time, b.response_time);
  EXPECT_EQ(a.cycle_time, b.cycle_time);
  EXPECT_EQ(a.response_time_ci.mean, b.response_time_ci.mean);
  EXPECT_EQ(a.response_time_ci.half_width, b.response_time_ci.half_width);
  EXPECT_EQ(a.response_percentiles.p50, b.response_percentiles.p50);
  EXPECT_EQ(a.response_percentiles.p90, b.response_percentiles.p90);
  EXPECT_EQ(a.response_percentiles.p95, b.response_percentiles.p95);
  EXPECT_EQ(a.response_percentiles.p99, b.response_percentiles.p99);
  ASSERT_EQ(a.stations.size(), b.stations.size());
  for (std::size_t k = 0; k < a.stations.size(); ++k) {
    EXPECT_EQ(a.stations[k].utilization, b.stations[k].utilization);
    EXPECT_EQ(a.stations[k].mean_jobs, b.stations[k].mean_jobs);
    EXPECT_EQ(a.stations[k].completions, b.stations[k].completions);
  }
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t t = 0; t < a.timeline.size(); ++t) {
    EXPECT_EQ(a.timeline[t].start_time, b.timeline[t].start_time);
    EXPECT_EQ(a.timeline[t].throughput, b.timeline[t].throughput);
    EXPECT_EQ(a.timeline[t].response_time, b.timeline[t].response_time);
  }
}

TEST(Campaign, ParallelAndSequentialAgree) {
  // The grid's cells are claimed from the highest level down, so with 4
  // levels x 2 replications the claim order is not the index order, and on
  // a pool it varies from run to run.  Every level must still merge to the
  // sequential result bit for bit, at every pool size.
  const auto app = tiny_app();
  CampaignSettings s = quick_settings();
  s.replications = 2;
  const std::vector<unsigned> levels{1, 3, 6, 10};
  const auto seq = run_campaign(app, levels, s);
  ASSERT_EQ(seq.runs.size(), levels.size());
  for (const std::size_t workers : {1, 2, 3}) {
    SCOPED_TRACE(workers);
    ThreadPool pool(workers);
    s.pool = &pool;
    const auto par = run_campaign(app, levels, s);
    ASSERT_EQ(par.runs.size(), seq.runs.size());
    for (std::size_t i = 0; i < seq.runs.size(); ++i) {
      SCOPED_TRACE(levels[i]);
      EXPECT_EQ(par.runs[i].concurrency, levels[i]);
      EXPECT_EQ(par.runs[i].replications, seq.runs[i].replications);
      EXPECT_EQ(par.runs[i].throughput_ci.mean, seq.runs[i].throughput_ci.mean);
      EXPECT_EQ(par.runs[i].throughput_ci.half_width,
                seq.runs[i].throughput_ci.half_width);
      expect_same_sim(par.runs[i].sim, seq.runs[i].sim);
    }
  }
}

TEST(Campaign, ReplicatedLevelsMergeDeterministically) {
  // R > 1 runs a flat level x replication grid; the merged per-level
  // results must carry an across-replication CI and be bit-identical
  // whether the grid ran on a pool or sequentially.
  const auto app = tiny_app();
  CampaignSettings s = quick_settings();
  s.replications = 3;
  const auto seq = run_campaign(app, {2, 5}, s);
  ThreadPool pool(4);
  s.pool = &pool;
  const auto par = run_campaign(app, {2, 5}, s);
  ASSERT_EQ(seq.runs.size(), 2u);
  for (std::size_t i = 0; i < seq.runs.size(); ++i) {
    EXPECT_EQ(seq.runs[i].replications, 3u);
    EXPECT_GT(seq.runs[i].throughput_ci.half_width, 0.0);
    EXPECT_EQ(seq.runs[i].sim.transactions, par.runs[i].sim.transactions);
    EXPECT_EQ(seq.runs[i].sim.throughput, par.runs[i].sim.throughput);
    EXPECT_EQ(seq.runs[i].sim.response_time, par.runs[i].sim.response_time);
    EXPECT_EQ(seq.runs[i].throughput_ci.half_width,
              par.runs[i].throughput_ci.half_width);
  }
  // One replication keeps the old single-run behaviour (CI collapses).
  s.replications = 1;
  s.pool = nullptr;
  const auto single = run_campaign(app, {2, 5}, s);
  EXPECT_EQ(single.runs[0].throughput_ci.half_width, 0.0);
}

TEST(Campaign, RejectsUnsortedLevels) {
  const auto app = tiny_app();
  EXPECT_THROW(run_campaign(app, {4, 1}, quick_settings()),
               invalid_argument_error);
  EXPECT_THROW(run_campaign(app, {}, quick_settings()),
               invalid_argument_error);
}

TEST(Campaign, PageThroughputScalesTransactions) {
  const auto app = tiny_app();
  const auto result = run_campaign(app, {2}, quick_settings());
  const auto pages = result.page_throughput_series();
  ASSERT_EQ(pages.size(), 1u);
  EXPECT_NEAR(pages[0], result.runs[0].sim.throughput * 2.0, 1e-12);
}

// ------------------------------------------------------------------ report

TEST(Report, UtilizationTableRendersGroupsAndRows) {
  std::vector<sim::SimStation> stations{{"db/cpu", 2}, {"db/disk", 1}};
  std::vector<Page> pages{{"p", {0.02, 0.01}}};
  std::vector<ScalingLaw> laws{constant_law(), constant_law()};
  const ApplicationModel app("t", stations, pages, laws, 1.0);
  const auto result = run_campaign(app, {1, 3}, quick_settings());
  const std::string table = utilization_table(result, "Table X").to_string();
  EXPECT_NE(table.find("Table X"), std::string::npos);
  EXPECT_NE(table.find("db"), std::string::npos);
  EXPECT_NE(table.find("cpu"), std::string::npos);
  const std::string meas = measurement_table(result, "Grinder").to_string();
  EXPECT_NE(meas.find("Throughput"), std::string::npos);
}

}  // namespace
}  // namespace mtperf::workload
