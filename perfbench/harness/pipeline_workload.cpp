// pipeline-chebyshev: the paper's Fig. 17 workflow in-process, one op per
// prediction — Chebyshev test plan, simulated load-test campaign, Service
// Demand Law extraction, demand splines, and MVASD to the app's maximum
// user count.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <unistd.h>

#include "apps/jpetstore.hpp"
#include "apps/vins.hpp"
#include "common/thread_pool.hpp"
#include "core/prediction.hpp"
#include "core/solve.hpp"
#include "corpus.hpp"
#include "measure.hpp"
#include "workload/campaign.hpp"
#include "workload/test_plan.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mtperf::service::Json;
namespace core = mtperf::core;
namespace workload = mtperf::workload;

constexpr std::size_t kPoolWorkers = 2;
constexpr unsigned kReplications = 2;
constexpr double kThinkTime = 1.0;
constexpr std::uint64_t kReplayOps = 12;
/// Simulated seconds per op, split evenly across its levels, so ops with 3,
/// 5 or 7 nodes cost about the same.  JPetStore simulates fewer events per
/// simulated second than VINS, so it gets the larger budget; the two are
/// set so the apps' ops cost the same too, and the median op does not sit
/// on a gap between two apps' costs.
constexpr double kVinsBudgetS = 82.0;
constexpr double kJPetStoreBudgetS = 160.0;
/// Eq. 15 throughput deviation of a prediction against its own campaign.
/// Short simulated campaigns put a heavy tail on single ops (VINS with 3
/// nodes reached 20%; most stay under 7%), so one op fails only past
/// kMaxDeviationPct, a broken pipeline; the run fails when the median over
/// its ops passes kMaxMedianDeviationPct (the paper reports 1-3%;
/// seed-commit run medians are 2.7-3.0%).
constexpr double kMaxDeviationPct = 50.0;
constexpr double kMaxMedianDeviationPct = 5.0;

struct Apps {
  workload::ApplicationModel vins = mtperf::apps::make_vins();
  workload::ApplicationModel jpetstore = mtperf::apps::make_jpetstore();
};

struct OpOutcome {
  double deviation_pct = 0.0;
  std::uint64_t completions = 0;
  bool ok = false;
};

OpOutcome run_op(std::uint64_t seed, std::uint64_t index, const Apps& apps,
                 mtperf::ThreadPool& pool, SpanRecorder* rec) {
  const PipelineOp op = pipeline_op(seed, index);
  Scope whole(rec, "pipeline.op", index);
  const workload::ApplicationModel& app = op.vins ? apps.vins : apps.jpetstore;
  const unsigned max_users = op.vins ? mtperf::apps::kVinsMaxUsers
                                     : mtperf::apps::kJPetStoreMaxUsers;
  std::vector<unsigned> levels;
  {
    Scope s(rec, "workload.plan_concurrency_levels", index);
    levels = workload::plan_concurrency_levels(
        1, max_users, op.nodes, workload::SamplingStrategy::kChebyshev, 1,
        /*include_single_user=*/true);
  }
  workload::CampaignSettings settings;
  settings.grinder.duration_s =
      (op.vins ? kVinsBudgetS : kJPetStoreBudgetS) /
      static_cast<double>(levels.size());
  settings.seed = op.campaign_seed;
  settings.replications = kReplications;
  settings.pool = &pool;
  const workload::CampaignResult campaign = [&] {
    Scope s(rec, "workload.run_campaign", index);
    return workload::run_campaign(app, levels, settings);
  }();
  {
    Scope s(rec, "ops.demand_vs_concurrency", index);
    for (std::size_t k = 0; k < campaign.table.stations().size(); ++k) {
      const auto samples = campaign.table.demand_vs_concurrency(k);
      if (samples.x.empty()) throw std::runtime_error("empty demand samples");
    }
  }
  core::ScenarioSpec spec;
  {
    Scope s(rec, "core.mvasd_scenario", index);
    spec = core::mvasd_scenario("mvasd", campaign.table, kThinkTime, max_users);
  }
  core::MvaResult prediction;
  {
    Scope s(rec, "core.solve", index);
    prediction = core::solve(spec.network, &spec.demands, spec.options);
  }
  OpOutcome out;
  out.deviation_pct = core::deviation_against_measurements(
                          "mvasd", prediction, campaign.table, kThinkTime)
                          .throughput_deviation_pct;
  for (const auto& run : campaign.runs) out.completions += run.sim.transactions;
  out.ok = prediction.levels() == max_users &&
           std::isfinite(out.deviation_pct) &&
           std::fabs(out.deviation_pct) <= kMaxDeviationPct;
  return out;
}

void replay_layers(RunResult& run, const Options& options, const Apps& apps,
                   mtperf::ThreadPool& pool) {
  double max_dev = 0.0;
  std::uint64_t completions = 0;
  const auto replay = [&](SpanRecorder* rec) {
    max_dev = 0.0;
    completions = 0;
    run.failed = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 1; i <= kReplayOps; ++i) {
      const OpOutcome o = run_op(options.seed, i, apps, pool, rec);
      max_dev = std::max(max_dev, std::fabs(o.deviation_pct));
      completions += o.completions;
      run.failed += !o.ok;
    }
    return seconds_between(t0, Clock::now());
  };
  replay(nullptr);  // warm-up, discarded (see the serve replay)
  const double plain_s = replay(nullptr);
  SpanRecorder rec;
  const std::uint64_t tasks0 = pool.tasks_submitted();
  const double traced_s = replay(&rec);
  const std::uint64_t tasks = pool.tasks_submitted() - tasks0;
  rec.write_jsonl(options.out_dir + "/spans-" + options.workload + "-seed" +
                  std::to_string(options.seed) + ".jsonl");

  std::map<std::string, double> t = span_totals(rec.spans());
  const double ops = static_cast<double>(kReplayOps);
  const double campaign_s = t["workload.run_campaign"] * 1e-6;
  set_layer(run, "workload.campaign_ms", t["workload.run_campaign"] / ops / 1e3);
  set_layer(run, "sim.completions", static_cast<double>(completions));
  set_layer(run, "sim.completions_per_s",
            static_cast<double>(completions) / campaign_s);
  set_layer(run, "common.pool_tasks", static_cast<double>(tasks));
  set_layer(run, "ops.extract_us", t["ops.demand_vs_concurrency"] / ops);
  set_layer(run, "interp.spline_us", t["core.mvasd_scenario"] / ops);
  set_layer(run, "core.mvasd_us", t["core.solve"] / ops);
  set_layer(run, "core.mvasd_dev_pct_max", max_dev);
  set_layer(run, "trace.overhead_pct", 100.0 * (traced_s - plain_s) / plain_s);

  const double op_us = t["pipeline.op"];
  Json::Object shares;
  shares["workload.run_campaign"] = t["workload.run_campaign"] / op_us;
  shares["ops.demand_vs_concurrency"] = t["ops.demand_vs_concurrency"] / op_us;
  shares["core.mvasd_scenario"] = t["core.mvasd_scenario"] / op_us;
  shares["core.solve"] = t["core.solve"] / op_us;
  shares["workload.plan_concurrency_levels"] =
      t["workload.plan_concurrency_levels"] / op_us;
  Json::Object info;
  info["ops"] = static_cast<unsigned long long>(kReplayOps);
  info["untraced_s"] = plain_s;
  info["traced_s"] = traced_s;
  info["spans"] = static_cast<unsigned long long>(rec.spans().size());
  info["shares"] = Json(std::move(shares));
  run.details["replay"] = Json(std::move(info));
}

}  // namespace

RunResult run_pipeline(const Options& options) {
  RunResult run;
  const pid_t self = ::getpid();
  // Set-up: app models, the worker pool, and one untimed op of the same
  // shape; repeated so setup_s is a median.
  std::vector<double> setup_s;
  std::unique_ptr<Apps> apps;
  std::unique_ptr<mtperf::ThreadPool> pool;
  bool primed_ok = true;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    pool.reset();
    apps.reset();
    const auto t0 = Clock::now();
    apps = std::make_unique<Apps>();
    pool = std::make_unique<mtperf::ThreadPool>(kPoolWorkers);
    primed_ok = run_op(options.seed, 0, *apps, *pool, nullptr).ok;
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  if (options.trace) {
    // Per-layer metrics come from the replay alone; the end-to-end metrics
    // of a traced run are not reported.
    replay_layers(run, options, *apps, *pool);
    run.attempted = kReplayOps;
    run.correct = primed_ok && run.failed == 0;
    return run;
  }

  std::vector<double> latencies;
  std::vector<double> deviations;
  std::uint64_t ok = 0;
  const MachineTicks machine0 = machine_ticks();
  const double cpu0 = process_cpu_seconds(self);
  const double gen0 = thread_cpu_seconds();
  const auto t0 = Clock::now();
  std::uint64_t index = 1;
  for (; seconds_between(t0, Clock::now()) < options.seconds; ++index) {
    const auto op0 = Clock::now();
    const OpOutcome o = run_op(options.seed, index, *apps, *pool, nullptr);
    latencies.push_back(seconds_between(op0, Clock::now()) * 1e3);
    deviations.push_back(o.deviation_pct);
    ok += o.ok;
  }
  const double wall_s = seconds_between(t0, Clock::now());
  const double cpu_s = process_cpu_seconds(self) - cpu0;
  const double gen_s = thread_cpu_seconds() - gen0;
  run.details["machine_steal_pct"] = steal_pct(machine0, machine_ticks());
  const std::uint64_t attempted = index - 1;

  std::vector<double> abs_dev;
  for (double d : deviations) abs_dev.push_back(std::fabs(d));
  const double median_dev = median(abs_dev);
  run.attempted = attempted;
  run.failed = attempted - ok;
  run.correct = run.failed == 0 && primed_ok &&
                median_dev <= kMaxMedianDeviationPct;
  add_latency_metrics(run, std::move(latencies), ok, wall_s);
  run.end_to_end.push_back(
      {"cpu_us_per_op", cpu_s * 1e6 / double(attempted), "us"});
  run.end_to_end.push_back({"peak_rss_mb", process_peak_rss_mb(self), "MB"});
  run.end_to_end.push_back({"ok_ratio", double(ok) / double(attempted), "1"});
  run.end_to_end.push_back({"setup_s", median(setup_s), "s"});

  Json::Object phases;
  phases["priming"] = phase_counts(1, primed_ok, !primed_ok, 0.0);
  // The caller thread plans, extracts, splines and solves; the pool
  // workers simulate.  Its own CPU is the generator share here.
  phases["timed"] = phase_counts(attempted, ok, attempted - ok, gen_s);
  run.details["phases"] = Json(std::move(phases));
  Json::Array devs, setups;
  for (double d : deviations) devs.emplace_back(d);
  for (double s : setup_s) setups.emplace_back(s);
  run.details["deviation_pct"] = Json(std::move(devs));
  run.details["median_abs_deviation_pct"] = median_dev;
  run.details["setup_runs_s"] = Json(std::move(setups));
  Json::Object shape;
  shape["pool_workers"] = static_cast<unsigned long long>(kPoolWorkers);
  shape["replications"] = static_cast<unsigned long long>(kReplications);
  shape["vins_budget_sim_s"] = kVinsBudgetS;
  shape["jpetstore_budget_sim_s"] = kJPetStoreBudgetS;
  shape["max_deviation_pct"] = kMaxDeviationPct;
  shape["max_median_deviation_pct"] = kMaxMedianDeviationPct;
  run.details["load_shape"] = Json(std::move(shape));
  return run;
}

}  // namespace perfbench
