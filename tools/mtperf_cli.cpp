// mtperf — command-line front end for the library.
//
// Workflow (paper Fig. 17) without writing C++:
//
//   mtperf plan     --min 1 --max 300 --points 5 [--strategy chebyshev]
//   mtperf simulate --app jpetstore --levels 1,14,28,70,140 --out camp.csv
//   mtperf predict  --campaign camp.csv --think 1.0 --max-users 300
//   mtperf bounds   --campaign camp.csv --think 1.0 --users 200
//
// `simulate` drives the built-in simulated testbed (the stand-in for a real
// load-test run); with real measurements, write the same CSV by hand:
//   concurrency,throughput,response_time,db/cpu:16,db/disk:1,...
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/jpetstore.hpp"
#include "apps/vins.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/prediction.hpp"
#include "ops/bounds.hpp"
#include "ops/demand_table_io.hpp"
#include "parse_number.hpp"
#include "workload/campaign.hpp"
#include "workload/report.hpp"
#include "workload/test_plan.hpp"

namespace {

using namespace mtperf;

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr, R"(usage: mtperf <command> [options]

commands:
  plan      generate load-test concurrency levels
              --min N --max N --points K
              [--strategy chebyshev|equispaced|random] [--seed S]
              [--include-single-user]
  simulate  run a simulated load-test campaign and write it as CSV
              --app vins|jpetstore --out FILE
              [--levels 1,14,28,...] [--duration SECONDS] [--seed S]
  predict   model a campaign CSV with the MVA family
              --campaign FILE --think Z --max-users N
              [--model mvasd|mvasd-ss|mva-fixed] [--at-concurrency I]
              [--axis concurrency|throughput] [--step K]
  bounds    operational-analysis envelope from a campaign CSV
              --campaign FILE --think Z --users N
  describe  sketch the queueing network a campaign implies
              --campaign FILE --think Z
)");
  std::exit(error != nullptr ? 2 : 0);
}

/// Parse an option value as exactly a T (see tools::parse_exact), or exit 2
/// through usage() naming the option.
template <typename T>
T parse_number(const std::string& key, const std::string& text) {
  T out{};
  if (tools::parse_exact(text, out)) return out;
  usage(("option --" + key + " expects " + tools::expected_number<T>() +
         ", got '" + text + "'")
            .c_str());
}

/// Tiny --key value / --flag parser.
class Args {
 public:
  Args(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) usage(("unexpected argument: " + key).c_str());
      key = key.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // boolean flag
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  std::string str(const std::string& key,
                  std::optional<std::string> fallback = std::nullopt) const {
    const auto it = values_.find(key);
    if (it != values_.end()) return it->second;
    if (fallback) return *fallback;
    usage(("missing required option --" + key).c_str());
  }

  /// The option's value as a T (double, or the integer type it is used
  /// as); see parse_number.
  template <typename T>
  T num(const std::string& key,
        std::optional<T> fallback = std::nullopt) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      if (fallback) return *fallback;
      usage(("missing required option --" + key).c_str());
    }
    return parse_number<T>(key, it->second);
  }

  std::vector<unsigned> levels(const std::string& key) const {
    std::vector<unsigned> out;
    const auto it = values_.find(key);
    if (it == values_.end()) return out;
    std::string cell;
    std::istringstream is(it->second);
    while (std::getline(is, cell, ',')) {
      out.push_back(parse_number<unsigned>(key, cell));
    }
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
};

int cmd_plan(const Args& args) {
  const auto lo = args.num<unsigned>("min", 1u);
  const auto hi = args.num<unsigned>("max");
  const auto points = args.num<std::size_t>("points");
  const std::string strategy = args.str("strategy", std::string("chebyshev"));
  workload::SamplingStrategy s = workload::SamplingStrategy::kChebyshev;
  if (strategy == "equispaced") s = workload::SamplingStrategy::kEquispaced;
  else if (strategy == "random") s = workload::SamplingStrategy::kRandom;
  else if (strategy != "chebyshev") usage("unknown --strategy");
  const auto levels = workload::plan_concurrency_levels(
      lo, hi, points, s, args.num<std::uint64_t>("seed", 1u),
      args.has("include-single-user"));
  std::printf("# %s plan over [%u, %u]\n", strategy.c_str(), lo, hi);
  for (unsigned u : levels) std::printf("%u\n", u);
  return 0;
}

int cmd_simulate(const Args& args) {
  const std::string app_name = args.str("app");
  workload::ApplicationModel app =
      app_name == "vins" ? apps::make_vins()
      : app_name == "jpetstore"
          ? apps::make_jpetstore()
          : (usage("unknown --app (vins|jpetstore)"), apps::make_vins());
  auto levels = args.levels("levels");
  if (levels.empty()) {
    levels = app_name == "vins" ? apps::vins_campaign_levels()
                                : apps::jpetstore_campaign_levels();
  }
  workload::CampaignSettings settings;
  settings.grinder.duration_s = args.num<double>("duration", 600.0);
  settings.seed = args.num<std::uint64_t>("seed", 20160101u);
  std::printf("running %zu simulated load tests of %s ...\n", levels.size(),
              app.name().c_str());
  const auto campaign = workload::run_campaign(app, levels, settings);
  std::printf("%s\n",
              workload::utilization_table(campaign, "Monitored utilization %")
                  .to_string()
                  .c_str());
  const std::string out = args.str("out");
  ops::save_demand_table_file(out, campaign.table);
  std::printf("campaign written to %s (think time of this app: %.2f s)\n",
              out.c_str(), app.think_time());
  return 0;
}

int cmd_predict(const Args& args) {
  const std::string axis_name = args.str("axis", std::string("concurrency"));
  auto axis = core::DemandModel::Axis::kConcurrency;
  if (axis_name == "throughput") {
    axis = core::DemandModel::Axis::kThroughput;
  } else if (axis_name != "concurrency") {
    usage("unknown --axis (concurrency|throughput)");
  }
  const double think = args.num<double>("think");
  const auto max_users = args.num<unsigned>("max-users");
  const auto step = args.num<unsigned>("step", max_users / 12);
  const std::string model = args.str("model", std::string("mvasd"));
  const auto table = ops::load_demand_table_file(args.str("campaign"));

  // Map the CLI model name to a declarative spec, then hand everything to
  // the core::solve facade.
  core::ScenarioSpec spec;
  if (model == "mvasd") {
    spec = core::mvasd_scenario(model, table, think, max_users, axis);
  } else if (model == "mvasd-ss") {
    spec = core::mvasd_single_server_scenario(model, table, think, max_users);
  } else if (model == "mva-fixed") {
    spec = core::mva_fixed_scenario(model, table, think, max_users,
                                    args.num<double>("at-concurrency"));
  } else {
    usage("unknown --model (mvasd|mvasd-ss|mva-fixed)");
  }
  const core::MvaResult result =
      core::solve(spec.network, spec.demands, spec.options);

  TextTable t("Prediction (" + model + ")");
  t.set_header({"Users", "X (tx/s)", "R (s)", "R+Z (s)"});
  for (unsigned n = 1; n <= max_users;
       n = n + std::max(1u, step)) {
    const std::size_t i = result.row_for(n);
    t.add_row({fmt(static_cast<long long>(n)), fmt(result.throughput[i], 3),
               fmt(result.response_time[i], 4), fmt(result.cycle_time[i], 4)});
  }
  const std::size_t last = result.levels() - 1;
  t.add_row({fmt(static_cast<long long>(result.population[last])),
             fmt(result.throughput[last], 3),
             fmt(result.response_time[last], 4),
             fmt(result.cycle_time[last], 4)});
  std::printf("%s\n", t.to_string().c_str());

  const auto report =
      core::deviation_against_measurements(model, result, table, think);
  std::printf("deviation vs the campaign's measured rows (Eq. 15): "
              "throughput %.2f%%, cycle time %.2f%%\n",
              report.throughput_deviation_pct,
              report.cycle_time_deviation_pct);
  return 0;
}

int cmd_bounds(const Args& args) {
  const double think = args.num<double>("think");
  const double users = args.num<double>("users");
  const auto table = ops::load_demand_table_file(args.str("campaign"));
  const auto demands = table.demands_at_concurrency(1.0);
  std::vector<double> effective(demands);
  for (std::size_t k = 0; k < effective.size(); ++k) {
    effective[k] /= static_cast<double>(table.servers()[k]);
  }
  ops::BoundsInput in{effective, think};
  std::printf("demands from the lowest measured level (per station, ms):\n");
  for (std::size_t k = 0; k < demands.size(); ++k) {
    std::printf("  %-14s %8.3f  (/%u servers -> %.3f effective)\n",
                table.stations()[k].c_str(), demands[k] * 1000.0,
                table.servers()[k], effective[k] * 1000.0);
  }
  std::printf("\nDmax (effective) = %.4f ms, Dtotal = %.4f ms\n",
              ops::max_demand(effective) * 1000.0,
              ops::total_demand(demands) * 1000.0);
  std::printf("throughput upper bound at N=%g: %.3f tx/s\n", users,
              ops::throughput_upper_bound(in, users));
  std::printf("response-time lower bound at N=%g: %.4f s\n", users,
              ops::response_time_lower_bound(in, users));
  std::printf("knee population N* ~ %.0f users\n", ops::knee_population(in));
  const auto bjb = ops::balanced_job_bounds(in, users);
  std::printf("balanced-job bounds at N=%g: X in [%.3f, %.3f] tx/s\n", users,
              bjb.throughput_lower, bjb.throughput_upper);
  return 0;
}

int cmd_describe(const Args& args) {
  const double think = args.num<double>("think");
  const auto table = ops::load_demand_table_file(args.str("campaign"));
  const auto net = core::network_from_table(table, think);
  std::printf("%s\n", core::network_ascii(net).c_str());
  std::printf("measured levels:");
  for (const auto& p : table.points()) {
    std::printf(" %g", p.concurrency);
  }
  std::printf("\nbottleneck at top load: %s\n",
              table.stations()[table.bottleneck_station()].c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (command == "plan") return cmd_plan(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "predict") return cmd_predict(args);
    if (command == "bounds") return cmd_bounds(args);
    if (command == "describe") return cmd_describe(args);
    if (command == "help" || command == "--help") usage();
    usage(("unknown command: " + command).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
