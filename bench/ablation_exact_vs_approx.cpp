// Ablation — exact vs approximate solvers under varying demands.
//
// The paper's design choice: build MVASD on the *exact* multi-server
// recursion rather than on approximate MVA ([19]/[20]/MAQ-PRO style).
// This bench quantifies both sides of the trade on JPetStore: prediction
// deviation AND wall-clock cost per solve, for
//   exact MVASD | approximate MVASD (Schweitzer + M/M/C correction) |
//   Seidmann transform + exact single-server.
#include <chrono>

#include "bench_util.hpp"
#include "core/prediction.hpp"
#include "core/solve.hpp"

int main() {
  using namespace mtperf;
  bench::print_heading("Ablation", "Exact vs approximate solvers (JPetStore)");

  const auto campaign = bench::run_jpetstore_campaign();
  const double think = 1.0;
  const unsigned max_users = apps::kJPetStoreMaxUsers;
  const auto& table = campaign.table;
  const auto network = core::network_from_table(table, think);
  const auto model = core::DemandModel::from_table(table);
  const auto at_140 =
      core::DemandModel::constant(table.demands_at_concurrency(140.0));

  struct Row {
    std::string name;
    core::MvaResult result;
    double micros = 0.0;
  };
  std::vector<Row> rows;
  auto timed = [&](const std::string& name, const core::DemandModel& demands,
                   core::SolverKind kind) {
    const auto t0 = std::chrono::steady_clock::now();
    core::MvaResult r = core::solve(network, demands, {kind, max_users});
    const auto t1 = std::chrono::steady_clock::now();
    rows.push_back(Row{
        name, std::move(r),
        std::chrono::duration<double, std::micro>(t1 - t0).count()});
  };

  timed("MVASD (exact multi-server)", model, core::SolverKind::kMvasd);
  timed("approx MVASD (Schweitzer + M/M/C)", model,
        core::SolverKind::kApproxMultiserver);
  timed("Seidmann + exact MVA (D@140)", at_140, core::SolverKind::kSeidmann);

  TextTable t("Accuracy and cost per full 1..280 solve");
  t.set_header({"Solver", "X dev %", "R+Z dev %", "solve time (us)"});
  for (const auto& row : rows) {
    const auto report = core::deviation_against_measurements(
        row.name, row.result, table, think);
    t.add_row({row.name, fmt(report.throughput_deviation_pct, 2),
               fmt(report.cycle_time_deviation_pct, 2), fmt(row.micros, 0)});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "Takeaways: (a) a constant-demand solver (Seidmann at a single\n"
      "calibration point) cannot match the varying-demand solvers;\n"
      "(b) among varying-demand solvers the exact recursion costs little more\n"
      "than the approximation at these sizes — the paper's choice is cheap.\n");
  return 0;
}
