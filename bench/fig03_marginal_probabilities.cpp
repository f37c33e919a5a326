// Fig. 3 — Marginal probability of a CPU core being busy with increasing
// concurrency (4-core CPU).
//
// Runs exact multi-server MVA (Algorithm 2) on a 4-core CPU station and
// traces the marginal queue-size probabilities P(j | n), j = 0..3, that the
// correction factor F_k is built from.  As concurrency grows the
// probabilities converge to their saturation fixed point.
#include "bench_util.hpp"
#include "core/demand_model.hpp"
#include "core/detail/batch_engine.hpp"
#include "core/network.hpp"

int main() {
  using namespace mtperf;
  bench::print_heading("Fig. 3",
                       "Marginal queue-size probabilities of a 4-core CPU");

  // A 4-core CPU that approaches (but does not trivially pin) saturation,
  // plus user think time — the setting of the paper's illustration.
  const core::ClosedNetwork net(
      {core::Station{"cpu", 1.0, 4, core::StationKind::kQueueing}}, 1.0);
  const auto demand = core::DemandModel::constant({0.05});
  const unsigned max_users = 120;

  // The marginals are internal state of the recursion, so this bench runs
  // a one-lane block of the kernel with its trace hook instead of
  // core::solve.
  core::detail::MarginalTrace trace;
  trace.station = net.index_of("cpu");
  std::vector<core::detail::BatchLane> lane(1);
  lane[0].network = &net;
  lane[0].demands = &demand;
  lane[0].max_population = max_users;
  lane[0].trace = &trace;
  const core::MvaResult result =
      std::move(core::detail::solve_lane_block(lane)[0]);

  TextTable table("P(j busy cores) after the population-n update");
  table.set_header({"Users", "P(0)", "P(1)", "P(2)", "P(3)", "CPU util",
                    "Throughput"});
  std::vector<double> ns, p0, p1, p2, p3;
  for (std::size_t i : bench::thin_indices(trace.rows.size(), 14)) {
    const auto& row = trace.rows[i];
    table.add_row({fmt(static_cast<long long>(result.population[i])),
                   fmt(row[0], 4), fmt(row[1], 4), fmt(row[2], 4),
                   fmt(row[3], 4),
                   fmt_percent(result.utilization(i, 0) * 100.0, 1),
                   fmt(result.throughput[i], 2)});
  }
  for (std::size_t i = 0; i < trace.rows.size(); ++i) {
    ns.push_back(static_cast<double>(result.population[i]));
    p0.push_back(trace.rows[i][0]);
    p1.push_back(trace.rows[i][1]);
    p2.push_back(trace.rows[i][2]);
    p3.push_back(trace.rows[i][3]);
  }
  std::printf("%s\n", table.to_string().c_str());

  AsciiChart chart("Marginal probabilities vs concurrency (4-core CPU)",
                   "users", "probability");
  chart.add_series({"P(0)", ns, p0, '0'});
  chart.add_series({"P(1)", ns, p1, '1'});
  chart.add_series({"P(2)", ns, p2, '2'});
  chart.add_series({"P(3)", ns, p3, '3'});
  std::printf("%s\n", chart.render().c_str());

  bench::write_csv("fig03_marginal_probabilities.csv",
                   {"users", "p0", "p1", "p2", "p3"}, {ns, p0, p1, p2, p3});

  std::printf(
      "As concurrency grows the distribution settles at its saturation fixed\n"
      "point; with the station pinned, all P(j < C) -> 0 and the multi-server\n"
      "correction vanishes (R -> (S/C)(1 + Q)).\n");
  return 0;
}
