// Fig. 16 — MVASD fed service demands sampled at Chebyshev nodes.
//
// The payoff of Section 8: even with only 3 load tests — if placed at the
// Chebyshev nodes — the splined demands let MVASD predict throughput and
// cycle time nearly as accurately as the full 8-level campaign.
#include "bench_util.hpp"
#include "core/prediction.hpp"
#include "workload/test_plan.hpp"

int main() {
  using namespace mtperf;
  bench::print_heading("Fig. 16", "MVASD from Chebyshev 3 / 5 / 7 campaigns");

  const auto app = apps::make_jpetstore();
  const double think = 1.0;
  const unsigned max_users = apps::kJPetStoreMaxUsers;

  // Reference: the dense Table 3 campaign provides the measured series.
  const auto dense = bench::run_jpetstore_campaign();

  std::vector<core::ScenarioSpec> scenarios;
  for (std::size_t nodes : {3u, 5u, 7u}) {
    const auto levels = workload::plan_concurrency_levels(
        1, 300, nodes, workload::SamplingStrategy::kChebyshev, 1,
        /*include_single_user=*/true);
    const auto campaign =
        workload::run_campaign(app, levels, bench::standard_settings());
    scenarios.push_back(core::mvasd_scenario(
        "Chebyshev " + std::to_string(nodes), campaign.table, think,
        max_users));
  }
  scenarios.push_back(
      core::mvasd_scenario("Dense (8 pts)", dense.table, think, max_users));
  const auto models = core::run_scenarios(scenarios);

  bench::print_model_comparison(dense, think, models,
                                "fig16_mvasd_chebyshev.csv");
  std::printf(
      "Observation (paper Fig. 16): even 3 Chebyshev-placed load tests give\n"
      "reliable MVASD output; test designers can budget samples by the Eq. 19\n"
      "accuracy target instead of testing every level.\n");
  return 0;
}
