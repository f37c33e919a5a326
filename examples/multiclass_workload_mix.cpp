// Multi-class what-if: VINS serves two user populations — Renew Policy
// (heavy, 7 pages) and Read Policy (light, mostly cached reads).  How does
// shifting the mix between them move throughput and response times?
//
// Multi-server CPUs are folded in with the Seidmann transform so the
// multi-class solver (single-server + delay stations) applies.
//
//   $ ./examples/multiclass_workload_mix
#include <cstdio>

#include "apps/testbed.hpp"
#include "apps/vins.hpp"
#include "common/table.hpp"
#include "core/prediction.hpp"
#include "core/seidmann.hpp"
#include "core/solve.hpp"
#include "workload/campaign.hpp"

int main() {
  using namespace mtperf;

  const auto app = apps::make_vins();
  workload::CampaignSettings settings;
  settings.grinder.duration_s = 600.0;
  settings.seed = 13;
  const auto campaign =
      workload::run_campaign(app, {1, 102, 373, 680}, settings);

  // Renew Policy demands: measured near saturation.  Read Policy: the
  // light read-only VINS workflow (its model demands at the same load).
  const auto renew = campaign.table.demands_at_concurrency(373.0);
  apps::VinsConfig read_cfg;
  read_cfg.workflow = apps::VinsWorkflow::kReadPolicyDetails;
  const auto read = apps::make_vins(read_cfg).true_demands(373.0);

  // Fold 16-core CPUs into single-server + delay legs (Seidmann) so the
  // multi-class solver applies; transform both classes' demands alike.
  const auto base_net = core::network_from_table(campaign.table, 1.0);
  const auto t_renew = core::seidmann_transform(base_net, renew);
  const auto t_read = core::seidmann_transform(base_net, read);

  TextTable table("VINS mix sweep: 600 users split between classes");
  table.set_header({"Renew users", "Read users", "X renew (tx/s)",
                    "X read (tx/s)", "R renew (s)", "R read (s)"});
  for (unsigned renew_users : {600u, 450u, 300u, 150u, 0u}) {
    const unsigned read_users = 600 - renew_users;
    core::SolveOptions options;
    options.solver = core::SolverKind::kSchweitzerMulticlass;
    options.classes = {
        {"renew", renew_users, 1.0, t_renew.service_times, nullptr},
        {"read", read_users, 1.0, t_read.service_times, nullptr},
    };
    core::finalize_multiclass_options(options);
    const auto r = core::solve(t_renew.network, nullptr, options);
    const std::size_t mix = r.levels() - 1;  // the full 600-user mix
    table.add_row({fmt(static_cast<long long>(renew_users)),
                   fmt(static_cast<long long>(read_users)),
                   fmt(r.class_x(mix, 0), 1), fmt(r.class_x(mix, 1), 1),
                   fmt(r.class_r(mix, 0), 3), fmt(r.class_r(mix, 1), 3)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Note how the read-only class's response time climbs as Renew users\n"
      "are added, even though its own demands never change — cross-class\n"
      "interference at the shared stations, which a single-class model\n"
      "cannot show.\n");
  return 0;
}
