// The paper's Fig. 17 workflow as a reusable planning tool: given a
// concurrency range and a test budget, emit the Chebyshev load-test plan,
// the expected interpolation accuracy (Eq. 19), and a ready-to-use
// grinder.properties file for each planned test.
//
//   $ ./examples/chebyshev_test_plan
#include <cstdio>

#include "common/table.hpp"
#include "interp/chebyshev.hpp"
#include "workload/grinder.hpp"
#include "workload/test_plan.hpp"

int main() {
  using namespace mtperf;

  const unsigned lo = 1, hi = 300;
  std::printf("Planning load tests for concurrency range [%u, %u]\n\n", lo, hi);

  // Step 0: how many tests do we need?  Eq. 19 for a smooth demand curve
  // (exponential-like variation) says the interpolation error collapses
  // fast with node count.
  TextTable budget("Expected interpolation error bound (Eq. 19, mu = 1)");
  budget.set_header({"Tests", "Error bound", "Comment"});
  for (std::size_t n = 2; n <= 8; ++n) {
    const double bound = interp::chebyshev_error_bound_exponential(n, 1.0);
    budget.add_row({fmt(static_cast<long long>(n)), fmt(bound, 6),
                    bound < 0.002 ? "< 0.2% — paper's sweet spot" : ""});
  }
  std::printf("%s\n", budget.to_string().c_str());

  // Step 1: the node sets for common budgets.
  for (std::size_t n : {3u, 5u, 7u}) {
    const auto levels = workload::plan_concurrency_levels(
        lo, hi, n, workload::SamplingStrategy::kChebyshev);
    std::printf("Chebyshev %zu plan: ", n);
    for (unsigned u : levels) std::printf(" %u", u);
    std::printf("\n");
  }
  std::printf("\n");

  // Step 2: emit a grinder.properties per test of the 5-node plan.
  const auto plan = workload::plan_concurrency_levels(
      lo, hi, 5, workload::SamplingStrategy::kChebyshev);
  for (unsigned users : plan) {
    workload::GrinderConfig cfg;
    cfg.script = "shopping_workflow.py";
    cfg.processes = (users + 24) / 25;  // up to 25 threads per process
    cfg.threads = (users + cfg.processes - 1) / cfg.processes;
    cfg.duration_s = 1800.0;
    cfg.process_increment = 1;
    cfg.process_increment_interval_s = 30.0;
    std::printf("# --- test at %u users (%u x %u) ---\n%s\n", users,
                cfg.processes, cfg.threads, cfg.to_properties().c_str());
  }
  std::printf("Run each test, monitor CPU/disk/network with vmstat / iostat /\n"
              "netstat, then feed the utilization table to "
              "core::mvasd_scenario() and core::solve().\n");
  return 0;
}
