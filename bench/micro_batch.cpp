// Lane-major batched kernel vs per-scenario-task solving on a cold
// 256-scenario VINS what-if batch.
//
// The fleet is what a capacity-planning dashboard fans out in one request:
// demand perturbations (disk speed-ups x database CPU load), think-time
// variants, and hardware upgrades (64/128/192-core CPU hosts — three
// structure groups).  The baseline solves it the pre-batching way, one pool task per
// scenario through core::solve; the contender is core::solve_batch, which
// groups structure-compatible scenarios and runs the population recursion
// in lockstep over lane-major state.  Both sides use the same pool and no
// cache, so the ratio isolates the batched kernel itself.  Writes
// bench_out/BENCH_batch.json; exits non-zero only if batched and scalar
// results disagree beyond 1e-12.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "core/network.hpp"
#include "core/solve.hpp"
#include "core/sweep.hpp"

namespace {

using namespace mtperf;

/// The paper's three-tier VINS layout (Fig. 2): 12 stations, multi-core
/// CPUs, single-server disks and NIC directions.
core::ClosedNetwork vins_shape_network(unsigned cpu_cores, double think) {
  const std::vector<std::string> names = {
      "load/cpu", "load/disk", "load/net-tx", "load/net-rx",
      "app/cpu",  "app/disk",  "app/net-tx",  "app/net-rx",
      "db/cpu",   "db/disk",   "db/net-tx",   "db/net-rx"};
  std::vector<unsigned> servers(names.size(), 1);
  servers[0] = servers[4] = servers[8] = cpu_cores;
  return core::make_network(names, servers, think);
}

/// Transaction demands in the shape of Table 2 (seconds; db/disk dominates).
std::vector<double> vins_shape_demands() {
  return {0.004, 0.010, 0.002, 0.002, 0.012, 0.008,
          0.003, 0.003, 0.020, 0.034, 0.004, 0.004};
}

/// 256 what-if variants: 16 demand perturbations x 4 think times x 4
/// hardware-upgrade tiers (how many CPU cores per VINS tier host?).  The
/// 64-core tier appears twice, so the batch planner sees three structure
/// groups of 128/64/64 lanes.
std::vector<core::ScenarioSpec> make_fleet(unsigned max_users) {
  std::vector<core::ScenarioSpec> fleet;
  const auto base = vins_shape_demands();
  const unsigned cores_of[4] = {64, 64, 128, 192};
  for (int variant = 0; variant < 16; ++variant) {
    const double disk_scale = 1.0 - 0.04 * (variant % 4);
    const double cpu_scale = 1.0 + 0.06 * (variant / 4);
    for (int think_step = 0; think_step < 4; ++think_step) {
      const double think = 0.5 + 0.25 * think_step;
      for (int tier = 0; tier < 4; ++tier) {
        auto d = base;
        d[9] *= disk_scale;  // db/disk
        d[1] *= disk_scale;  // load/disk
        d[8] *= cpu_scale;   // db/cpu
        core::ScenarioSpec spec;
        spec.label = "v" + std::to_string(variant) + "/z" +
                     std::to_string(think_step) + "/c" +
                     std::to_string(cores_of[tier]) + "#" +
                     std::to_string(tier);
        spec.network = vins_shape_network(cores_of[tier], think);
        spec.demands = core::DemandModel::constant(std::move(d));
        spec.options.solver = core::SolverKind::kMvasd;
        spec.options.max_population = max_users;
        fleet.push_back(std::move(spec));
      }
    }
  }
  return fleet;
}

double time_ms(const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

double min_over_reps(int reps, const std::function<void()>& body) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double ms = time_ms(body);
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

double max_abs_delta(const core::MvaResult& a, const core::MvaResult& b) {
  double worst = 0.0;
  const auto upd = [&](double x, double y) {
    worst = std::max(worst, std::abs(x - y));
  };
  for (std::size_t i = 0; i < a.levels(); ++i) {
    upd(a.throughput[i], b.throughput[i]);
    upd(a.response_time[i], b.response_time[i]);
    upd(a.cycle_time[i], b.cycle_time[i]);
    for (std::size_t k = 0; k < a.stations(); ++k) {
      upd(a.queue(i, k), b.queue(i, k));
      upd(a.residence(i, k), b.residence(i, k));
      upd(a.utilization(i, k), b.utilization(i, k));
    }
  }
  return worst;
}

}  // namespace

int main() {
  constexpr unsigned kMaxUsers = 1500;
  constexpr int kReps = 3;
  const auto fleet = make_fleet(kMaxUsers);
  ThreadPool pool;

  // Baseline: the pre-batching scenario runner — one pool task per spec,
  // each running the scalar recursion through the solve facade.
  std::vector<core::MvaResult> scalar(fleet.size());
  const double per_task_ms = min_over_reps(kReps, [&] {
    parallel_for(pool, fleet.size(), [&](std::size_t i) {
      scalar[i] =
          core::solve(fleet[i].network, &fleet[i].demands, fleet[i].options);
    });
  });

  // Contender: lockstep lane-major blocks over the same pool, cold.
  std::vector<core::MvaResult> batched;
  const double batched_ms =
      min_over_reps(kReps, [&] { batched = core::solve_batch(fleet, &pool); });

  double worst = 0.0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    worst = std::max(worst, max_abs_delta(batched[i], scalar[i]));
  }
  const double speedup = per_task_ms / std::max(batched_ms, 1e-6);

  std::printf("VINS what-if batch: %zu scenarios to N=%u (%zu stations)\n",
              fleet.size(), kMaxUsers, fleet.front().network.size());
  std::printf("  per-scenario tasks: %8.2f ms\n", per_task_ms);
  std::printf("  batched lockstep:   %8.2f ms  (%.2fx)\n", batched_ms,
              speedup);
  std::printf("  max |batched - scalar| = %.3g\n", worst);

  const std::string path = bench::out_dir() + "/BENCH_batch.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"batched_mva_vins_whatif\",\n"
               "  \"scenarios\": %zu,\n"
               "  \"max_population\": %u,\n"
               "  \"structure_groups\": 3,\n"
               "  \"per_task_ms\": %.4f,\n"
               "  \"batched_ms\": %.4f,\n"
               "  \"speedup\": %.2f,\n"
               "  \"max_abs_delta\": %.3g\n"
               "}\n",
               fleet.size(), kMaxUsers, per_task_ms, batched_ms, speedup,
               worst);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return worst <= 1e-12 ? 0 : 1;
}
