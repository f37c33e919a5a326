// Lane-major multiclass batched kernel vs per-scenario-task solving on a
// cold 256-scenario class-mix what-if batch.
//
// The fleet is the class-aware version of micro_batch's dashboard fan-out:
// a three-class JPetStore-ish mix (browse / search / buy) over a four-
// station network, swept across demand perturbations, think-time variants,
// and ragged axis depths.  The baseline solves it one pool task per
// scenario through core::solve, which runs each scenario as a one-lane
// block (the kernel's width-1 instantiation); the contender is
// core::solve_batch, which groups class-compatible scenarios and runs the
// per-level Schweitzer fixed point in wide lockstep blocks over lane-major
// state.  Both sides run the same recursion on the same pool with no
// cache, so the ratio isolates what lockstep lanes buy over one lane at a
// time.  Writes bench_out/BENCH_batch_multiclass.json; exits non-zero if
// batched and per-scenario results disagree beyond 1e-12 or the cold-batch
// speedup falls below the 2x acceptance gate.
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

core::ClosedNetwork mix_network() {
  return core::ClosedNetwork(
      {core::Station{"cpu", 1.0, 1, core::StationKind::kQueueing},
       core::Station{"disk", 1.0, 1, core::StationKind::kQueueing},
       core::Station{"net", 1.0, 1, core::StationKind::kQueueing},
       core::Station{"gateway", 1.0, 1, core::StationKind::kDelay}},
      0.0);
}

/// 256 what-if variants of one three-class mix: 16 demand perturbations
/// (disk scale x cpu scale) x 4 think-time variants x 4 axis depths.  One
/// class-structure group, so the batch planner carves it into 16 full
/// lockstep blocks with ragged lane retirement inside each.
std::vector<core::ScenarioSpec> make_fleet(unsigned max_axis_users) {
  std::vector<core::ScenarioSpec> fleet;
  const unsigned depth_of[4] = {max_axis_users, 3 * max_axis_users / 4,
                                max_axis_users / 2, max_axis_users / 4};
  for (int variant = 0; variant < 16; ++variant) {
    const double disk_scale = 1.0 - 0.04 * (variant % 4);
    const double cpu_scale = 1.0 + 0.06 * (variant / 4);
    for (int think_step = 0; think_step < 4; ++think_step) {
      const double think_scale = 1.0 + 0.25 * think_step;
      for (int tier = 0; tier < 4; ++tier) {
        core::ScenarioSpec spec;
        spec.label = "v" + std::to_string(variant) + "/z" +
                     std::to_string(think_step) + "/n" +
                     std::to_string(depth_of[tier]);
        spec.network = mix_network();
        spec.options.solver = core::SolverKind::kSchweitzerMulticlass;
        spec.options.classes = {
            {"browse",
             8,
             1.0 * think_scale,
             {0.010 * cpu_scale, 0.024 * disk_scale, 0.006, 0.150},
             nullptr},
            {"search",
             6,
             2.0 * think_scale,
             {0.016 * cpu_scale, 0.009 * disk_scale, 0.004, 0.080},
             nullptr},
            {"buy",
             depth_of[tier],
             0.5 * think_scale,
             {0.007 * cpu_scale, 0.031 * disk_scale, 0.005, 0.400},
             nullptr},
        };
        core::finalize_multiclass_options(spec.options);
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
    for (std::size_t c = 0; c < a.classes(); ++c) {
      upd(a.class_x(i, c), b.class_x(i, c));
      upd(a.class_r(i, c), b.class_r(i, c));
      for (std::size_t k = 0; k < a.stations(); ++k) {
        upd(a.class_queue(i, c, k), b.class_queue(i, c, k));
      }
    }
  }
  return worst;
}

}  // namespace

int main() {
  constexpr unsigned kMaxAxisUsers = 64;
  constexpr int kReps = 3;
  constexpr double kSpeedupGate = 2.0;
  const auto fleet = make_fleet(kMaxAxisUsers);
  ThreadPool pool;

  // Baseline: one pool task per spec, each running the per-level
  // Schweitzer fixed point as a one-lane block through the solve facade.
  std::vector<core::MvaResult> scalar(fleet.size());
  const double per_task_ms = min_over_reps(kReps, [&] {
    parallel_for(pool, fleet.size(), [&](std::size_t i) {
      scalar[i] =
          core::solve(fleet[i].network, &fleet[i].demands, fleet[i].options);
    });
  });

  // Contender: lockstep lane-major multiclass blocks over the same pool.
  std::vector<core::MvaResult> batched;
  const double batched_ms =
      min_over_reps(kReps, [&] { batched = core::solve_batch(fleet, &pool); });

  double worst = 0.0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    worst = std::max(worst, max_abs_delta(batched[i], scalar[i]));
  }
  const double speedup = per_task_ms / std::max(batched_ms, 1e-6);

  std::printf(
      "multiclass what-if batch: %zu scenarios, 3 classes, axis to N=%u\n",
      fleet.size(), kMaxAxisUsers);
  std::printf("  per-scenario tasks: %8.2f ms\n", per_task_ms);
  std::printf("  batched lockstep:   %8.2f ms  (%.2fx, gate %.1fx)\n",
              batched_ms, speedup, kSpeedupGate);
  std::printf("  max |batched - scalar| = %.3g\n", worst);

  const std::string path = bench::out_dir() + "/BENCH_batch_multiclass.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"batched_mva_multiclass_whatif\",\n"
               "  \"scenarios\": %zu,\n"
               "  \"classes\": 3,\n"
               "  \"axis_population\": %u,\n"
               "  \"per_task_ms\": %.4f,\n"
               "  \"batched_ms\": %.4f,\n"
               "  \"speedup\": %.2f,\n"
               "  \"speedup_gate\": %.1f,\n"
               "  \"max_abs_delta\": %.3g\n"
               "}\n",
               fleet.size(), kMaxAxisUsers, per_task_ms, batched_ms, speedup,
               kSpeedupGate, worst);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  if (worst > 1e-12) return 1;
  return speedup >= kSpeedupGate ? 0 : 1;
}
