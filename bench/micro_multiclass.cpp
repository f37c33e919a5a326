// Method-of-Moments multiclass solver vs the seed exact recursion.
//
// Part 1 — growing mixes: three customer classes over a cpu+disk pair,
// per-class population doubling from 8 to 128.  The exact recursion
// (exact-multiclass) walks the full population-vector lattice
// (prod_c (N_c+1) states), so its cost explodes with the mix; MoM runs the
// RECAL moment recursion whose state count depends only on the number of
// queueing stations.  Both are exact, so every feasible mix doubles as a
// parity check (rel. 1e-9).  The 512-per-class row is beyond the lattice
// guard (2 * 513^3 > 2^28): the seed solver must refuse while MoM answers.
//
// Part 2 — a 3-class what-if batch through service::Engine: 12 demand
// variants evaluated cold (all misses) and again warm (all structural
// cache hits).
//
// Writes bench_out/BENCH_multiclass.json; exits non-zero if MoM and the
// exact recursion disagree beyond 1e-9 on any feasible mix, or if the
// beyond-guard behavior is not as described.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/mva_multiclass.hpp"
#include "core/network.hpp"
#include "core/solve.hpp"
#include "core/sweep.hpp"
#include "service/engine.hpp"

namespace {

using namespace mtperf;

core::ClosedNetwork mix_network() {
  return core::make_network({"cpu", "disk"}, {1, 1}, 0.0);
}

/// The three-class mix: browse / search / buy traffic with distinct
/// demand vectors and think times, `per_class` customers in each.
std::vector<core::CustomerClass> make_mix(unsigned per_class) {
  return {
      {"browse", per_class, 1.0, {0.004, 0.010}, nullptr},
      {"search", per_class, 1.5, {0.006, 0.005}, nullptr},
      {"buy", per_class, 2.0, {0.002, 0.012}, nullptr},
  };
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

core::MvaResult solve_mix(core::SolverKind kind,
                          const core::ClosedNetwork& network,
                          std::vector<core::CustomerClass> classes) {
  core::SolveOptions options;
  options.solver = kind;
  options.classes = std::move(classes);
  core::finalize_multiclass_options(options);
  return core::solve(network, nullptr, options);
}

struct MixRow {
  unsigned per_class = 0;
  double exact_ms = -1.0;  ///< < 0: the lattice guard refused the mix
  double mom_ms = 0.0;
  double max_rel_delta = 0.0;
};

/// One what-if variant: browse demands scaled by `factor`, MoM kind.
core::ScenarioSpec whatif_spec(double factor) {
  core::ScenarioSpec spec;
  spec.label = "whatif";
  spec.network = mix_network();
  spec.options.solver = core::SolverKind::kMomMulticlass;
  spec.options.classes = make_mix(40);
  for (double& d : spec.options.classes[0].demands) d *= factor;
  core::finalize_multiclass_options(spec.options);
  return spec;
}

}  // namespace

int main() {
  const core::ClosedNetwork network = mix_network();
  constexpr double kParityTol = 1e-9;

  // --- Part 1: growing mixes ----------------------------------------------
  std::vector<MixRow> rows;
  bool parity_ok = true;
  for (const unsigned per_class : {8u, 16u, 32u, 64u, 128u}) {
    MixRow row;
    row.per_class = per_class;
    const auto classes = make_mix(per_class);
    const int reps = per_class <= 32 ? 3 : 1;

    core::MvaResult exact;
    row.exact_ms = min_over_reps(reps, [&] {
      exact = solve_mix(core::SolverKind::kExactMulticlass, network, classes);
    });
    const std::size_t top = exact.levels() - 1;

    core::MvaResult mom;
    row.mom_ms = min_over_reps(reps, [&] {
      mom = solve_mix(core::SolverKind::kMomMulticlass, network, classes);
    });

    for (std::size_t c = 0; c < classes.size(); ++c) {
      const double x_exact = exact.class_x(top, c);
      const double x_mom = mom.class_x(0, c);
      const double rel =
          std::abs(x_mom - x_exact) / std::max(1.0, std::abs(x_exact));
      row.max_rel_delta = std::max(row.max_rel_delta, rel);
      const double r_exact = exact.class_r(top, c);
      const double r_mom = mom.class_r(0, c);
      row.max_rel_delta =
          std::max(row.max_rel_delta,
                   std::abs(r_mom - r_exact) / std::max(1.0, std::abs(r_exact)));
    }
    parity_ok = parity_ok && row.max_rel_delta <= kParityTol;
    rows.push_back(row);
  }

  // Beyond the lattice guard: the seed solver must refuse, MoM must answer.
  {
    MixRow row;
    row.per_class = 512;
    const auto classes = make_mix(row.per_class);
    bool exact_refused = false;
    try {
      (void)solve_mix(core::SolverKind::kExactMulticlass, network, classes);
    } catch (const Error&) {
      exact_refused = true;
    }
    core::MvaResult mom;
    row.mom_ms = time_ms([&] {
      mom = solve_mix(core::SolverKind::kMomMulticlass, network, classes);
    });
    parity_ok = parity_ok && exact_refused && mom.throughput[0] > 0.0;
    rows.push_back(row);
  }

  std::printf("MoM vs seed exact recursion (3 classes over cpu+disk)\n");
  std::printf("  %9s %12s %12s %10s %14s\n", "per-class", "exact ms",
              "mom ms", "speedup", "max rel delta");
  for (const MixRow& row : rows) {
    if (row.exact_ms >= 0.0) {
      std::printf("  %9u %12.3f %12.3f %9.1fx %14.3g\n", row.per_class,
                  row.exact_ms, row.mom_ms,
                  row.exact_ms / std::max(row.mom_ms, 1e-6),
                  row.max_rel_delta);
    } else {
      std::printf("  %9u %12s %12.3f %10s %14s\n", row.per_class,
                  "refused", row.mom_ms, "-", "-");
    }
  }

  // --- Part 2: cold vs warm what-if batch through the engine ---------------
  constexpr int kVariants = 12;
  service::Engine engine;
  std::vector<core::ScenarioSpec> batch;
  for (int i = 0; i < kVariants; ++i) {
    batch.push_back(whatif_spec(1.0 + 0.05 * i));
  }
  const double cold_ms = time_ms([&] {
    for (const auto& spec : batch) (void)engine.evaluate(spec);
  });
  const double warm_ms = time_ms([&] {
    for (const auto& spec : batch) (void)engine.evaluate(spec);
  });
  const auto metrics = engine.metrics();
  const bool cache_ok = metrics.hits == static_cast<std::uint64_t>(kVariants);
  std::printf("\n3-class what-if batch through service::Engine (%d variants)\n",
              kVariants);
  std::printf("  cold: %8.3f ms   warm: %8.3f ms  (%.0fx, hit rate %.2f)\n",
              cold_ms, warm_ms, cold_ms / std::max(warm_ms, 1e-6),
              metrics.hit_rate);

  // --- JSON ----------------------------------------------------------------
  const std::string path = bench::out_dir() + "/BENCH_multiclass.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"mom_multiclass\",\n"
               "  \"classes\": 3,\n"
               "  \"parity_tol\": %.1g,\n"
               "  \"parity_ok\": %s,\n"
               "  \"mixes\": [\n",
               kParityTol, parity_ok ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const MixRow& row = rows[i];
    if (row.exact_ms >= 0.0) {
      std::fprintf(f,
                   "    {\"per_class\": %u, \"exact_ms\": %.4f, "
                   "\"mom_ms\": %.4f, \"speedup\": %.2f, "
                   "\"max_rel_delta\": %.3g}%s\n",
                   row.per_class, row.exact_ms, row.mom_ms,
                   row.exact_ms / std::max(row.mom_ms, 1e-6),
                   row.max_rel_delta, i + 1 < rows.size() ? "," : "");
    } else {
      std::fprintf(f,
                   "    {\"per_class\": %u, \"exact_ms\": null, "
                   "\"mom_ms\": %.4f}%s\n",
                   row.per_class, row.mom_ms,
                   i + 1 < rows.size() ? "," : "");
    }
  }
  std::fprintf(f,
               "  ],\n"
               "  \"whatif\": {\"scenarios\": %d, \"cold_ms\": %.4f, "
               "\"warm_ms\": %.4f, \"warm_speedup\": %.2f, "
               "\"hit_rate\": %.4f}\n"
               "}\n",
               kVariants, cold_ms, warm_ms,
               cold_ms / std::max(warm_ms, 1e-6), metrics.hit_rate);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return parity_ok && cache_ok ? 0 : 1;
}
