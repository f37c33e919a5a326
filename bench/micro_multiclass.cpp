// Method-of-Moments multiclass solver vs the exact population-vector
// recursion (exact-multiclass, run by core::solve as a one-lane block of
// the multiclass lane kernel).
//
// Part 1 — growing mixes: three customer classes over a cpu+disk pair,
// per-class population doubling from 8 to 128.  The exact recursion
// (exact-multiclass) walks the full population-vector lattice
// (prod_c (N_c+1) states), so its cost explodes with the mix; MoM runs the
// RECAL moment recursion whose state count depends only on the number of
// queueing stations.  Both are exact, so every feasible mix doubles as a
// parity check (rel. 1e-9).  The 512-per-class row is beyond the lattice
// guard (2 * 513^3 > 2^28): the exact kind must refuse while MoM answers.
//
// Part 1b — wider networks: the same parity check and timings on mixes
// over four and six queueing stations, where the moment lattice has more
// than two coordinates.  The four-station row is the cold-serving
// benchmark's mom-multiclass shape without its demand jitter.
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

/// Largest relative X or R gap per class between MoM's single level and
/// the exact recursion's top level.
double max_rel_delta(const core::MvaResult& exact, const core::MvaResult& mom,
                     std::size_t classes) {
  const std::size_t top = exact.levels() - 1;
  double worst = 0.0;
  for (std::size_t c = 0; c < classes; ++c) {
    const double x_exact = exact.class_x(top, c);
    const double r_exact = exact.class_r(top, c);
    worst = std::max(worst, std::abs(mom.class_x(0, c) - x_exact) /
                                std::max(1.0, std::abs(x_exact)));
    worst = std::max(worst, std::abs(mom.class_r(0, c) - r_exact) /
                                std::max(1.0, std::abs(r_exact)));
  }
  return worst;
}

/// A mix over more than two queueing stations.
struct ShapeRow {
  const char* name = "";
  core::ClosedNetwork network;
  std::vector<core::CustomerClass> classes;
  unsigned customers = 0;
  double exact_ms = 0.0;
  double mom_ms = 0.0;
  double max_rel_delta = 0.0;
};

/// The cold-serving benchmark's mom-multiclass shape without its demand
/// jitter: browse, search and buy at 5, 4 and 6 customers.
ShapeRow cold_corpus_shape() {
  constexpr double kBase[] = {0.006, 0.010, 0.008, 0.012};
  constexpr double kScale[] = {0.8, 1.2, 1.6};
  constexpr const char* kNames[] = {"browse", "search", "buy"};
  constexpr unsigned kPopulation[] = {5, 4, 6};
  constexpr double kThink[] = {2.0, 3.0, 1.0};
  std::vector<core::CustomerClass> classes;
  for (std::size_t c = 0; c < 3; ++c) {
    std::vector<double> demands;
    for (const double base : kBase) demands.push_back(base * kScale[c]);
    classes.push_back({kNames[c], kPopulation[c], kThink[c], demands, nullptr});
  }
  return {"cold_corpus",
          core::make_network({"web/cpu", "app/cpu", "db/cpu", "db/disk"},
                             {1, 1, 1, 1}, 0.0),
          classes};
}

/// Three classes of four customers over six queueing stations.
ShapeRow six_station_shape() {
  return {
      "six_station",
      core::make_network({"lb", "web", "app", "cache", "db", "disk"},
                         {1, 1, 1, 1, 1, 1}, 0.0),
      {{"browse", 4, 1.0, {0.002, 0.006, 0.008, 0.001, 0.004, 0.010}, nullptr},
       {"search", 4, 1.5, {0.002, 0.004, 0.012, 0.003, 0.006, 0.004}, nullptr},
       {"buy", 4, 2.0, {0.003, 0.005, 0.006, 0.000, 0.012, 0.014}, nullptr}}};
}

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

    core::MvaResult mom;
    row.mom_ms = min_over_reps(reps, [&] {
      mom = solve_mix(core::SolverKind::kMomMulticlass, network, classes);
    });

    row.max_rel_delta = max_rel_delta(exact, mom, classes.size());
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

  // --- Part 1b: wider networks ---------------------------------------------
  std::vector<ShapeRow> shapes{cold_corpus_shape(), six_station_shape()};
  for (ShapeRow& row : shapes) {
    for (const auto& cls : row.classes) row.customers += cls.population;
    core::MvaResult exact;
    row.exact_ms = min_over_reps(20, [&] {
      exact = solve_mix(core::SolverKind::kExactMulticlass, row.network,
                        row.classes);
    });
    core::MvaResult mom;
    row.mom_ms = min_over_reps(20, [&] {
      mom = solve_mix(core::SolverKind::kMomMulticlass, row.network,
                      row.classes);
    });
    row.max_rel_delta = max_rel_delta(exact, mom, row.classes.size());
    parity_ok = parity_ok && row.max_rel_delta <= kParityTol;
  }
  std::printf("\nMoM vs seed exact recursion on wider networks\n");
  std::printf("  %-12s %8s %10s %12s %12s %14s\n", "mix", "stations",
              "customers", "exact ms", "mom ms", "max rel delta");
  for (const ShapeRow& row : shapes) {
    std::printf("  %-12s %8zu %10u %12.4f %12.4f %14.3g\n", row.name,
                row.network.size(), row.customers, row.exact_ms, row.mom_ms,
                row.max_rel_delta);
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
  std::fprintf(f, "  ],\n  \"shapes\": [\n");
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const ShapeRow& row = shapes[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"stations\": %zu, "
                 "\"customers\": %u, \"exact_ms\": %.4f, "
                 "\"mom_ms\": %.4f, \"max_rel_delta\": %.3g}%s\n",
                 row.name, row.network.size(), row.customers, row.exact_ms,
                 row.mom_ms, row.max_rel_delta,
                 i + 1 < shapes.size() ? "," : "");
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
