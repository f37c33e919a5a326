// Hierarchical flow-equivalent-server decomposition on a ~100-station
// tiered mesh: the interactive-speed claim behind SolverKind::kHierarchical.
//
// The mesh is a 12-tier service graph (9 services per tier: a single-server
// gateway choke, two large multiserver pools, six single-server helpers —
// 108 stations after compilation).  A 256-scenario what-if fleet edits one
// tier's demands; every spec therefore shares the other eleven tiers'
// FES profiles through the engine's fingerprint cache.
//
// Phases and gates (nonzero exit when any gate fails):
//   * cold   — first 256-spec hierarchical batch vs the same fleet solved
//              flat (per-spec exact multiserver core::solve):  >= 5x.
//   * warm   — the identical batch again (pure cache hits):    >= 20x
//              over cold.
//   * incremental — a new fleet editing a *different* tier: each spec
//              recomputes exactly one FES profile, evidenced by the
//              engine's fes_profile_hits / fes_profile_misses counters.
//   * parity — hierarchical vs flat exact series on the base mesh:
//              throughput and response time within 2% at every level.
//   * sim    — analytic throughput inside the replicated simulator's
//              95% CI (widened 1.5x, 1% relative floor).
//
// One row without a gate: the cold-serving workload's 30-service tiered
// workmodel (N = 600), solved with its FES profiles served from a memo —
// the reduced recursion plus the disaggregation — in microseconds per
// solve, for all rows and for utilization rows only.
//
// Writes bench_out/BENCH_hierarchy.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/detail/hierarchy_engine.hpp"
#include "core/solve.hpp"
#include "graph/compile.hpp"
#include "graph/service_graph.hpp"
#include "service/engine.hpp"
#include "sim/replicated.hpp"

namespace {

using namespace mtperf;

constexpr unsigned kTiers = 12;
constexpr unsigned kMaxPopulation = 512;
constexpr std::size_t kFleet = 256;

/// Replicated microservice pools behind each tier gateway.  The large
/// server counts are the point: the flat exact multiserver recursion
/// carries a marginal vector per pool (cost ~ sum of server counts per
/// level) while the hierarchical path folds each tier into one
/// load-dependent station whose profile saturates near the gateway knee.
constexpr unsigned kPoolsPerTier = 10;
constexpr unsigned kPoolServers[kPoolsPerTier] = {384, 320, 256, 192, 128,
                                                  96,  64,  48,  32,  24};
constexpr double kPoolDemand[kPoolsPerTier] = {0.008, 0.006, 0.005, 0.004,
                                               0.004, 0.003, 0.003, 0.003,
                                               0.002, 0.002};

/// The 12-tier mesh: tier i's gateway fans out to its local pools and
/// forwards to tier i+1's gateway.  `edit_tier` scales that tier's pool
/// demands by `scale` (the what-if knob).
graph::ServiceGraph make_mesh(unsigned edit_tier, double scale) {
  std::vector<graph::Service> services;
  for (unsigned t = 0; t < kTiers; ++t) {
    const std::string prefix = "t" + std::to_string(t) + "/";
    const std::string label = "tier" + std::to_string(t);
    const double s = t == edit_tier ? scale : 1.0;

    graph::Service gw;
    gw.name = prefix + "gw";
    gw.demand = 0.004;
    gw.tier = label;
    for (unsigned p = 0; p < kPoolsPerTier; ++p) {
      gw.calls.push_back({prefix + "p" + std::to_string(p), 1.0, 1.0});
    }
    if (t + 1 < kTiers) {
      gw.calls.push_back({"t" + std::to_string(t + 1) + "/gw", 1.0, 1.0});
    }
    services.push_back(std::move(gw));

    for (unsigned p = 0; p < kPoolsPerTier; ++p) {
      graph::Service pool;
      pool.name = prefix + "p" + std::to_string(p);
      pool.demand = kPoolDemand[p] * s;
      pool.servers = kPoolServers[p];
      pool.tier = label;
      services.push_back(std::move(pool));
    }
  }
  return graph::ServiceGraph(std::move(services), "t0/gw", 1.0);
}

core::SolveOptions hierarchical_options() {
  core::SolveOptions options{core::SolverKind::kHierarchical, kMaxPopulation};
  options.hierarchy.saturation_tolerance = 1e-3;
  options.hierarchy.initial_depth = 64;
  return options;
}

/// The what-if fleet: 256 variants scaling `edit_tier`'s pool demands.
/// Variant 0 is the unedited base mesh.
std::vector<core::ScenarioSpec> make_fleet(unsigned edit_tier) {
  std::vector<core::ScenarioSpec> fleet;
  fleet.reserve(kFleet);
  const core::SolveOptions options = hierarchical_options();
  for (std::size_t v = 0; v < kFleet; ++v) {
    const double scale = 1.0 + 0.002 * static_cast<double>(v);
    fleet.push_back(graph::to_scenario(
        make_mesh(edit_tier, scale),
        "tier" + std::to_string(edit_tier) + "/v" + std::to_string(v),
        options));
  }
  return fleet;
}

/// The cold-serving workload's tiered workmodel: five tiers, each a
/// single-server gateway calling pools of 32/24/16/8/4 servers and the next
/// tier's gateway; N = 600, tolerance 1e-3, initial depth 64.
core::ScenarioSpec cold_workmodel() {
  constexpr unsigned kColdTiers = 5;
  constexpr unsigned kServers[] = {32, 24, 16, 8, 4};
  constexpr double kDemand[] = {0.02, 0.015, 0.01, 0.005, 0.002};
  std::vector<graph::Service> services;
  for (unsigned t = 0; t < kColdTiers; ++t) {
    const std::string tier = "t" + std::to_string(t);
    graph::Service gw;
    gw.name = tier + "/gw";
    gw.demand = 0.002;
    gw.tier = tier;
    for (unsigned p = 0; p < 5; ++p) {
      gw.calls.push_back({tier + "/p" + std::to_string(p), 1.0, 1.0});
    }
    if (t + 1 < kColdTiers) {
      gw.calls.push_back({"t" + std::to_string(t + 1) + "/gw", 1.0, 1.0});
    }
    services.push_back(std::move(gw));
    for (unsigned p = 0; p < 5; ++p) {
      graph::Service pool;
      pool.name = tier + "/p" + std::to_string(p);
      pool.demand = kDemand[p];
      pool.servers = kServers[p];
      pool.tier = tier;
      services.push_back(std::move(pool));
    }
  }
  core::SolveOptions options{core::SolverKind::kHierarchical, 600};
  options.hierarchy.saturation_tolerance = 1e-3;
  options.hierarchy.initial_depth = 64;
  return graph::to_scenario(
      graph::ServiceGraph(std::move(services), "t0/gw", 1.0), "cold",
      options);
}

/// Microseconds per hierarchical solve of `spec` keeping `rows`, with the
/// FES profiles served from a memo: best of 15 rounds of 40 solves.
double reduced_solve_us(const core::ScenarioSpec& spec,
                        core::StationRows rows) {
  std::map<std::string, std::shared_ptr<const core::MvaResult>> memo;
  const core::detail::SubnetworkEvaluator evaluator =
      [&memo](const core::ScenarioSpec& sub) {
        auto& slot = memo[sub.label + "@" +
                          std::to_string(sub.options.max_population)];
        if (slot == nullptr) {
          slot = std::make_shared<const core::MvaResult>(
              core::solve(sub.network, &sub.demands, sub.options));
        }
        return slot;
      };
  core::SolveOptions options = spec.options;
  options.station_rows = rows;
  double best = 1e300;
  for (int round = 0; round < 15; ++round) {
    constexpr int kSolves = 40;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kSolves; ++i) {
      const auto r = core::detail::solve_hierarchical(
          spec.network, &spec.demands, options, evaluator);
      if (r.levels() != options.max_population) std::abort();
    }
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(
        best,
        std::chrono::duration<double, std::micro>(stop - start).count() /
            kSolves);
  }
  return best;
}

double time_ms(const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

bool gate(const char* name, bool pass) {
  std::printf("  gate %-12s %s\n", name, pass ? "PASS" : "FAIL");
  return pass;
}

}  // namespace

int main() {
  const auto fleet = make_fleet(/*edit_tier=*/0);
  const std::size_t stations = fleet.front().network.size();

  // Flat baseline: the same fleet, each spec solved exact per-spec (what a
  // dashboard without the hierarchical layer would run).
  std::vector<core::ScenarioSpec> flat_fleet = fleet;
  for (auto& spec : flat_fleet) {
    spec.options = core::SolveOptions{core::SolverKind::kMvasd, kMaxPopulation};
  }
  double flat_x_top = 0.0;
  const double flat_ms = time_ms([&] {
    for (const auto& spec : flat_fleet) {
      const auto r = core::solve(spec.network, &spec.demands, spec.options);
      flat_x_top = r.throughput.back();
    }
  });

  service::Engine engine(service::EngineOptions{.cache_capacity = 4096});

  std::vector<service::Evaluation> out;
  const double cold_ms = time_ms([&] { out = engine.evaluate_batch(fleet); });
  const auto after_cold = engine.metrics();

  const double warm_ms = time_ms([&] { out = engine.evaluate_batch(fleet); });
  std::size_t warm_hits = 0;
  for (const auto& e : out) warm_hits += e.cache_hit ? 1 : 0;

  // Edit a different tier: every spec misses at the top level but reuses
  // the other eleven tiers' FES profiles from the cache.
  const auto incremental_fleet = make_fleet(/*edit_tier=*/5);
  const double incremental_ms =
      time_ms([&] { out = engine.evaluate_batch(incremental_fleet); });
  const auto after_incremental = engine.metrics();

  const std::uint64_t inc_hits =
      after_incremental.fes_profile_hits - after_cold.fes_profile_hits;
  const std::uint64_t inc_misses =
      after_incremental.fes_profile_misses - after_cold.fes_profile_misses;

  // Accuracy: hierarchical vs flat exact on the base mesh, every level.
  const core::ScenarioSpec& base = fleet.front();
  const auto hier = core::solve(base.network, &base.demands, base.options);
  const auto exact =
      core::solve(base.network, &base.demands,
                  core::SolveOptions{core::SolverKind::kMvasd, kMaxPopulation});
  double parity_x = 0.0;
  double parity_r = 0.0;
  for (std::size_t i = 0; i < exact.levels(); ++i) {
    parity_x = std::max(parity_x,
                        std::abs(hier.throughput[i] - exact.throughput[i]) /
                            exact.throughput[i]);
    parity_r = std::max(
        parity_r, std::abs(hier.response_time[i] - exact.response_time[i]) /
                      exact.response_time[i]);
  }

  // Simulator cross-check at half load: 5 replications, shared window.
  constexpr unsigned kSimUsers = 256;
  const auto compiled_sim = graph::compile_sim(make_mesh(0, 1.0), kSimUsers);
  sim::ReplicatedSimOptions sim_options;
  sim_options.base.customers = kSimUsers;
  sim_options.base.think_time_mean = 1.0;
  sim_options.base.warmup_time = 60.0;
  sim_options.base.measure_time = 300.0;
  sim_options.replications = 5;
  sim_options.base_seed = 20260809;
  sim_options.split_measure_time = true;
  const auto sim = sim::simulate_replicated(compiled_sim.stations,
                                            compiled_sim.workflow, sim_options);
  const double sim_x = sim.throughput_ci.mean;
  const double sim_band = std::max(1.5 * sim.throughput_ci.half_width,
                                   0.01 * sim_x);
  const double hier_x_sim = hier.throughput[kSimUsers - 1];

  const core::ScenarioSpec cold = cold_workmodel();
  const double reduced_all_us = reduced_solve_us(cold, core::StationRows::kAll);
  const double reduced_util_us =
      reduced_solve_us(cold, core::StationRows::kUtilization);

  const double cold_speedup = flat_ms / std::max(cold_ms, 1e-6);
  const double warm_speedup = cold_ms / std::max(warm_ms, 1e-6);

  std::printf("hierarchical mesh: %u tiers, %zu stations, %zu scenarios to "
              "N=%u\n",
              kTiers, stations, fleet.size(), kMaxPopulation);
  std::printf("  flat baseline:  %9.2f ms  (per-spec exact MVA)\n", flat_ms);
  std::printf("  cold batch:     %9.2f ms  (%.1fx vs flat; %llu profile "
              "misses, %llu hits)\n",
              cold_ms, cold_speedup,
              static_cast<unsigned long long>(after_cold.fes_profile_misses),
              static_cast<unsigned long long>(after_cold.fes_profile_hits));
  std::printf("  warm batch:     %9.2f ms  (%.1fx vs cold; %zu/%zu hits)\n",
              warm_ms, warm_speedup, warm_hits, fleet.size());
  std::printf("  one-tier edit:  %9.2f ms  (+%llu profile hits, +%llu "
              "misses)\n",
              incremental_ms, static_cast<unsigned long long>(inc_hits),
              static_cast<unsigned long long>(inc_misses));
  std::printf("  parity vs exact: X %.3g%%, R %.3g%% (worst level)\n",
              100.0 * parity_x, 100.0 * parity_r);
  std::printf("  sim @%u users:  analytic %.2f vs sim %.2f +/- %.2f tx/s\n",
              kSimUsers, hier_x_sim, sim_x, sim_band);
  std::printf("  cold workmodel (%zu stations, N=600), cached profiles: "
              "%.1f us all rows, %.1f us utilization rows per solve\n",
              cold.network.size(), reduced_all_us, reduced_util_us);

  bool ok = true;
  ok &= gate("cold>=5x", cold_speedup >= 5.0);
  ok &= gate("warm>=20x", warm_speedup >= 20.0);
  // Each incremental spec recomputes exactly one profile (the edited
  // tier) and reuses the other eleven; variant 0 is the base mesh and
  // hits all twelve.
  ok &= gate("fes-reuse", inc_hits >= 11 * (kFleet - 1) &&
                              inc_misses <= kFleet + kTiers);
  ok &= gate("parity<=2%", parity_x <= 0.02 && parity_r <= 0.02);
  ok &= gate("sim-ci", std::abs(hier_x_sim - sim_x) <= sim_band);

  const std::string path = bench::out_dir() + "/BENCH_hierarchy.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"benchmark\": \"hierarchy_mesh_whatif\",\n"
      "  \"tiers\": %u,\n"
      "  \"stations\": %zu,\n"
      "  \"scenarios\": %zu,\n"
      "  \"max_population\": %u,\n"
      "  \"flat_batch_ms\": %.4f,\n"
      "  \"cold_batch_ms\": %.4f,\n"
      "  \"cold_speedup\": %.2f,\n"
      "  \"warm_batch_ms\": %.4f,\n"
      "  \"warm_speedup\": %.2f,\n"
      "  \"incremental_batch_ms\": %.4f,\n"
      "  \"incremental_fes_hits\": %llu,\n"
      "  \"incremental_fes_misses\": %llu,\n"
      "  \"parity_max_rel_throughput\": %.3e,\n"
      "  \"parity_max_rel_response\": %.3e,\n"
      "  \"sim_users\": %u,\n"
      "  \"sim_throughput\": %.4f,\n"
      "  \"sim_band\": %.4f,\n"
      "  \"analytic_throughput\": %.4f,\n"
      "  \"cold_workmodel_reduced_us_all_rows\": %.2f,\n"
      "  \"cold_workmodel_reduced_us_utilization\": %.2f,\n"
      "  \"gates_pass\": %s\n"
      "}\n",
      kTiers, stations, fleet.size(), kMaxPopulation, flat_ms, cold_ms,
      cold_speedup, warm_ms, warm_speedup, incremental_ms,
      static_cast<unsigned long long>(inc_hits),
      static_cast<unsigned long long>(inc_misses), parity_x, parity_r,
      kSimUsers, sim_x, sim_band, hier_x_sim, reduced_all_us, reduced_util_us,
      ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  (void)flat_x_top;
  return ok ? 0 : 1;
}
