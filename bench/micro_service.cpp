// Cold-vs-warm throughput of the scenario-evaluation engine on a VINS
// what-if fleet: 200 distinct hardware/demand variants of the paper's
// three-tier network, solved to 1500 users each.
//
// "Cold" is the first pass through an empty cache (every spec misses and
// runs the solver); "warm" repeats the identical batch, which is the
// steady state of a capacity-planning dashboard re-asking its questions —
// every spec is answered from the sharded LRU cache.  A third pass asks
// the same structures at a shallower population, exercising the
// prefix-reuse path.  Writes bench_out/BENCH_service.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/network.hpp"
#include "core/solve.hpp"
#include "core/sweep.hpp"
#include "service/engine.hpp"

namespace {

using namespace mtperf;

/// The paper's three-tier VINS layout (Fig. 2): 12 stations, 16-core CPUs,
/// single-server disks and NIC directions, 1 s think time.
core::ClosedNetwork vins_shape_network(unsigned cpu_cores) {
  const std::vector<std::string> names = {
      "load/cpu", "load/disk", "load/net-tx", "load/net-rx",
      "app/cpu",  "app/disk",  "app/net-tx",  "app/net-rx",
      "db/cpu",   "db/disk",   "db/net-tx",   "db/net-rx"};
  std::vector<unsigned> servers(names.size(), 1);
  servers[0] = servers[4] = servers[8] = cpu_cores;
  return core::make_network(names, servers, 1.0);
}

/// Transaction demands in the shape of Table 2 (seconds; db/disk dominates).
std::vector<double> vins_shape_demands() {
  return {0.004, 0.010, 0.002, 0.002, 0.012, 0.008,
          0.003, 0.003, 0.020, 0.034, 0.004, 0.004};
}

/// 200 what-if variants: sweep disk speed-up and database CPU demand over
/// a 20 x 10 grid — the kind of fleet a planning tool fans out.
std::vector<core::ScenarioSpec> make_fleet(unsigned max_users) {
  std::vector<core::ScenarioSpec> fleet;
  const auto base = vins_shape_demands();
  for (int disk_step = 0; disk_step < 20; ++disk_step) {
    for (int cpu_step = 0; cpu_step < 10; ++cpu_step) {
      auto d = base;
      const double disk_scale = 1.0 - 0.03 * disk_step;   // up to 1.75x faster
      const double cpu_scale = 1.0 + 0.05 * cpu_step;     // up to 1.45x heavier
      d[9] *= disk_scale;   // db/disk
      d[1] *= disk_scale;   // load/disk
      d[8] *= cpu_scale;    // db/cpu
      core::ScenarioSpec spec;
      spec.label = "disk" + std::to_string(disk_step) + "/cpu" +
                   std::to_string(cpu_step);
      spec.network = vins_shape_network(16);
      spec.demands = core::DemandModel::constant(std::move(d));
      spec.options.solver = core::SolverKind::kMvasd;
      spec.options.max_population = max_users;
      fleet.push_back(std::move(spec));
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

}  // namespace

int main() {
  constexpr unsigned kMaxUsers = 1500;
  const auto fleet = make_fleet(kMaxUsers);

  // Shallower follow-up questions: same structures at 500 users.
  auto shallow = fleet;
  for (auto& spec : shallow) spec.options.max_population = 500;

  service::Engine engine(service::EngineOptions{.cache_capacity = 256});

  std::vector<service::Evaluation> out;
  const double cold_ms =
      time_ms([&] { out = engine.evaluate_batch(fleet); });
  std::size_t cold_hits = 0;
  for (const auto& e : out) cold_hits += e.cache_hit ? 1 : 0;

  const double warm_ms =
      time_ms([&] { out = engine.evaluate_batch(fleet); });
  std::size_t warm_hits = 0;
  for (const auto& e : out) warm_hits += e.cache_hit ? 1 : 0;

  const double prefix_ms =
      time_ms([&] { out = engine.evaluate_batch(shallow); });
  std::size_t prefix_hits = 0;
  for (const auto& e : out) prefix_hits += e.prefix_hit ? 1 : 0;

  const double warm_speedup = cold_ms / std::max(warm_ms, 1e-6);
  const double prefix_speedup = cold_ms / std::max(prefix_ms, 1e-6);
  const auto metrics = engine.metrics();

  std::printf("VINS what-if fleet: %zu scenarios to N=%u (%zu stations)\n",
              fleet.size(), kMaxUsers, fleet.front().network.size());
  std::printf("  cold batch:   %8.2f ms  (%zu cache hits)\n", cold_ms,
              cold_hits);
  std::printf("  warm batch:   %8.2f ms  (%zu cache hits, %.1fx)\n", warm_ms,
              warm_hits, warm_speedup);
  std::printf("  prefix batch: %8.2f ms  (%zu prefix hits, %.1fx)\n",
              prefix_ms, prefix_hits, prefix_speedup);
  std::printf("  engine: %llu requests, hit rate %.2f, p50 solve %.3f ms\n",
              static_cast<unsigned long long>(metrics.requests),
              metrics.hit_rate, metrics.solve_ms_p50);

  const std::string path = bench::out_dir() + "/BENCH_service.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"service_engine_vins_whatif\",\n"
               "  \"scenarios\": %zu,\n"
               "  \"max_population\": %u,\n"
               "  \"cold_batch_ms\": %.4f,\n"
               "  \"warm_batch_ms\": %.4f,\n"
               "  \"warm_speedup\": %.2f,\n"
               "  \"prefix_batch_ms\": %.4f,\n"
               "  \"prefix_speedup\": %.2f,\n"
               "  \"warm_hits\": %zu,\n"
               "  \"prefix_hits\": %zu,\n"
               "  \"hit_rate\": %.4f\n"
               "}\n",
               fleet.size(), kMaxUsers, cold_ms, warm_ms, warm_speedup,
               prefix_ms, prefix_speedup, warm_hits, prefix_hits,
               metrics.hit_rate);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return warm_speedup >= 10.0 ? 0 : 1;
}
