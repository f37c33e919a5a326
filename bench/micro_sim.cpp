// Microbenchmarks of the discrete-event simulator (google-benchmark):
// raw event throughput of the typed engine and end-to-end closed-network
// simulation cost, single-run and replicated.  After the google-benchmark
// pass, main() times the typed engine's events/sec, the parallel vs
// sequential R=8 replication throughput, the cost per simulated visit of
// the paper pipeline's two heaviest campaign cells, and the parallel
// efficiency of the pipeline's six campaign shapes on its 2-worker pool;
// it checks that parallel and sequential replications merge to
// bit-identical results and writes bench_out/BENCH_sim.json.  The exit
// code gates only the determinism parity — wall-clock numbers are
// recorded, not asserted (shared runners are too noisy to gate on).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "apps/jpetstore.hpp"
#include "apps/vins.hpp"
#include "bench_util.hpp"
#include "sim/closed_network_sim.hpp"
#include "sim/event_engine.hpp"
#include "sim/replicated.hpp"
#include "workload/campaign.hpp"
#include "workload/test_plan.hpp"

namespace {

using namespace mtperf;

constexpr int kEventsPerLoop = 10000;

void BM_EventLoopTyped(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventEngine eng;
    int count = 0;
    eng.schedule(1.0, sim::EventOp::kTick);
    eng.run_until(1e9, [&](const sim::Event&) {
      if (++count < kEventsPerLoop) eng.schedule(1.0, sim::EventOp::kTick);
    });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kEventsPerLoop);
}
BENCHMARK(BM_EventLoopTyped);

void BM_ClosedNetworkLevel(benchmark::State& state) {
  const auto users = static_cast<unsigned>(state.range(0));
  const auto app = apps::make_jpetstore();
  sim::SimOptions o;
  o.customers = users;
  o.think_time_mean = app.think_time();
  o.warmup_time = 10.0;
  o.measure_time = 50.0;
  o.seed = 11;
  std::uint64_t txn = 0;
  for (auto _ : state) {
    const auto r = simulate_closed_network(app.stations(),
                                           app.workflow(users), o);
    txn += r.transactions;
    benchmark::DoNotOptimize(r.throughput);
  }
  state.counters["transactions"] =
      benchmark::Counter(static_cast<double>(txn), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ClosedNetworkLevel)->Arg(10)->Arg(70)->Arg(210)
    ->Unit(benchmark::kMillisecond);

void BM_ClosedNetworkReplicated(benchmark::State& state) {
  const auto app = apps::make_jpetstore();
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  sim::ReplicatedSimOptions ro;
  ro.base.customers = 70;
  ro.base.think_time_mean = app.think_time();
  ro.base.warmup_time = 10.0;
  ro.base.measure_time = 50.0;
  ro.replications = 8;
  ro.base_seed = 11;
  ro.pool = state.range(0) > 0 ? &pool : nullptr;
  std::uint64_t txn = 0;
  for (auto _ : state) {
    const auto r = simulate_replicated(app.stations(), app.workflow(70), ro);
    txn += r.merged.transactions;
    benchmark::DoNotOptimize(r.merged.throughput);
  }
  state.counters["transactions"] =
      benchmark::Counter(static_cast<double>(txn), benchmark::Counter::kIsRate);
}
// range(0) = pool threads; 0 runs the replications sequentially.
BENCHMARK(BM_ClosedNetworkReplicated)->Arg(0)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------- BENCH_sim.json measurements

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

bool same_result(const sim::SimResult& a, const sim::SimResult& b) {
  if (a.transactions != b.transactions || a.throughput != b.throughput ||
      a.response_time != b.response_time ||
      a.response_time_ci.mean != b.response_time_ci.mean ||
      a.response_time_ci.half_width != b.response_time_ci.half_width ||
      a.response_percentiles.p95 != b.response_percentiles.p95 ||
      a.stations.size() != b.stations.size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.stations.size(); ++k) {
    if (a.stations[k].utilization != b.stations[k].utilization ||
        a.stations[k].completions != b.stations[k].completions) {
      return false;
    }
  }
  return true;
}

/// One of the heaviest cells of perfbench's pipeline-chebyshev workload:
/// the level that sets an op's makespan, run the way run_campaign runs it
/// there (Grinder defaults, a quarter warm-up, 2 replications), but
/// sequentially, so the time is one core's.  With about 288 (VINS) or 122
/// (JPetStore) events pending, 93% and 79% of them think completions, it
/// shows the event-list depth that the one-event chain above cannot.
struct HeavyCell {
  const char* app;
  unsigned customers;
  double duration_s;
  std::uint64_t visits = 0;        ///< station completions, warm-up included
  std::uint64_t transactions = 0;  ///< measured; a checksum across builds
  double ms = 0.0;
  double ns_per_visit = 0.0;
};

void time_heavy_cell(const workload::ApplicationModel& app, HeavyCell& cell,
                     int reps) {
  workload::CampaignSettings settings;
  settings.grinder.duration_s = cell.duration_s;
  settings.seed = 101;
  settings.replications = 2;
  const std::vector<unsigned> level{cell.customers};
  // Count every visit: without a warm-up the same event sequence is
  // measured from t = 0, so its station completions are all of them.
  workload::CampaignSettings count = settings;
  count.warmup_fraction = 0.0;
  cell.visits = 0;
  for (const auto& st : workload::run_campaign(app, level, count).runs[0]
                            .sim.stations) {
    cell.visits += st.completions;
  }
  cell.ms = min_over_reps(reps, [&] {
    cell.transactions =
        workload::run_campaign(app, level, settings).runs[0].sim.transactions;
  });
  cell.ns_per_visit = cell.ms * 1e6 / static_cast<double>(cell.visits);
}

/// One campaign shape of perfbench's pipeline-chebyshev ops: an app's
/// Chebyshev nodes plus N = 1, the op's simulated budget split evenly over
/// the levels, 2 replications per level.  The campaign runs sequentially
/// and on a pool of kPoolWorkers workers, whose caller joins in, so
/// efficiency = sequential / (threads x pooled) with threads = workers + 1.
struct CampaignShape {
  const char* app;
  std::size_t nodes;
  double budget_s;
  std::size_t levels = 0;
  double sequential_ms = 0.0;
  double pooled_ms = 0.0;
  double efficiency = 0.0;
};

constexpr std::size_t kPoolWorkers = 2;

void time_campaign_shape(const workload::ApplicationModel& app,
                         unsigned max_users, CampaignShape& shape, int reps) {
  const std::vector<unsigned> levels = workload::plan_concurrency_levels(
      1, max_users, shape.nodes, workload::SamplingStrategy::kChebyshev, 1,
      /*include_single_user=*/true);
  shape.levels = levels.size();
  workload::CampaignSettings settings;
  settings.grinder.duration_s =
      shape.budget_s / static_cast<double>(levels.size());
  settings.seed = 101;
  settings.replications = 2;
  shape.sequential_ms = min_over_reps(
      reps, [&] { workload::run_campaign(app, levels, settings); });
  ThreadPool pool(kPoolWorkers);
  settings.pool = &pool;
  shape.pooled_ms = min_over_reps(
      reps, [&] { workload::run_campaign(app, levels, settings); });
  shape.efficiency =
      shape.sequential_ms /
      (static_cast<double>(kPoolWorkers + 1) * shape.pooled_ms);
}

int write_bench_json() {
  constexpr int kChainEvents = 2'000'000;
  constexpr int kReps = 3;

  // Engine throughput: a self-rescheduling event chain — the pure
  // schedule/pop/dispatch cycle with no model work attached.
  const double typed_ms = min_over_reps(kReps, [&] {
    sim::EventEngine eng;
    int count = 0;
    eng.schedule(1.0, sim::EventOp::kTick);
    eng.run_until(1e18, [&](const sim::Event&) {
      if (++count < kChainEvents) eng.schedule(1.0, sim::EventOp::kTick);
    });
  });
  const double typed_eps = kChainEvents / (typed_ms / 1e3);

  // End-to-end replicated JPetStore level: R = 8 sequential vs on a pool
  // of 8 workers.  Both must merge to bit-identical results.
  const auto app = apps::make_jpetstore();
  sim::ReplicatedSimOptions ro;
  ro.base.customers = 70;
  ro.base.think_time_mean = app.think_time();
  ro.base.warmup_time = 10.0;
  ro.base.measure_time = 60.0;
  ro.replications = 8;
  ro.base_seed = 11;
  const auto workflow = app.workflow(70);

  sim::ReplicatedSimResult seq;
  const double seq_ms = min_over_reps(kReps, [&] {
    ro.pool = nullptr;
    seq = simulate_replicated(app.stations(), workflow, ro);
  });
  ThreadPool pool(8);
  sim::ReplicatedSimResult par;
  const double par_ms = min_over_reps(kReps, [&] {
    ro.pool = &pool;
    par = simulate_replicated(app.stations(), workflow, ro);
  });
  const bool deterministic = same_result(seq.merged, par.merged);
  const double seq_txn_per_s =
      static_cast<double>(seq.merged.transactions) / (seq_ms / 1e3);
  const double par_txn_per_s =
      static_cast<double>(par.merged.transactions) / (par_ms / 1e3);

  const double parallel_speedup = seq_ms / par_ms;
  const unsigned hw = std::thread::hardware_concurrency();

  HeavyCell heavy[] = {{"vins", 751, 20.5}, {"jpetstore", 151, 40.0}};
  time_heavy_cell(apps::make_vins(), heavy[0], kReps + 2);
  time_heavy_cell(app, heavy[1], kReps + 2);

  // The budgets are perfbench's: 82 s per VINS op, 160 s per JPetStore op.
  const auto vins = apps::make_vins();
  std::vector<CampaignShape> shapes;
  for (const bool is_vins : {true, false}) {
    for (const std::size_t nodes : {3, 5, 7}) {
      CampaignShape& shape = shapes.emplace_back(CampaignShape{
          is_vins ? "vins" : "jpetstore", nodes, is_vins ? 82.0 : 160.0});
      time_campaign_shape(
          is_vins ? vins : app,
          is_vins ? apps::kVinsMaxUsers : apps::kJPetStoreMaxUsers, shape,
          kReps);
    }
  }

  std::printf("\nevent engine: %.1f ms (%.0f events/s)\n", typed_ms,
              typed_eps);
  std::printf("replicated JPetStore level (R=8, N=70): sequential %.1f ms, "
              "pool(8) %.1f ms (%.2fx on %u hardware threads)\n",
              seq_ms, par_ms, parallel_speedup, hw);
  for (const HeavyCell& c : heavy) {
    std::printf("pipeline heavy cell %s N=%u (%.1f s, R=2): %.1f ms, "
                "%llu visits, %.1f ns/visit\n",
                c.app, c.customers, c.duration_s, c.ms,
                static_cast<unsigned long long>(c.visits), c.ns_per_visit);
  }
  for (const CampaignShape& c : shapes) {
    std::printf("pipeline campaign %s %zu nodes + N=1 (%.0f s, R=2): "
                "sequential %.1f ms, pool(%zu) %.1f ms, efficiency %.2f\n",
                c.app, c.nodes, c.budget_s, c.sequential_ms, kPoolWorkers,
                c.pooled_ms, c.efficiency);
  }
  std::printf("parallel == sequential merge: %s\n",
              deterministic ? "bit-identical" : "MISMATCH");

  const std::string path = bench::out_dir() + "/BENCH_sim.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"sim_hot_path\",\n"
               "  \"chain_events\": %d,\n"
               "  \"events_per_sec_typed\": %.0f,\n"
               "  \"replications\": %u,\n"
               "  \"level_customers\": %u,\n"
               "  \"sequential_ms\": %.2f,\n"
               "  \"parallel_ms\": %.2f,\n"
               "  \"sequential_txn_per_sec\": %.0f,\n"
               "  \"parallel_txn_per_sec\": %.0f,\n"
               "  \"parallel_speedup\": %.2f,\n"
               "  \"pool_threads\": 8,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"deterministic_across_pools\": %s,\n"
               "  \"heavy_cells\": [\n",
               kChainEvents, typed_eps,
               ro.replications, ro.base.customers, seq_ms, par_ms,
               seq_txn_per_s, par_txn_per_s, parallel_speedup, hw,
               deterministic ? "true" : "false");
  for (std::size_t i = 0; i < std::size(heavy); ++i) {
    const HeavyCell& c = heavy[i];
    std::fprintf(f,
                 "    {\"app\": \"%s\", \"customers\": %u, "
                 "\"duration_s\": %.1f, \"replications\": 2, "
                 "\"visits\": %llu, \"transactions\": %llu, "
                 "\"ms\": %.2f, \"ns_per_visit\": %.1f}%s\n",
                 c.app, c.customers, c.duration_s,
                 static_cast<unsigned long long>(c.visits),
                 static_cast<unsigned long long>(c.transactions), c.ms,
                 c.ns_per_visit, i + 1 < std::size(heavy) ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"campaign_pool_workers\": %zu,\n"
               "  \"campaign_efficiency\": [\n",
               kPoolWorkers);
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const CampaignShape& c = shapes[i];
    std::fprintf(f,
                 "    {\"app\": \"%s\", \"nodes\": %zu, \"levels\": %zu, "
                 "\"budget_s\": %.1f, \"replications\": 2, "
                 "\"sequential_ms\": %.2f, \"pooled_ms\": %.2f, "
                 "\"efficiency\": %.3f}%s\n",
                 c.app, c.nodes, c.levels, c.budget_s, c.sequential_ms,
                 c.pooled_ms, c.efficiency,
                 i + 1 < shapes.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return deterministic ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_bench_json();
}
