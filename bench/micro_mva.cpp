// Microbenchmarks of the MVA solver family (google-benchmark).
//
// Times the recursions behind core::solve: single-server exact MVA,
// Schweitzer, and the exact multi-server recursion (Algorithms 2 and 3,
// kMvasd) — all O(N K).
//
// Also carries the before/after pairs for the hot-path overhaul (tabulated
// DemandGrid + workspace + SoA results vs the original per-(n,k) functional
// demand evaluation + per-population AoS assembly; chunked parallel_for vs
// one queued task per index).  Running this binary writes the headline
// numbers to bench_out/BENCH_solver.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "core/demand_model.hpp"
#include "core/detail/mva_schweitzer.hpp"
#include "core/network.hpp"
#include "core/solve.hpp"
#include "interp/cubic_spline.hpp"

namespace {

using namespace mtperf;

core::ClosedNetwork make_net(std::size_t stations, unsigned servers) {
  std::vector<core::Station> st;
  for (std::size_t k = 0; k < stations; ++k) {
    st.push_back(core::Station{"s" + std::to_string(k), 1.0,
                               k % 3 == 0 ? servers : 1,
                               core::StationKind::kQueueing});
  }
  return core::ClosedNetwork(std::move(st), 1.0);
}

std::vector<double> make_demands(std::size_t stations) {
  std::vector<double> d(stations);
  for (std::size_t k = 0; k < stations; ++k) {
    d[k] = 0.001 + 0.001 * static_cast<double>(k % 7);
  }
  return d;
}

/// Spline demand model shaped like the paper's campaigns: demands shrink
/// with load, knots spread over the whole population range so the solver
/// sweep crosses every spline segment.
core::DemandModel make_spline_demands(std::size_t stations,
                                      unsigned max_population) {
  std::vector<std::shared_ptr<const interp::Interpolator1D>> splines;
  const auto top = static_cast<double>(max_population);
  // Eleven measured concurrency levels per station, the shape of a real
  // demand-measurement campaign (paper Fig. 5/7: demands drift down as
  // caches warm and batching kicks in).
  for (std::size_t k = 0; k < stations; ++k) {
    const double base = 0.001 + 0.001 * static_cast<double>(k % 7);
    std::vector<double> xs = {1.0,        0.02 * top, 0.05 * top, 0.1 * top,
                              0.2 * top,  0.3 * top,  0.45 * top, 0.6 * top,
                              0.75 * top, 0.9 * top,  top};
    std::vector<double> ys;
    for (const double frac : {1.0, 0.99, 0.975, 0.95, 0.92, 0.88, 0.845, 0.8,
                              0.78, 0.76, 0.75}) {
      ys.push_back(base * frac);
    }
    splines.push_back(std::make_shared<interp::PiecewiseCubic>(
        interp::build_cubic_spline(
            interp::SampleSet(std::move(xs), std::move(ys)))));
  }
  return core::DemandModel::interpolated(std::move(splines));
}

// ---------------------------------------------------------------------------
// Reference copy of the pre-overhaul solver: demands through the
// std::function path per (n, k), AoS result rows allocated per population,
// marginal double-buffer swapped each level.  Kept verbatim (modulo the
// local result struct) so the grid-path speedup is measured against the
// real before-state, not a strawman.

struct SeedStyleResult {
  std::vector<unsigned> population;
  std::vector<double> throughput;
  std::vector<double> response_time;
  std::vector<double> cycle_time;
  std::vector<std::vector<double>> station_queue;
  std::vector<std::vector<double>> station_utilization;
  std::vector<std::vector<double>> station_residence;
  std::vector<std::string> station_names;
};

SeedStyleResult seed_style_mvasd(const core::ClosedNetwork& network,
                                 const core::DemandModel& demands,
                                 unsigned max_population) {
  const std::size_t k_count = network.size();
  SeedStyleResult result;
  for (const auto& st : network.stations()) {
    result.station_names.push_back(st.name);
  }

  std::vector<double> queue(k_count, 0.0);
  std::vector<double> residence(k_count, 0.0);
  std::vector<std::vector<double>> p(k_count);
  std::vector<std::vector<double>> p_next(k_count);
  for (std::size_t k = 0; k < k_count; ++k) {
    p[k].assign(network.station(k).servers, 0.0);
    p[k][0] = 1.0;
    p_next[k].assign(network.station(k).servers, 0.0);
  }

  double previous_throughput = 0.0;
  std::vector<double> s_now(k_count, 0.0);

  for (unsigned n = 1; n <= max_population; ++n) {
    const double axis_value =
        demands.axis() == core::DemandModel::Axis::kConcurrency
            ? static_cast<double>(n)
            : previous_throughput;
    for (std::size_t k = 0; k < k_count; ++k) {
      s_now[k] = demands.at(k, axis_value);
    }

    double total_residence = 0.0;
    for (std::size_t k = 0; k < k_count; ++k) {
      const core::Station& st = network.station(k);
      double wait;
      if (st.kind == core::StationKind::kDelay) {
        wait = s_now[k];
      } else if (st.servers == 1) {
        wait = s_now[k] * (1.0 + queue[k]);
      } else {
        const auto c = static_cast<double>(st.servers);
        double f = 0.0;
        for (unsigned j = 0; j + 1 < st.servers; ++j) {
          f += (c - 1.0 - static_cast<double>(j)) * p[k][j];
        }
        wait = s_now[k] / c * (1.0 + queue[k] + f);
      }
      residence[k] = st.visits * wait;
      total_residence += residence[k];
    }
    const double cycle = total_residence + network.think_time();
    const double x = static_cast<double>(n) / cycle;

    std::vector<double> util(k_count, 0.0);
    for (std::size_t k = 0; k < k_count; ++k) {
      const core::Station& st = network.station(k);
      queue[k] = x * residence[k];
      util[k] = x * st.visits * s_now[k] / static_cast<double>(st.servers);
      if (st.kind == core::StationKind::kQueueing && st.servers > 1) {
        const double xs = x * st.visits * s_now[k];
        const auto c = static_cast<double>(st.servers);
        if (xs >= c) {
          std::fill(p[k].begin(), p[k].end(), 0.0);
        } else {
          double weighted_tail = 0.0;
          for (unsigned j = 1; j < st.servers; ++j) {
            p_next[k][j] = xs * p[k][j - 1] / static_cast<double>(j);
            weighted_tail += (c - static_cast<double>(j)) * p_next[k][j];
          }
          const double idle = c - xs;
          if (weighted_tail > idle && weighted_tail > 0.0) {
            const double scale = idle / weighted_tail;
            for (unsigned j = 1; j < st.servers; ++j) p_next[k][j] *= scale;
            p_next[k][0] = 0.0;
          } else {
            p_next[k][0] = (idle - weighted_tail) / c;
          }
          std::swap(p[k], p_next[k]);
        }
      }
    }
    result.population.push_back(n);
    result.throughput.push_back(x);
    result.response_time.push_back(total_residence);
    result.cycle_time.push_back(cycle);
    result.station_queue.push_back(queue);
    result.station_utilization.push_back(std::move(util));
    result.station_residence.push_back(residence);
    previous_throughput = x;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Baseline solver benchmarks (unchanged shapes).

void BM_ExactMva(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto net = make_net(k, 1);
  const auto model = core::DemandModel::constant(make_demands(k));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve(net, model, {core::SolverKind::kExactSingleServer, n}));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ExactMva)->Args({100, 12})->Args({1000, 12})->Args({1500, 12})
    ->Args({1000, 4})->Args({1000, 24})->Complexity(benchmark::oN);

void BM_SchweitzerMva(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const auto net = make_net(12, 1);
  const auto demands = make_demands(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::detail::schweitzer_mva(net, demands, n));
  }
}
BENCHMARK(BM_SchweitzerMva)->Arg(100)->Arg(1000);

void BM_MultiServerMva(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const auto net = make_net(12, 16);
  const auto model = core::DemandModel::constant(make_demands(12));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve(net, model, {core::SolverKind::kMvasd, n}));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MultiServerMva)->Arg(100)->Arg(500)->Arg(1500)
    ->Complexity(benchmark::oN);

// ---------------------------------------------------------------------------
// Before/after: grid-path MVASD vs the seed-style functional path.

void BM_Mvasd(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto net = make_net(k, 16);
  const auto model = make_spline_demands(k, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve(net, model, {core::SolverKind::kMvasd, n}));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Mvasd)->Args({100, 12})->Args({500, 12})->Args({1500, 12})
    ->Args({10000, 8})->Complexity(benchmark::oN);

void BM_MvasdSeedFunctional(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto net = make_net(k, 16);
  const auto model = make_spline_demands(k, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seed_style_mvasd(net, model, n));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MvasdSeedFunctional)->Args({1500, 12})->Args({10000, 8})
    ->Complexity(benchmark::oN);

// ---------------------------------------------------------------------------
// Result assembly in isolation: per-population AoS push_back vs pre-sized
// SoA row writes, N = 10000 levels of K = 8 stations.

void BM_ResultAssemblyAoS(benchmark::State& state) {
  const std::size_t levels = 10000, k_count = 8;
  const std::vector<double> row(k_count, 0.25);
  for (auto _ : state) {
    SeedStyleResult r;
    for (std::size_t k = 0; k < k_count; ++k) {
      r.station_names.push_back("s" + std::to_string(k));
    }
    for (std::size_t i = 0; i < levels; ++i) {
      r.population.push_back(static_cast<unsigned>(i + 1));
      r.throughput.push_back(1.0);
      r.response_time.push_back(1.0);
      r.cycle_time.push_back(2.0);
      r.station_queue.push_back(row);
      r.station_utilization.push_back(row);
      r.station_residence.push_back(row);
    }
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ResultAssemblyAoS);

void BM_ResultAssemblySoA(benchmark::State& state) {
  const std::size_t levels = 10000, k_count = 8;
  const std::vector<double> row(k_count, 0.25);
  std::vector<std::string> names;
  for (std::size_t k = 0; k < k_count; ++k) {
    names.push_back("s" + std::to_string(k));
  }
  for (auto _ : state) {
    core::MvaResult r;
    r.reset(names, levels);
    for (std::size_t i = 0; i < levels; ++i) {
      r.throughput[i] = 1.0;
      r.response_time[i] = 1.0;
      r.cycle_time[i] = 2.0;
      std::copy(row.begin(), row.end(), r.queue_row(i));
      std::copy(row.begin(), row.end(), r.utilization_row(i));
      std::copy(row.begin(), row.end(), r.residence_row(i));
    }
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ResultAssemblySoA);

// ---------------------------------------------------------------------------
// parallel_for dispatch: chunked (library) vs one queued task per index
// (the pre-overhaul shape, reproduced locally).

void per_item_parallel_for(ThreadPool& pool, std::size_t n,
                           const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool.submit([&fn, i] { fn(i); }));
  }
  for (auto& f : futures) f.get();
}

void BM_ParallelForChunked(benchmark::State& state) {
  ThreadPool pool(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    parallel_for(pool, n, [&sink](std::size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_ParallelForChunked)->Arg(256)->Arg(4096);

void BM_ParallelForPerItem(benchmark::State& state) {
  ThreadPool pool(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    per_item_parallel_for(pool, n, [&sink](std::size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_ParallelForPerItem)->Arg(256)->Arg(4096);

// ---------------------------------------------------------------------------
// Headline numbers: hand-timed at fixed iteration counts and written to
// bench_out/BENCH_solver.json for machine consumption (CI, regression
// tracking).

double time_ms(const std::function<void()>& body, int reps) {
  // Warm-up: thread_local workspace growth, and glibc's adaptive mmap
  // threshold needs a few alloc/free cycles before large result buffers
  // stop being mmap'd (and page-faulted) fresh on every call.
  for (int i = 0; i < 3; ++i) body();
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(stop - start).count());
  }
  return best;  // min-of-reps: robust against scheduler noise
}

void write_solver_json() {
  constexpr unsigned kPop = 10000;
  constexpr std::size_t kStations = 8;
  const auto net = make_net(kStations, 16);
  const auto model = make_spline_demands(kStations, kPop);

  const double grid_ms = time_ms(
      [&] {
        benchmark::DoNotOptimize(
            core::solve(net, model, {core::SolverKind::kMvasd, kPop}));
      },
      20);
  const double seed_ms = time_ms(
      [&] { benchmark::DoNotOptimize(seed_style_mvasd(net, model, kPop)); },
      20);

  ThreadPool pool(4);
  constexpr std::size_t kItems = 4096;
  std::atomic<std::uint64_t> sink{0};
  const auto tiny = [&sink](std::size_t i) {
    sink.fetch_add(i, std::memory_order_relaxed);
  };
  const double per_item_ms =
      time_ms([&] { per_item_parallel_for(pool, kItems, tiny); }, 20);
  const double chunked_ms =
      time_ms([&] { parallel_for(pool, kItems, tiny); }, 20);

  const std::string path = bench::out_dir() + "/BENCH_solver.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"mvasd_hot_path\",\n"
               "  \"population\": %u,\n"
               "  \"stations\": %zu,\n"
               "  \"seed_functional_ms\": %.4f,\n"
               "  \"grid_ms\": %.4f,\n"
               "  \"speedup\": %.2f,\n"
               "  \"parallel_for\": {\n"
               "    \"items\": %zu,\n"
               "    \"workers\": %zu,\n"
               "    \"per_item_ms\": %.4f,\n"
               "    \"chunked_ms\": %.4f,\n"
               "    \"speedup\": %.2f\n"
               "  }\n"
               "}\n",
               kPop, kStations, seed_ms, grid_ms, seed_ms / grid_ms, kItems,
               pool.size(), per_item_ms, chunked_ms,
               per_item_ms / chunked_ms);
  std::fclose(f);
  std::printf("MVASD N=%u K=%zu: functional %.3f ms, grid %.3f ms (%.2fx)\n",
              kPop, kStations, seed_ms, grid_ms, seed_ms / grid_ms);
  std::printf("parallel_for n=%zu: per-item %.3f ms, chunked %.3f ms (%.2fx)\n",
              kItems, per_item_ms, chunked_ms, per_item_ms / chunked_ms);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Before the suite: the suite's own allocations fragment the heap enough
  // to skew the head-to-head timing, and the JSON must reflect a clean run.
  write_solver_json();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
