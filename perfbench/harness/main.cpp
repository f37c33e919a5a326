// perfbench — one run of one benchmark workload.
//
//   perfbench --workload serve-cold-whatif --seed 3 --seconds 20
//             --trace 0 --out-dir .bench_build/out [--git-sha SHA]
//             --server-binary .bench_build/mtperf/tools/mtperf_serve
//
// Prints a run header and per-phase counts, then, as the last stdout line,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  Exits 1 when any
// op failed verification, 2 on a usage or set-up error.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <sys/utsname.h>
#include <thread>

#include "measure.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS ""
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NATIVE
#define PERFBENCH_NATIVE "OFF"
#endif

namespace perfbench {

using mtperf::service::Json;

const std::vector<Metric>& per_layer_catalog() {
  static const std::vector<Metric> catalog = {
      {"service.batch_size_mean", 0, "req/batch"},
      {"service.flush_by_size_ratio", 0, "1"},
      {"service.queue_peak", 0, "count"},
      {"service.rejected", 0, "count"},
      {"service.parse_us", 0, "us"},
      {"service.json_parse_us", 0, "us"},
      {"service.serialize_us", 0, "us"},
      {"service.bytes_in", 0, "B/op"},
      {"service.bytes_out", 0, "B/op"},
      {"service.fingerprint_us", 0, "us"},
      {"service.engine_self_us", 0, "us"},
      {"service.hit_ratio", 0, "1"},
      {"service.prefix_hit_ratio", 0, "1"},
      {"service.coalesced_ratio", 0, "1"},
      {"service.evictions_per_op", 0, "1/op"},
      {"service.lanes_per_block", 0, "lanes"},
      {"service.scalar_fallback_ratio", 0, "1"},
      {"service.fes_profile_hit_ratio", 0, "1"},
      {"graph.compile_us", 0, "us"},
      {"graph.stations_per_spec", 0, "count"},
      {"core.kernel_us.mvasd", 0, "us"},
      {"core.kernel_us.schweitzer-multiclass", 0, "us"},
      {"core.kernel_us.mom-multiclass", 0, "us"},
      {"core.kernel_us.hierarchical", 0, "us"},
      {"core.result_bytes", 0, "B"},
      {"workload.campaign_ms", 0, "ms"},
      {"sim.completions", 0, "count"},
      {"sim.completions_per_s", 0, "1/s"},
      {"common.pool_tasks", 0, "count"},
      {"ops.extract_us", 0, "us"},
      {"interp.spline_us", 0, "us"},
      {"core.mvasd_us", 0, "us"},
      {"core.mvasd_dev_pct_max", 0, "%"},
      {"trace.overhead_pct", 0, "%"},
  };
  return catalog;
}

void set_layer(RunResult& run, const std::string& name, double value) {
  if (run.per_layer.empty()) run.per_layer = per_layer_catalog();
  for (Metric& m : run.per_layer) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Json::Object phase_counts(std::uint64_t sent, std::uint64_t ok,
                          std::uint64_t failed, double generator_cpu_s) {
  Json::Object o;
  o["sent"] = static_cast<unsigned long long>(sent);
  o["succeeded"] = static_cast<unsigned long long>(ok);
  o["failed"] = static_cast<unsigned long long>(failed);
  o["generator_cpu_us_per_op"] =
      sent ? generator_cpu_s * 1e6 / static_cast<double>(sent) : 0.0;
  return o;
}

void add_latency_metrics(RunResult& run, std::vector<double> latencies_ms,
                         std::uint64_t ok_ops, double wall_s) {
  const Percentile p50 = percentile_with_tail(latencies_ms, 0.50);
  const Percentile p90 = percentile_with_tail(latencies_ms, 0.90);
  run.end_to_end.push_back(
      {"throughput_rps", static_cast<double>(ok_ops) / wall_s, "1/s"});
  run.end_to_end.push_back({"latency_p50_ms", p50.value, "ms"});
  run.end_to_end.push_back({"latency_p90_ms", p90.value, "ms"});
  Json::Object counts;
  for (const auto& [name, p] : {std::pair{"p50", p50}, std::pair{"p90", p90}}) {
    Json::Object c;
    c["samples"] = static_cast<unsigned long long>(p.samples);
    c["beyond"] = static_cast<unsigned long long>(p.beyond);
    counts[name] = Json(std::move(c));
  }
  run.details["percentile_samples"] = Json(std::move(counts));
}

namespace {

Json metrics_json(const std::vector<Metric>& metrics) {
  Json::Object out;
  for (const Metric& m : metrics) {
    Json::Object entry;
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    out[m.name] = Json(std::move(entry));
  }
  return Json(std::move(out));
}

Json header(const Options& options, const std::string& git_sha) {
  Json::Object h;
  h["workload"] = options.workload;
  h["seed"] = static_cast<unsigned long long>(options.seed);
  h["seconds"] = options.seconds;
  h["trace"] = options.trace;
  h["git_sha"] = git_sha;
  h["compiler"] = PERFBENCH_COMPILER;
  h["flags"] = PERFBENCH_FLAGS;
  h["build_type"] = PERFBENCH_BUILD_TYPE;
  h["MTPERF_NATIVE"] = PERFBENCH_NATIVE;
  h["nproc"] = static_cast<unsigned long long>(
      std::thread::hardware_concurrency());
  utsname u{};
  h["kernel"] = ::uname(&u) == 0 ? std::string(u.sysname) + " " + u.release
                                 : std::string("unknown");
  return Json(std::move(h));
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{serve-cold-whatif|serve-hot-zipf|pipeline-chebyshev} "
               "--seed N --seconds S --trace {0|1} --server-binary PATH "
               "--out-dir DIR [--git-sha SHA]\n",
               message);
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") options.workload = value;
      else if (arg == "--seed") options.seed = std::stoull(value);
      else if (arg == "--seconds") options.seconds = std::stod(value);
      else if (arg == "--trace") options.trace = std::stoi(value) != 0;
      else if (arg == "--server-binary") options.server_binary = value;
      else if (arg == "--out-dir") options.out_dir = value;
      else if (arg == "--git-sha") git_sha = value;
      else usage(("unknown option " + arg).c_str());
    } catch (const std::invalid_argument&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (options.seconds <= 0.0) usage("--seconds must be positive");
  if (options.out_dir.empty()) usage("--out-dir is required");

  RunResult run;
  try {
    std::filesystem::create_directories(options.out_dir);
    std::printf("%s\n",
                Json(Json::Object{{"header", header(options, git_sha)}})
                    .dump()
                    .c_str());
    std::fflush(stdout);
    if (options.workload == "serve-cold-whatif") {
      run = run_serve_cold(options);
    } else if (options.workload == "serve-hot-zipf") {
      run = run_serve_hot(options);
    } else if (options.workload == "pipeline-chebyshev") {
      run = run_pipeline(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  Json::Object report = run.details;
  report["header"] = header(options, git_sha);
  report["end_to_end"] = metrics_json(run.end_to_end);
  if (options.trace) report["per_layer"] = metrics_json(run.per_layer);
  const std::string report_path = options.out_dir + "/report-" +
                                   options.workload + "-seed" +
                                   std::to_string(options.seed) + "-trace" +
                                   (options.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(report_path.c_str(), "w")) {
    std::fprintf(f, "%s\n", Json(report).dump().c_str());
    std::fclose(f);
  }
  std::printf("%s\n", Json(Json::Object{{"details", Json(run.details)}})
                          .dump()
                          .c_str());

  Json::Object result;
  result["correct"] = run.correct;
  result["attempted"] = static_cast<unsigned long long>(run.attempted);
  result["failed"] = static_cast<unsigned long long>(run.failed);
  result["metrics"] =
      metrics_json(options.trace ? run.per_layer : run.end_to_end);
  std::printf("%s\n", Json(std::move(result)).dump().c_str());
  std::fflush(stdout);
  return run.correct && run.failed == 0 ? 0 : 1;
}
