// The three workload runners and what they report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/json.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server_binary;  ///< mtperf_serve
  std::string out_dir;        ///< spans and run reports
};

/// Set-up runs per benchmark run; setup_s reports their median.
inline constexpr std::size_t kSetupRepeats = 5;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  ///< filled by traced runs only
  /// Per-phase counts, percentile sample sizes, layer shares, settings.
  mtperf::service::Json::Object details;
};

RunResult run_serve_cold(const Options& options);
RunResult run_serve_hot(const Options& options);
RunResult run_pipeline(const Options& options);

/// Every per-layer metric name with its unit, in report order.  A workload
/// reports 0 for a layer it never calls.
const std::vector<Metric>& per_layer_catalog();

// Shared by the runners.
double median(std::vector<double> values);
mtperf::service::Json::Object phase_counts(std::uint64_t sent,
                                           std::uint64_t ok,
                                           std::uint64_t failed,
                                           double generator_cpu_s);
/// Append throughput_rps (verified ops per second of the timed phase),
/// latency_p50_ms and latency_p90_ms, and record each percentile's sample
/// counts in run.details.  Throws when a percentile lacks its tail.
void add_latency_metrics(RunResult& run, std::vector<double> latencies_ms,
                         std::uint64_t ok_ops, double wall_s);
void set_layer(RunResult& run, const std::string& name, double value);

}  // namespace perfbench
