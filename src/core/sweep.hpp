// Batch evaluation of independent model scenarios (the "MVA 28 / 70 /
// 140 / 210 vs MVASD" comparisons every figure bench runs, and the
// capacity-planning what-if sweeps).
//
// A scenario is *data*: a network, a demand model, and SolveOptions
// naming the solver — not a closure.  Declarative specs let the runner
// batch and parallelize them, and let the service-layer engine
// (service::Engine) fingerprint and memoize them.
#pragma once

#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/demand_model.hpp"
#include "core/network.hpp"
#include "core/result.hpp"
#include "core/solve.hpp"

namespace mtperf::core {

/// One declarative solver invocation: everything solve() needs, plus a
/// display label.  The label is presentation-only — evaluators must not
/// let it influence the result (the engine excludes it from fingerprints).
///
/// Default-constructs to a trivial single-station, zero-demand placeholder
/// so specs can be built up field by field.
struct ScenarioSpec {
  std::string label;
  ClosedNetwork network{{Station{}}, 0.0};
  DemandModel demands = DemandModel::constant({0.0});
  SolveOptions options;
};

struct LabeledResult {
  std::string label;
  MvaResult result;
};

/// Solve all specs through solve_batch() — in parallel when a pool is
/// supplied — and label the results: structure-compatible specs are solved
/// in lockstep by the lane-major batched kernel, with results bit-identical
/// to per-spec solve() calls.  The returned vector matches the input order.
std::vector<LabeledResult> run_scenarios(
    const std::vector<ScenarioSpec>& scenarios, ThreadPool* pool = nullptr);

}  // namespace mtperf::core
