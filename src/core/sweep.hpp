// Batch evaluation of independent model scenarios (the "MVA 28 / 70 /
// 140 / 210 vs MVASD" comparisons every figure bench runs, and the
// capacity-planning what-if sweeps).
//
// A scenario is *data*: a network, a demand model, and SolveOptions
// naming the solver — not a closure.  Declarative specs let the runner
// parallelize, and let the service-layer engine fingerprint and memoize
// them (see service::Engine, which plugs in through ScenarioEvaluator).
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

/// Evaluation strategy hook for run_scenarios: the default evaluator calls
/// core::solve directly; service::Engine implements this interface to serve
/// repeated and overlapping specs from its cache.  Implementations must be
/// safe to call concurrently from pool workers.
class ScenarioEvaluator {
 public:
  virtual ~ScenarioEvaluator() = default;
  virtual MvaResult evaluate_spec(const ScenarioSpec& spec) = 0;
};

/// Evaluate all specs — in parallel when a pool is supplied — through
/// `evaluator` (or, when null, through solve_batch(): structure-compatible
/// specs are solved in lockstep by the lane-major batched kernel, with
/// results bit-identical to per-spec solve() calls).  The returned vector
/// always matches the input order.
std::vector<LabeledResult> run_scenarios(
    const std::vector<ScenarioSpec>& scenarios, ThreadPool* pool = nullptr,
    ScenarioEvaluator* evaluator = nullptr);

}  // namespace mtperf::core
