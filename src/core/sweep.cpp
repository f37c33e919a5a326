#include "core/sweep.hpp"

#include <utility>

namespace mtperf::core {

std::vector<LabeledResult> run_scenarios(
    const std::vector<ScenarioSpec>& scenarios, ThreadPool* pool,
    ScenarioEvaluator* evaluator) {
  std::vector<LabeledResult> out(scenarios.size());
  if (evaluator == nullptr) {
    // Direct solves: group structure-compatible specs and run them through
    // the lane-major lockstep kernel instead of one task per spec.
    // solve_batch guarantees bit-identical results to per-spec solve().
    std::vector<MvaResult> results = solve_batch(scenarios, pool);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      out[i] = LabeledResult{scenarios[i].label, std::move(results[i])};
    }
    return out;
  }
  const auto evaluate = [&](const ScenarioSpec& spec) {
    return evaluator->evaluate_spec(spec);
  };
  if (pool == nullptr) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      out[i] = LabeledResult{scenarios[i].label, evaluate(scenarios[i])};
    }
    return out;
  }
  parallel_for(*pool, scenarios.size(), [&](std::size_t i) {
    out[i] = LabeledResult{scenarios[i].label, evaluate(scenarios[i])};
  });
  return out;
}

}  // namespace mtperf::core
