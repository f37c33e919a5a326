#include "core/sweep.hpp"

#include <utility>

namespace mtperf::core {

std::vector<LabeledResult> run_scenarios(
    const std::vector<ScenarioSpec>& scenarios, ThreadPool* pool) {
  std::vector<MvaResult> results = solve_batch(scenarios, pool);
  std::vector<LabeledResult> out(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    out[i] = LabeledResult{scenarios[i].label, std::move(results[i])};
  }
  return out;
}

}  // namespace mtperf::core
