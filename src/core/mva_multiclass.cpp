#include "core/mva_multiclass.hpp"

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace mtperf::core {

MulticlassGrid::MulticlassGrid(const ClosedNetwork& network,
                               const std::vector<CustomerClass>& classes,
                               unsigned max_total_population) {
  MTPERF_REQUIRE(max_total_population >= 1, "population must be at least 1");
  const std::size_t stations = network.size();
  models_.reserve(classes.size());
  grids_.reserve(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const CustomerClass& cls = classes[c];
    std::shared_ptr<const DemandModel> model = cls.demand_model;
    if (model == nullptr) {
      MTPERF_REQUIRE(cls.demands.size() == stations,
                     "class '" + cls.name + "': one demand per station required");
      model = std::make_shared<const DemandModel>(
          DemandModel::constant(cls.demands));
    } else {
      MTPERF_REQUIRE(model->stations() == stations,
                     "class '" + cls.name + "': one demand per station required");
    }
    grids_.emplace_back(*model, max_total_population);
    models_.push_back(std::move(model));
  }
}

std::size_t multiclass_axis_class(const std::vector<CustomerClass>& classes) {
  MTPERF_REQUIRE(!classes.empty(), "need at least one customer class");
  for (std::size_t c = classes.size(); c-- > 0;) {
    if (classes[c].population > 0) return c;
  }
  throw invalid_argument_error("all classes have zero population");
}

unsigned multiclass_total_population(
    const std::vector<CustomerClass>& classes) {
  // Summed in 64 bits: a sum that wrapped in 32 would size demand grids and
  // lattices for fewer customers than the recursions then add.
  std::uint64_t total = 0;
  for (const auto& c : classes) total += c.population;
  MTPERF_REQUIRE(total <= std::numeric_limits<unsigned>::max(),
                 "total class population " + std::to_string(total) +
                     " is too large (at most " +
                     std::to_string(std::numeric_limits<unsigned>::max()) +
                     " customers)");
  return static_cast<unsigned>(total);
}

}  // namespace mtperf::core
