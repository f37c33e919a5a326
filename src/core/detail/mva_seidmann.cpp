#include "core/detail/mva_seidmann.hpp"

#include "core/detail/mva_exact.hpp"
#include "core/detail/mva_schweitzer.hpp"
#include "core/seidmann.hpp"

namespace mtperf::core::detail {

MvaResult seidmann_mva(const ClosedNetwork& network,
                       std::span<const double> service_times,
                       unsigned max_population) {
  const SeidmannTransform t = seidmann_transform(network, service_times);
  return exact_mva(t.network, t.service_times, max_population);
}

MvaResult seidmann_schweitzer_mva(const ClosedNetwork& network,
                                  std::span<const double> service_times,
                                  unsigned max_population,
                                  const SchweitzerOptions& options) {
  const SeidmannTransform t = seidmann_transform(network, service_times);
  return schweitzer_mva(t.network, t.service_times, max_population, options);
}

}  // namespace mtperf::core::detail
