#include "core/detail/mva_seidmann.hpp"

#include "core/detail/mva_exact.hpp"
#include "core/detail/mva_schweitzer.hpp"
#include "core/seidmann.hpp"

namespace mtperf::core::detail {

MvaResult seidmann_mva(const ClosedNetwork& network,
                       std::span<const double> service_times,
                       unsigned max_population, StationRows rows) {
  const SeidmannTransform t = seidmann_transform(network, service_times);
  return exact_mva(t.network, t.service_times, max_population, rows);
}

MvaResult seidmann_schweitzer_mva(const ClosedNetwork& network,
                                  std::span<const double> service_times,
                                  unsigned max_population,
                                  const SchweitzerOptions& options,
                                  StationRows rows) {
  const SeidmannTransform t = seidmann_transform(network, service_times);
  return schweitzer_mva(t.network, t.service_times, max_population, options,
                        rows);
}

}  // namespace mtperf::core::detail
