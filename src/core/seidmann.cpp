#include "core/seidmann.hpp"

#include "common/error.hpp"

namespace mtperf::core {

SeidmannTransform seidmann_transform(const ClosedNetwork& network,
                                     std::span<const double> service_times) {
  MTPERF_REQUIRE(service_times.size() == network.size(),
                 "one service time per station required");
  std::vector<Station> stations;
  std::vector<double> times;
  std::vector<std::size_t> queueing_leg;
  for (std::size_t k = 0; k < network.size(); ++k) {
    const Station& st = network.station(k);
    if (st.kind == StationKind::kDelay || st.servers == 1) {
      queueing_leg.push_back(stations.size());
      stations.push_back(st);
      times.push_back(service_times[k]);
      continue;
    }
    const auto c = static_cast<double>(st.servers);
    Station queueing = st;
    queueing.servers = 1;
    queueing.name = st.name + "/queue";
    queueing_leg.push_back(stations.size());
    stations.push_back(queueing);
    times.push_back(service_times[k] / c);

    Station delay = st;
    delay.servers = 1;
    delay.kind = StationKind::kDelay;
    delay.name = st.name + "/delay";
    stations.push_back(delay);
    times.push_back(service_times[k] * (c - 1.0) / c);
  }
  return SeidmannTransform{ClosedNetwork(std::move(stations), network.think_time()),
                           std::move(times), std::move(queueing_leg)};
}

}  // namespace mtperf::core
