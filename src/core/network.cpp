#include "core/network.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace mtperf::core {

ClosedNetwork::ClosedNetwork(std::vector<Station> stations, double think_time)
    : stations_(std::move(stations)), think_time_(think_time) {
  MTPERF_REQUIRE(!stations_.empty(), "network needs at least one station");
  MTPERF_REQUIRE(think_time_ >= 0.0, "think time must be non-negative");
  for (const auto& s : stations_) {
    MTPERF_REQUIRE(s.visits >= 0.0, "visit counts must be non-negative");
    MTPERF_REQUIRE(s.servers >= 1, "stations need at least one server");
  }
}

std::size_t ClosedNetwork::index_of(const std::string& name) const {
  const auto it = std::find_if(stations_.begin(), stations_.end(),
                               [&](const Station& s) { return s.name == name; });
  MTPERF_REQUIRE(it != stations_.end(), "unknown station: " + name);
  return static_cast<std::size_t>(std::distance(stations_.begin(), it));
}

std::vector<std::string> ClosedNetwork::station_names() const {
  std::vector<std::string> names;
  names.reserve(stations_.size());
  for (const Station& st : stations_) names.push_back(st.name);
  return names;
}

ClosedNetwork make_network(const std::vector<std::string>& station_names,
                           const std::vector<unsigned>& servers,
                           double think_time) {
  MTPERF_REQUIRE(station_names.size() == servers.size(),
                 "one server count per station required");
  std::vector<Station> stations;
  stations.reserve(station_names.size());
  for (std::size_t k = 0; k < station_names.size(); ++k) {
    stations.push_back(Station{station_names[k], 1.0, servers[k],
                               StationKind::kQueueing});
  }
  return ClosedNetwork(std::move(stations), think_time);
}

std::string network_ascii(const ClosedNetwork& network) {
  std::ostringstream os;
  os << "  [ " << "terminals: Z = " << network.think_time() << " s ]\n";
  os << "        |\n        v\n";
  for (const auto& st : network.stations()) {
    os << "  +--> [" << st.name;
    if (st.kind == StationKind::kDelay) {
      os << " | delay";
    } else {
      os << " | " << st.servers
         << (st.servers == 1 ? " server" : " servers");
    }
    if (st.visits != 1.0) os << " | V=" << st.visits;
    os << "]\n";
  }
  os << "        |\n        +--(back to terminals)\n";
  return os.str();
}

}  // namespace mtperf::core
