// Closed queueing-network description consumed by the MVA family
// (paper Fig. 2): a set of product-form queueing stations — each with a
// visit count V_k and C_k identical servers — plus a terminal think time Z.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mtperf::core {

/// Station kinds: queueing (jobs contend for C servers) or pure delay
/// (infinite servers — no queueing, jobs always in service).
enum class StationKind { kQueueing, kDelay };

struct Station {
  std::string name;
  double visits = 1.0;   ///< V_k — average visits per system-level transaction
  unsigned servers = 1;  ///< C_k — number of identical servers (CPU cores, ...)
  StationKind kind = StationKind::kQueueing;
};

/// Closed single-class network with N terminal users of think time Z.
class ClosedNetwork {
 public:
  ClosedNetwork(std::vector<Station> stations, double think_time);

  const std::vector<Station>& stations() const noexcept { return stations_; }
  double think_time() const noexcept { return think_time_; }
  std::size_t size() const noexcept { return stations_.size(); }
  const Station& station(std::size_t k) const { return stations_.at(k); }
  std::size_t index_of(const std::string& name) const;
  /// The station names in station order (every result's station_names).
  std::vector<std::string> station_names() const;

 private:
  std::vector<Station> stations_;
  double think_time_;
};

/// Convenience builder for the common "all visits 1, single class" case the
/// demand-extraction pipeline produces (Service Demand Law folds V into D).
ClosedNetwork make_network(const std::vector<std::string>& station_names,
                           const std::vector<unsigned>& servers,
                           double think_time);

/// Fig. 2-style ASCII sketch of the network: the think-time delay plus one
/// box per station (server count, kind, visits).  For logs and examples.
std::string network_ascii(const ClosedNetwork& network);

}  // namespace mtperf::core
