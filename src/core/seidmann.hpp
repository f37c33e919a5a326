// Seidmann's approximation for multi-server queues — the style of
// correction the paper's references [19]/[20] (and the MAQ-PRO process
// built on them) apply to *approximate* MVA.  Each C-server station is
// replaced by a tandem pair:
//   * a single-server queueing station with demand S / C, and
//   * a pure delay station with demand S (C - 1) / C.
// Cheap and often adequate at low load, but it under-estimates waiting near
// saturation — the inaccuracy at high concurrency the paper calls out when
// motivating the exact multi-server algorithm.
#pragma once

#include <span>

#include "core/network.hpp"

namespace mtperf::core {

/// The transformed network and demands.  core::solve applies it for
/// SolverKind::kSeidmann and kSeidmannSchweitzer; callers apply it
/// themselves to feed multi-core stations to the multiclass kinds, which
/// need single-server queueing stations.
struct SeidmannTransform {
  ClosedNetwork network;
  std::vector<double> service_times;
  /// For each original station, index of its queueing leg in `network`.
  std::vector<std::size_t> queueing_leg;
};

SeidmannTransform seidmann_transform(const ClosedNetwork& network,
                                     std::span<const double> service_times);

}  // namespace mtperf::core
