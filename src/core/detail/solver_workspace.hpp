// Reusable per-thread scratch buffers for schweitzer_mva and approx_mvasd.
//
// Every fixed-point iteration needs the same small set of per-station arrays
// (queues, residence times, current demands).  Allocating these per solve
// dominates the cost of small networks and fragments the heap in scenario
// sweeps.  The workspace hoists them into one thread_local
// object: buffers grow to the largest network seen on the thread and are
// then reused allocation-free across solves (each pool worker in a
// parallel sweep owns its own).
#pragma once

#include <cstddef>
#include <vector>

namespace mtperf::core::detail {

struct SolverWorkspace {
  std::vector<double> queue;
  std::vector<double> residence;
  std::vector<double> s_now;

  /// Size and zero the per-station arrays for a k_count-station network.
  void prepare_stations(std::size_t k_count) {
    queue.assign(k_count, 0.0);
    residence.assign(k_count, 0.0);
    s_now.assign(k_count, 0.0);
  }
};

/// The calling thread's workspace.  Solvers are non-reentrant with respect
/// to it (no solver calls another solver mid-iteration), so one per thread
/// suffices.
SolverWorkspace& tls_solver_workspace();

}  // namespace mtperf::core::detail
