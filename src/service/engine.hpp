// The scenario-evaluation engine: the front door for capacity-planning
// workloads that re-solve near-identical networks thousands of times
// (what-if sweeps, hardware-upgrade grids, Chebyshev test plans).
//
// Requests are declarative core::ScenarioSpecs.  Each spec is canonicalized
// into a structural Fingerprint (service/fingerprint.hpp) and served
// through a sharded LRU cache of solved MvaResults:
//
//   * exact hit      — same structure, same population: the cached result
//                      is shared (no copy, no solve);
//   * prefix hit     — same structure, shallower population N' <= N: exact
//                      MVA at N computes every level 1..N on the way, so
//                      the cached deep solve answers the request with an
//                      O(N' K) row copy instead of a re-solve;
//   * miss           — the solver runs (a lockstep block of the lane
//                      kernels, or core::solve) and the result is cached,
//                      deepening any existing shallower entry for the
//                      same structure.
//
// A cache entry holds its result and nothing else: a deeper re-solve of a
// varying-demand structure tabulates its demands from scratch, like any
// other miss.
//
// evaluate_batch is the engine's one miss path; evaluate() is a batch of
// one.  It dedupes specs with identical fingerprints (one solve per
// structure, duplicates filled by sharing or trimming), groups the
// remaining misses by structure, and solves each group through the
// lane-major batched kernels (core/detail/batch_engine.hpp) — the
// population recursion runs once per group, not once per spec.  Lockstep
// blocks fan out over the shared ThreadPool with chunked submission
// (common/thread_pool.hpp).  Each spec gets its own outcome: a spec whose
// solve fails carries its error in its Evaluation, and the other specs of
// its batch (and of its lockstep block) are served as if it were absent.
// All entry points are safe to call concurrently.
//
// Concurrent identical misses are single-flighted: the first request to
// register a fingerprint becomes the leader and runs the solver; requests
// for the same structure (at the same or a shallower population) that
// arrive while the solve is in flight wait for the leader's result instead
// of redundantly re-solving — one solve fans out to every waiter.  Waiters
// count as cache hits with the `coalesced` flag set.  A new leader probes
// the cache once more, since the previous leader may have stored its result
// and retired its flight after the first probe.  A request *deeper* than
// the in-flight solve runs independently (the deepen-in-place store keeps
// whichever result is deeper).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/sweep.hpp"
#include "service/fingerprint.hpp"

namespace mtperf::service {

struct EngineOptions {
  /// Total cached results across all shards (>= 1).
  std::size_t cache_capacity = 512;
  /// Lock shards; requests hash-distribute across them (>= 1).
  std::size_t shards = 8;
  /// Pool for batch/async evaluation.  Borrowed — must outlive the
  /// engine.  When null the engine owns a pool of `threads` workers.
  ThreadPool* pool = nullptr;
  /// Size of the owned pool when `pool` is null (0 = hardware concurrency).
  std::size_t threads = 0;
};

/// Outcome of one scenario evaluation.  On success `result` has exactly
/// `spec.options.max_population` levels, identical (bit-for-bit) to a
/// direct core::solve of the spec.  When the spec's solve failed, `error`
/// holds what core::solve throws for it and `result` is null.
struct Evaluation {
  std::string label;
  std::shared_ptr<const core::MvaResult> result = nullptr;
  bool cache_hit = false;   ///< served without running a solver
  bool prefix_hit = false;  ///< served by trimming a deeper cached solve
  double solve_ms = 0.0;    ///< solver wall time; 0 on hits
  /// Served by waiting on a concurrent identical request's in-flight solve
  /// (single-flight dedup) rather than probing the cache or solving.
  bool coalesced = false;
  std::exception_ptr error = nullptr;  ///< set when the solve failed
};

/// Lanes of the widest lockstep block the kernels run (a
/// schweitzer-multiclass block), mirrored here so the metrics surface does
/// not pull in core/detail headers (engine.cpp static_asserts it against
/// both kernels' block constants).
inline constexpr std::size_t kEngineMaxBlockLanes = 32;

/// Counter snapshot plus latency percentiles over all solves so far.
/// Counters are maintained as relaxed atomics and snapshotted without
/// taking any cache-shard lock, so metrics() is safe (and cheap) to call
/// from a serving hot path.
struct EngineMetrics {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;         ///< exact + prefix + coalesced
  std::uint64_t prefix_hits = 0;
  std::uint64_t coalesced = 0;  ///< joined a concurrent in-flight solve
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;      ///< currently cached results
  /// Buffer bytes the cached entries pin: the sum of their results'
  /// MvaResult::bytes.
  std::size_t cache_bytes = 0;
  std::size_t queue_depth = 0;  ///< specs inside evaluate_batch calls now
  double hit_rate = 0.0;        ///< hits / requests (0 when idle)
  /// Percentiles of per-solve latency (misses only), in milliseconds;
  /// all zero until the first miss.
  double solve_ms_p50 = 0.0;
  double solve_ms_p90 = 0.0;
  double solve_ms_p99 = 0.0;
  double solve_ms_max = 0.0;
  /// Lockstep batch occupancy: how full the lane-major blocks actually
  /// ran.  batch_occupancy[l] counts blocks that solved l lanes
  /// (1 <= l <= kEngineMaxBlockLanes; index 0 unused).  Every miss runs
  /// through evaluate_batch, so evaluate() misses (FES subnetwork solves
  /// among them) count as blocks too, mostly one-lane blocks.
  std::uint64_t batch_blocks = 0;  ///< lockstep blocks solved
  std::uint64_t batch_lanes = 0;   ///< lanes across those blocks
  /// Misses no lockstep kernel covered (kind not batchable, or a
  /// multiclass spec past the lockstep lattice budget) — each ran a
  /// per-spec scalar solve.  batch_lanes vs this counter is the
  /// lanes-vs-scalar split of serving traffic.  Hierarchical specs are
  /// exempt: they run per-spec by design (their reuse lives in the FES
  /// profile cache, not the lockstep kernel).
  std::uint64_t batch_scalar_fallbacks = 0;
  /// Flow-equivalent-server profile reuse (kHierarchical only): each tier's
  /// subnetwork solve routes back through this cache, so a batch editing
  /// one tier re-extracts one profile and shares the rest.  hits counts
  /// subnetwork solves served from cache (or a concurrent in-flight solve),
  /// misses counts subnetwork solves that actually ran.
  std::uint64_t fes_profile_hits = 0;
  std::uint64_t fes_profile_misses = 0;
  double batch_occupancy_mean = 0.0;  ///< lanes per block (0 when none)
  std::array<std::uint64_t, kEngineMaxBlockLanes + 1> batch_occupancy{};
};

class Engine final {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Evaluate one spec through the cache, synchronously: evaluate_batch of
  /// that one spec.  A failed solve rethrows its error (the exception
  /// core::solve throws for the spec).
  Evaluation evaluate(const core::ScenarioSpec& spec);

  /// Evaluate a batch; the returned vector matches the input order.
  /// Specs with identical fingerprints are deduplicated — the structure is
  /// solved once (at the batch's deepest requested population) and
  /// duplicate slots are filled by sharing or prefix-trimming that result,
  /// counted as cache hits.  Cache misses are grouped by structure and
  /// solved in lockstep by the lane-major batched kernels; blocks and
  /// scalar fallbacks run in parallel over the pool.  A spec whose solve
  /// fails gets an Evaluation carrying its error (and so do its in-batch
  /// duplicates); a block whose kernel throws re-solves its lanes one at a
  /// time, so only the failing lanes carry errors.  Throws only for
  /// failures before any solve (a population below 1, or a multiclass spec
  /// that breaks the axis-depth invariant the fingerprint needs).
  std::vector<Evaluation> evaluate_batch(
      std::span<const core::ScenarioSpec> specs);

  EngineMetrics metrics() const;

  /// Drop every cached result (counters keep accumulating).
  void clear();

  ThreadPool& pool() noexcept { return *pool_; }

 private:
  struct Shard;

  /// One in-flight miss: the leader's promised result, joined by
  /// concurrent requests for the same fingerprint (single-flight dedup).
  struct Flight {
    unsigned population = 0;  ///< depth the leader is solving to
    std::promise<std::shared_ptr<const core::MvaResult>> promise;
    std::shared_future<std::shared_ptr<const core::MvaResult>> future;
  };

  /// How a cache miss relates to the in-flight table.
  enum class FlightRole {
    kLeader,       ///< registered the flight; must solve and publish
    kFollower,     ///< joined an in-flight solve; awaits its future
    kIndependent,  ///< wants deeper than the in-flight solve; solves alone
  };

  Shard& shard_for(const Fingerprint& fp) const noexcept;
  void record_solve_ms(double ms);
  void record_batch_block(std::size_t lanes);

  /// Register as leader for `fp`, join an in-flight solve covering
  /// >= `want` levels, or learn to solve independently.  On kLeader and
  /// kFollower, `flight` receives the (new or joined) flight.
  FlightRole join_or_lead(const Fingerprint& fp, unsigned want,
                          std::shared_ptr<Flight>* flight);

  /// Retire the flight and publish the leader's result to every waiter,
  /// or, when `result` is null, `error` (waiters then fall back to
  /// solving).
  void settle_flight(const Fingerprint& fp,
                     const std::shared_ptr<Flight>& flight,
                     std::shared_ptr<const core::MvaResult> result,
                     std::exception_ptr error);

  /// Follower path: wait for the flight's result and serve `spec` from it
  /// through serve_hit.  Falls back to an independent solve if the leader
  /// failed.
  Evaluation await_flight(const core::ScenarioSpec& spec,
                          const Fingerprint& fp,
                          const std::shared_ptr<Flight>& flight);

  /// Count a cache hit on `cached` (at least `want` levels deep) and serve
  /// it, trimmed to `want` levels when deeper.
  Evaluation serve_hit(const std::string& label,
                       std::shared_ptr<const core::MvaResult> cached,
                       unsigned want);

  /// Cache probe: the cached result when it covers `want` levels (LRU
  /// bumped), else null.
  std::shared_ptr<const core::MvaResult> lookup(const Fingerprint& fp,
                                                unsigned want);

  /// Run the solver for one spec (no cache probe; counters untouched except
  /// the latency sample) and store the result.  A failed solve returns an
  /// Evaluation carrying the error instead of throwing.
  Evaluation solve_miss(const core::ScenarioSpec& spec, const Fingerprint& fp);

  /// Insert the solved result, deepening (never shrinking) any existing
  /// entry for `fp`.
  void store(const Fingerprint& fp,
             std::shared_ptr<const core::MvaResult> result);

  EngineOptions options_;
  std::size_t per_shard_capacity_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Hot counters: relaxed atomics written on the request path and read by
  // metrics() without any lock.  entries_ and cache_bytes_ mirror the shard
  // LRUs so the metrics snapshot does not have to walk (and lock) the
  // shards.
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> prefix_hits_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::size_t> entries_{0};
  std::atomic<std::size_t> cache_bytes_{0};
  std::atomic<std::size_t> queue_depth_{0};
  std::atomic<std::uint64_t> batch_blocks_{0};
  std::atomic<std::uint64_t> batch_lanes_{0};
  std::atomic<std::uint64_t> batch_scalar_fallbacks_{0};
  std::atomic<std::uint64_t> fes_profile_hits_{0};
  std::atomic<std::uint64_t> fes_profile_misses_{0};
  std::array<std::atomic<std::uint64_t>, kEngineMaxBlockLanes + 1>
      occupancy_hist_{};

  /// Per-solve latency samples, striped by thread so concurrent solves do
  /// not serialize on one mutex.  Percentiles need the raw sample, so the
  /// stripes hold mergeable accumulators (common/stats); metrics() locks
  /// each stripe just long enough to copy it, then merges the copies —
  /// the counters above stay lock-free, and solve recording contends only
  /// when two threads hash to the same stripe.
  struct LatencyStripe {
    std::mutex mutex;
    MomentAccumulator acc;
  };
  static constexpr std::size_t kLatencyStripes = 8;
  mutable std::array<LatencyStripe, kLatencyStripes> latency_stripes_;

  /// In-flight miss table (single-flight dedup).  Guarded by its own
  /// mutex: entries live only for the duration of a solve.
  std::mutex flights_mutex_;
  std::unordered_map<Fingerprint, std::shared_ptr<Flight>, FingerprintHash>
      flights_;
};

}  // namespace mtperf::service
