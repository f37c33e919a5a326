#include "service/engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <functional>
#include <list>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/detail/batch_engine.hpp"
#include "core/detail/hierarchy_engine.hpp"
#include "core/detail/multiclass_batch_engine.hpp"

namespace mtperf::service {

static_assert(kEngineMaxBlockLanes ==
                  std::max(core::detail::kBatchLaneBlock,
                           core::detail::kMcSchweitzerLaneBlock),
              "EngineMetrics occupancy histogram must cover the widest "
              "lockstep block the kernels run");

namespace {

struct CacheEntry {
  Fingerprint key;
  std::shared_ptr<const core::MvaResult> result;
  /// result->bytes(), counted in cache_bytes_.
  std::size_t bytes = 0;
};

}  // namespace

/// One lock shard: an LRU list (front = most recently used) plus an index
/// into it.  Entries hold results at the *deepest* population solved so
/// far for their structure; shallower requests trim, deeper solves
/// replace.
struct Engine::Shard {
  std::mutex mutex;
  std::list<CacheEntry> lru;
  std::unordered_map<Fingerprint, std::list<CacheEntry>::iterator,
                     FingerprintHash>
      index;
};

Engine::Engine(EngineOptions options) : options_(options) {
  MTPERF_REQUIRE(options_.cache_capacity >= 1,
                 "engine cache needs capacity for at least one result");
  MTPERF_REQUIRE(options_.shards >= 1, "engine needs at least one shard");
  options_.shards = std::min(options_.shards, options_.cache_capacity);
  per_shard_capacity_ =
      (options_.cache_capacity + options_.shards - 1) / options_.shards;
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (options_.pool != nullptr) {
    pool_ = options_.pool;
  } else {
    owned_pool_ = std::make_unique<ThreadPool>(options_.threads);
    pool_ = owned_pool_.get();
  }
}

Engine::~Engine() = default;

Engine::Shard& Engine::shard_for(const Fingerprint& fp) const noexcept {
  return *shards_[FingerprintHash{}(fp) % shards_.size()];
}

void Engine::record_solve_ms(double ms) {
  const std::size_t stripe =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      kLatencyStripes;
  std::lock_guard<std::mutex> lock(latency_stripes_[stripe].mutex);
  latency_stripes_[stripe].acc.add(ms);
}

void Engine::record_batch_block(std::size_t lanes) {
  batch_blocks_.fetch_add(1, std::memory_order_relaxed);
  batch_lanes_.fetch_add(lanes, std::memory_order_relaxed);
  occupancy_hist_[std::min(lanes, kEngineMaxBlockLanes)].fetch_add(
      1, std::memory_order_relaxed);
}

Engine::FlightRole Engine::join_or_lead(const Fingerprint& fp, unsigned want,
                                        std::shared_ptr<Flight>* flight) {
  std::lock_guard<std::mutex> lock(flights_mutex_);
  const auto it = flights_.find(fp);
  if (it != flights_.end()) {
    if (it->second->population >= want) {
      *flight = it->second;
      return FlightRole::kFollower;
    }
    // Deeper than the in-flight solve: don't wait on a result that cannot
    // answer us.  (The deepen-in-place store keeps whichever lands deeper.)
    return FlightRole::kIndependent;
  }
  auto lead = std::make_shared<Flight>();
  lead->population = want;
  lead->future = lead->promise.get_future().share();
  flights_.emplace(fp, lead);
  *flight = std::move(lead);
  return FlightRole::kLeader;
}

void Engine::settle_flight(const Fingerprint& fp,
                           const std::shared_ptr<Flight>& flight,
                           std::shared_ptr<const core::MvaResult> result,
                           std::exception_ptr error) {
  {
    // Retire before publishing.  A result is already in the cache, so a
    // request that probed before the store and finds no flight becomes a
    // leader, and its second probe finds the entry instead of solving.
    std::lock_guard<std::mutex> lock(flights_mutex_);
    const auto it = flights_.find(fp);
    if (it != flights_.end() && it->second == flight) flights_.erase(it);
  }
  if (result != nullptr) {
    flight->promise.set_value(std::move(result));
  } else {
    flight->promise.set_exception(std::move(error));
  }
}

Evaluation Engine::await_flight(const core::ScenarioSpec& spec,
                                const Fingerprint& fp,
                                const std::shared_ptr<Flight>& flight) {
  std::shared_ptr<const core::MvaResult> result;
  try {
    result = flight->future.get();
  } catch (...) {
    // The leader failed.  An identical spec would fail identically, but
    // solving here keeps this request's outcome independent of another
    // request's context (and exercises the normal error path).
    misses_.fetch_add(1, std::memory_order_relaxed);
    return solve_miss(spec, fp);
  }
  coalesced_.fetch_add(1, std::memory_order_relaxed);
  Evaluation ev =
      serve_hit(spec.label, std::move(result), spec.options.max_population);
  ev.coalesced = true;
  return ev;
}

Evaluation Engine::serve_hit(const std::string& label,
                             std::shared_ptr<const core::MvaResult> cached,
                             unsigned want) {
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (cached->levels() == want) {
    return Evaluation{label, std::move(cached), true, false, 0.0};
  }
  // Prefix hit: the result copy runs outside the shard lock.
  prefix_hits_.fetch_add(1, std::memory_order_relaxed);
  auto trimmed = std::make_shared<const core::MvaResult>(cached->prefix(want));
  return Evaluation{label, std::move(trimmed), true, true, 0.0};
}

std::shared_ptr<const core::MvaResult> Engine::lookup(const Fingerprint& fp,
                                                      unsigned want) {
  Shard& shard = shard_for(fp);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(fp);
  if (it == shard.index.end()) return nullptr;
  // A shallower entry stays in place: the deep solve replaces it.
  if (it->second->result->levels() < want) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->result;
}

void Engine::store(const Fingerprint& fp,
                   std::shared_ptr<const core::MvaResult> result) {
  Shard& shard = shard_for(fp);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(fp);
  if (it != shard.index.end()) {
    // Deepen (or refresh) the existing entry; never shrink it — a
    // concurrent deeper solve may have landed first.
    CacheEntry& entry = *it->second;
    if (entry.result->levels() < result->levels()) {
      cache_bytes_.fetch_sub(entry.bytes, std::memory_order_relaxed);
      entry.bytes = result->bytes();
      entry.result = std::move(result);
      cache_bytes_.fetch_add(entry.bytes, std::memory_order_relaxed);
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    const std::size_t bytes = result->bytes();
    shard.lru.push_front(CacheEntry{fp, std::move(result), bytes});
    cache_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    shard.index.emplace(fp, shard.lru.begin());
    if (shard.lru.size() > per_shard_capacity_) {
      cache_bytes_.fetch_sub(shard.lru.back().bytes,
                             std::memory_order_relaxed);
      shard.index.erase(shard.lru.back().key);
      shard.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    } else {
      entries_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

Evaluation Engine::solve_miss(const core::ScenarioSpec& spec,
                              const Fingerprint& fp) {
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<const core::MvaResult> solved;
  try {
    if (spec.options.solver == core::SolverKind::kHierarchical) {
      // Hierarchical solves route each tier's subnetwork extraction back
      // through evaluate(), so every FES throughput profile is its own
      // fingerprinted cache entry — a batch editing one tier re-solves one
      // profile and shares the rest.  The recursion is deadlock-free: the
      // engine holds no shard lock while solving, a one-spec batch runs
      // its one task on the calling thread, and a subnetwork spec (think
      // 0, strict station subset, kMvasd) can never alias the parent's
      // kHierarchical fingerprint, so flight waits form a DAG.
      const core::detail::SubnetworkEvaluator sub =
          [this](const core::ScenarioSpec& inner) {
            Evaluation ev = evaluate(inner);
            (ev.cache_hit ? fes_profile_hits_ : fes_profile_misses_)
                .fetch_add(1, std::memory_order_relaxed);
            return ev.result;
          };
      solved = std::make_shared<const core::MvaResult>(
          core::detail::solve_hierarchical(spec.network, &spec.demands,
                                           spec.options, sub));
    } else {
      solved = std::make_shared<const core::MvaResult>(
          core::solve(spec.network, &spec.demands, spec.options));
    }
  } catch (...) {
    return Evaluation{.label = spec.label, .error = std::current_exception()};
  }
  const auto stop = std::chrono::steady_clock::now();
  const double ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  record_solve_ms(ms);
  store(fp, solved);
  return Evaluation{spec.label, std::move(solved), false, false, ms};
}

Evaluation Engine::evaluate(const core::ScenarioSpec& spec) {
  Evaluation ev = std::move(evaluate_batch({&spec, 1})[0]);
  if (ev.error != nullptr) std::rethrow_exception(ev.error);
  return ev;
}

std::vector<Evaluation> Engine::evaluate_batch(
    std::span<const core::ScenarioSpec> specs) {
  const std::size_t n = specs.size();
  std::vector<Evaluation> out(n);
  if (n == 0) return out;
  queue_depth_.fetch_add(n, std::memory_order_relaxed);
  struct DepthGuard {
    std::atomic<std::size_t>& depth;
    std::size_t count;
    ~DepthGuard() { depth.fetch_sub(count, std::memory_order_relaxed); }
  } depth_guard{queue_depth_, n};
  requests_.fetch_add(n, std::memory_order_relaxed);

  // Dedupe: one representative per fingerprint — the deepest requested
  // population, so every duplicate is a share or a prefix trim of it.
  struct Rep {
    std::size_t spec_index = 0;
    Fingerprint fp;
    Evaluation eval;
    /// Leader reps publish here after solving; follower reps await it.
    std::shared_ptr<Flight> flight;
  };
  std::vector<std::size_t> rep_of(n);
  std::vector<Rep> reps;
  std::unordered_map<Fingerprint, std::size_t, FingerprintHash> rep_index;
  for (std::size_t i = 0; i < n; ++i) {
    MTPERF_REQUIRE(specs[i].options.max_population >= 1,
                   "population must be at least 1");
    const Fingerprint fp = fingerprint(specs[i]);
    const auto [it, inserted] = rep_index.try_emplace(fp, reps.size());
    if (inserted) {
      reps.push_back(Rep{i, fp, {}, nullptr});
    } else if (specs[i].options.max_population >
               specs[reps[it->second].spec_index].options.max_population) {
      reps[it->second].spec_index = i;
    }
    rep_of[i] = it->second;
  }

  // Probe the cache once per representative.  Misses additionally consult
  // the in-flight table: a structure another thread is already solving (at
  // sufficient depth) is joined as a follower instead of re-solved, and
  // every remaining miss registers as leader so concurrent callers can
  // join *us*.
  std::vector<std::size_t> miss_reps;
  std::vector<std::size_t> follower_reps;
  for (std::size_t r = 0; r < reps.size(); ++r) {
    Rep& rep = reps[r];
    const core::ScenarioSpec& spec = specs[rep.spec_index];
    const unsigned want = spec.options.max_population;
    if (auto cached = lookup(rep.fp, want)) {
      rep.eval = serve_hit(spec.label, std::move(cached), want);
      continue;
    }
    switch (join_or_lead(rep.fp, want, &rep.flight)) {
      case FlightRole::kFollower:
        follower_reps.push_back(r);
        break;
      case FlightRole::kLeader:
        // A previous leader may have stored and retired since the probe.
        if (auto cached = lookup(rep.fp, want)) {
          settle_flight(rep.fp, rep.flight, cached, nullptr);
          rep.flight = nullptr;
          rep.eval = serve_hit(spec.label, std::move(cached), want);
          break;
        }
        [[fallthrough]];
      case FlightRole::kIndependent:
        misses_.fetch_add(1, std::memory_order_relaxed);
        miss_reps.push_back(r);
        break;
    }
  }

  // Group the misses by structure and solve each group in lockstep; specs
  // the batched kernels don't cover fall back to scalar solve_miss calls.
  // Every task writes disjoint reps, so no synchronization is needed.
  std::vector<const core::ScenarioSpec*> miss_specs;
  miss_specs.reserve(miss_reps.size());
  for (const std::size_t r : miss_reps) {
    miss_specs.push_back(&specs[reps[r].spec_index]);
  }
  const core::detail::BatchPlan plan = core::detail::plan_batch(miss_specs);

  const auto run_block = [&](const std::vector<std::size_t>& block) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<core::MvaResult> results;
    try {
      results = core::detail::solve_planned_block(miss_specs, block);
    } catch (...) {
      // A lane's bits do not depend on its block, so solving each lane
      // alone serves the good lanes the same bits and leaves the error to
      // the failing lanes only.
      for (const std::size_t b : block) {
        Rep& rep = reps[miss_reps[b]];
        rep.eval = solve_miss(specs[rep.spec_index], rep.fp);
      }
      return;
    }
    const auto stop = std::chrono::steady_clock::now();
    record_batch_block(block.size());
    const double ms_per_lane =
        std::chrono::duration<double, std::milli>(stop - start).count() /
        static_cast<double>(block.size());
    for (std::size_t l = 0; l < block.size(); ++l) {
      Rep& rep = reps[miss_reps[block[l]]];
      record_solve_ms(ms_per_lane);
      auto solved =
          std::make_shared<const core::MvaResult>(std::move(results[l]));
      store(rep.fp, solved);
      rep.eval = Evaluation{specs[rep.spec_index].label, std::move(solved),
                            false, false, ms_per_lane};
    }
  };
  const auto run_task = [&](std::size_t t) {
    if (t < plan.blocks.size()) {
      run_block(plan.blocks[t]);
      return;
    }
    Rep& rep = reps[miss_reps[plan.scalars[t - plan.blocks.size()]]];
    const core::ScenarioSpec& spec = specs[rep.spec_index];
    // Hierarchical specs are scalar by design (their reuse is the FES
    // profile cache, not the lockstep kernel) — counting them as
    // fallbacks would poison the lanes-vs-scalar diagnostic.
    if (spec.options.solver != core::SolverKind::kHierarchical) {
      batch_scalar_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
    rep.eval = solve_miss(spec, rep.fp);
  };
  // Solve, then settle every registered flight exactly once: a solved rep
  // publishes its result, a failed rep its own error (waiters then fall
  // back to their own solves).  Publishing our own flights *before*
  // awaiting foreign ones below makes cross-batch waits deadlock-free —
  // two batches leading and following each other's structures both
  // publish first.  Tasks report solve failures in their reps; anything
  // else a task throws abandons the batch, and its flights get that error.
  const auto settle_flights = [&](const std::exception_ptr& abandoned) {
    for (const std::size_t r : miss_reps) {
      Rep& rep = reps[r];
      if (rep.flight == nullptr) continue;
      settle_flight(rep.fp, rep.flight, rep.eval.result,
                    rep.eval.error != nullptr ? rep.eval.error : abandoned);
      rep.flight = nullptr;
    }
  };
  const std::size_t tasks = plan.blocks.size() + plan.scalars.size();
  try {
    if (tasks > 1 && pool_->size() > 1) {
      parallel_for(*pool_, tasks, run_task);
    } else {
      for (std::size_t t = 0; t < tasks; ++t) run_task(t);
    }
  } catch (...) {
    settle_flights(std::current_exception());
    throw;
  }
  settle_flights(nullptr);

  // Now resolve the reps that joined another caller's in-flight solve.
  for (const std::size_t r : follower_reps) {
    Rep& rep = reps[r];
    rep.eval = await_flight(specs[rep.spec_index], rep.fp, rep.flight);
  }

  // Fill every slot from its representative: the rep's own slot shares the
  // Evaluation; duplicates share or trim the rep's result and count as
  // cache hits (the whole point of dedup — one solve, many answers), or
  // carry the rep's error.
  for (std::size_t i = 0; i < n; ++i) {
    const Rep& rep = reps[rep_of[i]];
    if (i == rep.spec_index) {
      out[i] = rep.eval;
    } else if (rep.eval.error != nullptr) {
      out[i] = Evaluation{.label = specs[i].label, .error = rep.eval.error};
    } else {
      out[i] = serve_hit(specs[i].label, rep.eval.result,
                         specs[i].options.max_population);
    }
  }
  return out;
}

EngineMetrics Engine::metrics() const {
  EngineMetrics m;
  // The counter snapshot takes no shard lock: entries_ mirrors the LRU
  // sizes, so a serving hot path can poll metrics without contending with
  // lookups.
  m.requests = requests_.load(std::memory_order_relaxed);
  m.hits = hits_.load(std::memory_order_relaxed);
  m.prefix_hits = prefix_hits_.load(std::memory_order_relaxed);
  m.coalesced = coalesced_.load(std::memory_order_relaxed);
  m.misses = misses_.load(std::memory_order_relaxed);
  m.evictions = evictions_.load(std::memory_order_relaxed);
  m.entries = entries_.load(std::memory_order_relaxed);
  m.cache_bytes = cache_bytes_.load(std::memory_order_relaxed);
  m.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  m.batch_blocks = batch_blocks_.load(std::memory_order_relaxed);
  m.batch_lanes = batch_lanes_.load(std::memory_order_relaxed);
  m.batch_scalar_fallbacks =
      batch_scalar_fallbacks_.load(std::memory_order_relaxed);
  m.fes_profile_hits = fes_profile_hits_.load(std::memory_order_relaxed);
  m.fes_profile_misses = fes_profile_misses_.load(std::memory_order_relaxed);
  for (std::size_t l = 0; l < m.batch_occupancy.size(); ++l) {
    m.batch_occupancy[l] = occupancy_hist_[l].load(std::memory_order_relaxed);
  }
  if (m.batch_blocks > 0) {
    m.batch_occupancy_mean = static_cast<double>(m.batch_lanes) /
                             static_cast<double>(m.batch_blocks);
  }
  if (m.requests > 0) {
    m.hit_rate = static_cast<double>(m.hits) / static_cast<double>(m.requests);
  }
  MomentAccumulator latency;
  for (auto& stripe : latency_stripes_) {
    MomentAccumulator copy;
    {
      std::lock_guard<std::mutex> lock(stripe.mutex);
      copy = stripe.acc;
    }
    latency.merge(std::move(copy));
  }
  if (latency.count() > 0) {
    const auto ps = latency.percentiles({50.0, 90.0, 99.0});
    m.solve_ms_p50 = ps[0];
    m.solve_ms_p90 = ps[1];
    m.solve_ms_p99 = ps[2];
    m.solve_ms_max = latency.moments().max();
  }
  return m;
}

void Engine::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    entries_.fetch_sub(shard->lru.size(), std::memory_order_relaxed);
    for (const CacheEntry& entry : shard->lru) {
      cache_bytes_.fetch_sub(entry.bytes, std::memory_order_relaxed);
    }
    shard->lru.clear();
    shard->index.clear();
  }
}

}  // namespace mtperf::service
