#include "sim/closed_network_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/event_engine.hpp"

namespace mtperf::sim {

namespace {

// The hot path runs entirely on the typed event engine: every event is a
// POD record dispatched by the switch in Run::dispatch below, and all
// station/customer state lives in flat arrays indexed by the event's
// payload — no virtual station calls, no std::function, and no per-event
// allocation (waiting queues are rings sized to the customer population,
// which bounds every queue in a closed network).

/// One simulated resource.  Both disciplines share the accounting fields;
/// FCFS uses busy/ring, processor sharing uses jobs/last_progress.
struct StationState {
  Discipline discipline = Discipline::kFcfs;
  unsigned servers = 1;

  // FCFS: busy servers plus a fixed-capacity ring of waiting jobs.
  unsigned busy = 0;
  std::vector<std::pair<double, std::uint32_t>> ring;  ///< {service, customer}
  std::size_t ring_head = 0;
  std::size_t ring_count = 0;

  // Processor sharing: jobs in service with remaining work, progressed
  // lazily; `generation` invalidates superseded completion events.
  std::vector<std::pair<double, std::uint32_t>> jobs;  ///< {remaining, customer}
  double last_progress = 0.0;
  double generation = 0.0;

  // Utilization / queue-length integrals since the last stats reset.
  double stats_start = 0.0;
  double last_accrual = 0.0;
  double busy_integral = 0.0;
  double jobs_integral = 0.0;
  std::uint64_t completions = 0;

  double rate() const noexcept {
    if (jobs.empty()) return 0.0;
    return std::min(1.0, static_cast<double>(servers) /
                             static_cast<double>(jobs.size()));
  }

  double busy_now() const noexcept {
    if (discipline == Discipline::kFcfs) return static_cast<double>(busy);
    return static_cast<double>(std::min<std::size_t>(jobs.size(), servers));
  }

  double jobs_now() const noexcept {
    if (discipline == Discipline::kFcfs) {
      return static_cast<double>(busy + ring_count);
    }
    return static_cast<double>(jobs.size());
  }

  void accrue(double now) noexcept {
    const double dt = now - last_accrual;
    if (dt > 0.0) {
      busy_integral += dt * busy_now();
      jobs_integral += dt * jobs_now();
      last_accrual = now;
    }
  }

  void reset_stats(double now) noexcept {
    accrue(now);
    stats_start = now;
    last_accrual = now;
    busy_integral = 0.0;
    jobs_integral = 0.0;
    completions = 0;
  }

  double utilization_at(double now) const noexcept {
    const double elapsed = now - stats_start;
    if (elapsed <= 0.0) return 0.0;
    return (busy_integral + (now - last_accrual) * busy_now()) /
           (elapsed * static_cast<double>(servers));
  }

  double mean_jobs_at(double now) const noexcept {
    const double elapsed = now - stats_start;
    if (elapsed <= 0.0) return 0.0;
    return (jobs_integral + (now - last_accrual) * jobs_now()) / elapsed;
  }

  /// Apply elapsed PS processing since the last progress point.
  void progress(double now) noexcept {
    const double dt = now - last_progress;
    if (dt > 0.0 && !jobs.empty()) {
      const double work = dt * rate();
      for (auto& job : jobs) job.first = std::max(0.0, job.first - work);
    }
    last_progress = now;
  }

  void ring_push(double service, std::uint32_t customer) noexcept {
    ring[(ring_head + ring_count) % ring.size()] = {service, customer};
    ++ring_count;
  }

  std::pair<double, std::uint32_t> ring_pop() noexcept {
    const auto job = ring[ring_head];
    ring_head = (ring_head + 1) % ring.size();
    --ring_count;
    return job;
  }
};

/// All mutable run state; dispatch() is the event switch.
struct Run {
  EventEngine eng;
  const std::vector<SimVisit>* workflow = nullptr;
  std::vector<StationState> stations;
  std::vector<Rng> customer_rng;
  std::vector<std::uint32_t> current_visit;  ///< visit the customer is in
  std::vector<double> txn_start;
  ServiceDistribution think_dist{};
  double think_mean = 0.0;

  bool measuring = false;
  std::uint64_t transactions = 0;
  RunningStats response_stats;
  BatchMeans response_batches{20};
  std::vector<double> response_samples;  // for percentile reporting

  // Timeline (bucketed from t = 0, warm-up included).
  double bucket_width = 0.0;
  std::vector<std::uint64_t> bucket_count;
  std::vector<double> bucket_rt_sum;

  std::vector<std::uint32_t> ps_done;  ///< scratch: customers finished in a fire

  void dispatch(const Event& ev) {
    switch (ev.op) {
      case EventOp::kThinkDone:
        begin_transaction(ev.a);
        break;
      case EventOp::kDeparture:
        fcfs_departure(ev.a, ev.b);
        break;
      case EventOp::kPsFire:
        ps_fire(ev.a, ev.payload);
        break;
      default:
        break;  // kTick is never scheduled by this runner
    }
  }

  void begin_transaction(std::uint32_t customer) {
    txn_start[customer] = eng.now();
    begin_visit(customer, 0);
  }

  /// Enter workflow[visit] or, past the end, complete the transaction and
  /// go back to thinking.
  void begin_visit(std::uint32_t customer, std::uint32_t visit) {
    if (visit == workflow->size()) {
      record_completion(txn_start[customer]);
      const double think =
          think_dist.draw(customer_rng[customer], think_mean);
      eng.schedule(think, EventOp::kThinkDone, customer);
      return;
    }
    current_visit[customer] = visit;
    const SimVisit& v = (*workflow)[visit];
    const double service =
        v.distribution.draw(customer_rng[customer], v.mean_service_time);
    const auto s = static_cast<std::uint32_t>(v.station);
    StationState& st = stations[s];
    st.accrue(eng.now());
    if (st.discipline == Discipline::kFcfs) {
      if (st.busy < st.servers) {
        ++st.busy;
        eng.schedule(service, EventOp::kDeparture, s, customer);
      } else {
        st.ring_push(service, customer);
      }
    } else {
      st.progress(eng.now());
      st.jobs.emplace_back(service, customer);
      ps_schedule_next(s);
    }
  }

  void fcfs_departure(std::uint32_t s, std::uint32_t customer) {
    StationState& st = stations[s];
    st.accrue(eng.now());
    --st.busy;
    ++st.completions;
    if (st.ring_count > 0) {
      const auto [service, next] = st.ring_pop();
      ++st.busy;
      eng.schedule(service, EventOp::kDeparture, s, next);
    }
    begin_visit(customer, current_visit[customer] + 1);
  }

  /// Schedule (or re-schedule) a PS station's next completion; earlier
  /// scheduled fires are superseded via the generation token.
  void ps_schedule_next(std::uint32_t s) {
    StationState& st = stations[s];
    st.generation += 1.0;
    if (st.jobs.empty()) return;
    double soonest = std::numeric_limits<double>::infinity();
    for (const auto& job : st.jobs) soonest = std::min(soonest, job.first);
    eng.schedule(soonest / st.rate(), EventOp::kPsFire, s, 0, st.generation);
  }

  void ps_fire(std::uint32_t s, double generation) {
    StationState& st = stations[s];
    if (generation != st.generation) return;  // superseded by a later arrival
    st.accrue(eng.now());
    st.progress(eng.now());
    // Complete every job that has (numerically) finished.
    ps_done.clear();
    for (std::size_t i = 0; i < st.jobs.size();) {
      if (st.jobs[i].first <= 1e-12) {
        ps_done.push_back(st.jobs[i].second);
        st.jobs[i] = st.jobs.back();
        st.jobs.pop_back();
      } else {
        ++i;
      }
    }
    st.completions += ps_done.size();
    ps_schedule_next(s);
    for (const std::uint32_t customer : ps_done) {
      begin_visit(customer, current_visit[customer] + 1);
    }
  }

  void record_completion(double start_time) {
    const double rt = eng.now() - start_time;
    if (measuring) {
      ++transactions;
      response_stats.add(rt);
      response_batches.add(rt);
      response_samples.push_back(rt);
    }
    if (bucket_width > 0.0) {
      const auto b = static_cast<std::size_t>(eng.now() / bucket_width);
      if (b < bucket_count.size()) {
        ++bucket_count[b];
        bucket_rt_sum[b] += rt;
      }
    }
  }
};

}  // namespace

SimResult simulate_closed_network(const std::vector<SimStation>& stations,
                                  const std::vector<SimVisit>& workflow,
                                  const SimOptions& options,
                                  std::vector<double>* sorted_samples_out,
                                  RunningStats* response_moments_out) {
  MTPERF_REQUIRE(!stations.empty(), "simulation needs at least one station");
  MTPERF_REQUIRE(!workflow.empty(), "simulation needs a non-empty workflow");
  MTPERF_REQUIRE(options.customers >= 1, "need at least one customer");
  MTPERF_REQUIRE(options.warmup_time >= 0.0 && options.measure_time > 0.0,
                 "invalid warmup/measure windows");
  MTPERF_REQUIRE(options.think_time_mean >= 0.0,
                 "think time must be non-negative");
  for (const auto& v : workflow) {
    MTPERF_REQUIRE(v.station < stations.size(), "workflow visit out of range");
    MTPERF_REQUIRE(v.mean_service_time >= 0.0,
                   "service times must be non-negative");
  }

  Run run;
  run.workflow = &workflow;
  run.think_mean = options.think_time_mean;
  if (options.think_distribution.has_value()) {
    run.think_dist = *options.think_distribution;
  } else if (options.exponential_think) {
    run.think_dist = ServiceDistribution{DistributionKind::kExponential, 1.0};
  } else {
    run.think_dist = ServiceDistribution{DistributionKind::kDeterministic, 0.0};
  }
  run.stations.resize(stations.size());
  for (std::size_t k = 0; k < stations.size(); ++k) {
    StationState& st = run.stations[k];
    MTPERF_REQUIRE(stations[k].servers >= 1,
                   "station needs at least one server");
    st.discipline = stations[k].discipline;
    st.servers = stations[k].servers;
    if (st.discipline == Discipline::kFcfs) {
      // In a closed network at most N jobs can wait, so a ring of N slots
      // makes enqueue/dequeue allocation-free for the whole run.
      st.ring.resize(options.customers);
    } else {
      st.jobs.reserve(options.customers);
    }
  }
  // Each customer has at most one think completion pending.  Service
  // events are bounded by the jobs in service, at most min(sum of servers,
  // N), plus a few superseded PS fires per station.
  std::size_t total_servers = 0;
  for (const auto& st : stations) total_servers += st.servers;
  run.eng.reserve(options.customers,
                  std::min<std::size_t>(total_servers, options.customers) +
                      4 * stations.size() + 16);
  run.ps_done.reserve(options.customers);
  run.current_visit.assign(options.customers, 0);
  run.txn_start.assign(options.customers, 0.0);

  // Pre-size the percentile sample buffer from the asymptotic-throughput
  // bound X <= N / (Z + sum S): the measure window can complete at most
  // measure_time * X transactions, so this reserve makes sample recording
  // push_back-reallocation-free for the whole run.
  double cycle_floor = options.think_time_mean;
  for (const auto& v : workflow) cycle_floor += v.mean_service_time;
  if (cycle_floor > 0.0) {
    const double expected = options.measure_time *
                            static_cast<double>(options.customers) /
                            cycle_floor;
    constexpr double kMaxReserve = 1 << 26;  // cap the speculative alloc
    run.response_samples.reserve(
        static_cast<std::size_t>(std::min(expected + 1.0, kMaxReserve)));
  }

  Rng master(options.seed);
  run.customer_rng.reserve(options.customers);
  for (unsigned c = 0; c < options.customers; ++c) {
    run.customer_rng.push_back(master.split());
  }

  const double horizon = options.warmup_time + options.measure_time;
  if (options.timeline_bucket > 0.0) {
    run.bucket_width = options.timeline_bucket;
    const auto buckets =
        static_cast<std::size_t>(std::ceil(horizon / run.bucket_width));
    run.bucket_count.assign(buckets, 0);
    run.bucket_rt_sum.assign(buckets, 0.0);
  }

  // Launch customers: ramp-up stagger plus optional random initial sleep,
  // then the regular think-visit cycle.
  for (unsigned c = 0; c < options.customers; ++c) {
    double start = static_cast<double>(c) * options.ramp_up_interval;
    if (options.initial_sleep_max > 0.0) {
      start += run.customer_rng[c].uniform(0.0, options.initial_sleep_max);
    }
    run.eng.schedule(start, EventOp::kThinkDone, c);
  }

  const auto dispatch = [&run](const Event& ev) { run.dispatch(ev); };
  run.eng.run_until(options.warmup_time, dispatch);
  for (auto& st : run.stations) st.reset_stats(run.eng.now());
  run.measuring = true;
  run.eng.run_until(horizon, dispatch);

  SimResult result;
  result.transactions = run.transactions;
  result.throughput =
      static_cast<double>(run.transactions) / options.measure_time;
  result.response_time = run.response_stats.mean();
  result.cycle_time = result.response_time + options.think_time_mean;
  if (run.response_batches.complete_batches() >= 2) {
    result.response_time_ci = run.response_batches.interval(0.95);
  } else {
    result.response_time_ci = {result.response_time, 0.0};
  }
  if (!run.response_samples.empty()) {
    // One in-place sort serves all four levels; the samples are not needed
    // in arrival order past this point.
    const std::vector<double> q =
        percentiles(run.response_samples, {50, 90, 95, 99});
    result.response_percentiles.p50 = q[0];
    result.response_percentiles.p90 = q[1];
    result.response_percentiles.p95 = q[2];
    result.response_percentiles.p99 = q[3];
  }
  for (std::size_t k = 0; k < stations.size(); ++k) {
    const StationState& st = run.stations[k];
    result.stations.push_back(StationStats{
        stations[k].name, st.servers, st.utilization_at(run.eng.now()),
        st.mean_jobs_at(run.eng.now()), st.completions});
  }
  if (run.bucket_width > 0.0) {
    for (std::size_t b = 0; b < run.bucket_count.size(); ++b) {
      TimelineBucket bucket;
      bucket.start_time = static_cast<double>(b) * run.bucket_width;
      bucket.throughput =
          static_cast<double>(run.bucket_count[b]) / run.bucket_width;
      bucket.response_time =
          run.bucket_count[b] > 0
              ? run.bucket_rt_sum[b] / static_cast<double>(run.bucket_count[b])
              : 0.0;
      result.timeline.push_back(bucket);
    }
  }
  if (response_moments_out != nullptr) {
    *response_moments_out = run.response_stats;
  }
  if (sorted_samples_out != nullptr) {
    // Sorted by the percentiles() call above (or empty).
    *sorted_samples_out = std::move(run.response_samples);
  }
  return result;
}

SimResult simulate_closed_network(const std::vector<SimStation>& stations,
                                  const std::vector<SimVisit>& workflow,
                                  const SimOptions& options) {
  return simulate_closed_network(stations, workflow, options, nullptr,
                                 nullptr);
}

}  // namespace mtperf::sim
