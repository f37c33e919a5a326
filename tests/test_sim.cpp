// Unit and statistical tests for mtperf::sim — the discrete-event
// simulator that substitutes for the paper's physical testbed.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include <algorithm>
#include <map>
#include <random>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "core/network.hpp"
#include "core/solve.hpp"
#include "sim/closed_network_sim.hpp"
#include "sim/event_engine.hpp"

namespace mtperf::sim {
namespace {

// ------------------------------------------------------------- EventEngine

TEST(EventEngine, DispatchesInTimeOrderWithPayload) {
  EventEngine eng;
  std::vector<std::pair<EventOp, std::uint32_t>> seen;
  eng.schedule(3.0, EventOp::kDeparture, 30);
  eng.schedule(1.0, EventOp::kThinkDone, 10);
  eng.schedule(2.0, EventOp::kPsFire, 20);
  eng.run_until(10.0, [&](const Event& ev) { seen.push_back({ev.op, ev.a}); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair{EventOp::kThinkDone, 10u}));
  EXPECT_EQ(seen[1], (std::pair{EventOp::kPsFire, 20u}));
  EXPECT_EQ(seen[2], (std::pair{EventOp::kDeparture, 30u}));
  EXPECT_DOUBLE_EQ(eng.now(), 10.0);
}

TEST(EventEngine, SimultaneousEventsDispatchFifo) {
  EventEngine eng;
  std::vector<std::uint32_t> order;
  for (std::uint32_t i = 0; i < 8; ++i) eng.schedule(1.0, EventOp::kTick, i);
  eng.run_until(1.0, [&](const Event& ev) { order.push_back(ev.a); });
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventEngine, StepDispatchesOneEvent) {
  EventEngine eng;
  int fired = 0;
  eng.schedule(1.0, EventOp::kTick);
  eng.schedule(2.0, EventOp::kTick);
  auto count = [&](const Event&) { ++fired; };
  EXPECT_TRUE(eng.step(count));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(eng.now(), 1.0);
  EXPECT_TRUE(eng.step(count));
  EXPECT_FALSE(eng.step(count));
  EXPECT_EQ(eng.pending_events(), 0u);
}

TEST(EventEngine, HandlersCanRescheduleDuringDispatch) {
  EventEngine eng;
  int chain = 0;
  eng.schedule(1.0, EventOp::kTick);
  eng.run_until(100.0, [&](const Event&) {
    if (++chain < 5) eng.schedule(1.0, EventOp::kTick);
  });
  EXPECT_EQ(chain, 5);
  EXPECT_DOUBLE_EQ(eng.now(), 100.0);
}

TEST(EventEngine, RejectsPastScheduling) {
  EventEngine eng;
  eng.run_until(5.0, [](const Event&) {});
  EXPECT_THROW(eng.schedule(-1.0, EventOp::kTick), invalid_argument_error);
  EXPECT_THROW(eng.run_until(4.0, [](const Event&) {}),
               invalid_argument_error);
}

TEST(EventEngine, KeyEdgeCasesKeepScheduleOrder) {
  // The heaps order events by an integer key over the time's bit pattern.
  // Three inputs where that pattern needs care: a -0.0 time (its pattern
  // sorts after every positive one), +inf, and equal times split across
  // the think and the service heap.
  std::vector<std::uint32_t> order;
  const auto record = [&](const Event& ev) { order.push_back(ev.a); };

  EventEngine zero;
  zero.run_until(-0.0, record);
  zero.schedule(-0.0, EventOp::kTick, 0);
  zero.schedule(0.0, EventOp::kTick, 1);
  zero.schedule(-0.0, EventOp::kTick, 2);
  zero.run_until(0.0, record);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2}));

  order.clear();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EventEngine inf;
  inf.schedule(kInf, EventOp::kTick, 0);
  inf.schedule(kInf, EventOp::kThinkDone, 1);
  for (std::uint32_t i = 2; i < 6; ++i) {
    inf.schedule(static_cast<double>(i),
                 i % 2 ? EventOp::kThinkDone : EventOp::kTick, i);
  }
  inf.run_until(std::numeric_limits<double>::max(), record);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{2, 3, 4, 5}));
  EXPECT_EQ(inf.pending_events(), 2u);

  order.clear();
  EventEngine tie;
  tie.schedule(2.0, EventOp::kThinkDone, 0);
  tie.schedule(2.0, EventOp::kDeparture, 1);
  tie.schedule(3.0, EventOp::kDeparture, 2);
  tie.schedule(3.0, EventOp::kThinkDone, 3);
  tie.run_until(3.0, record);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(EventEngine, HeapStressMatchesSortedReference) {
  // A few thousand events of random op and coarse time, so simultaneous
  // events land in both the think and the service heap; handlers that
  // reschedule 0-2 events per dispatch (the pop-then-push hold pattern);
  // step() calls interleaved with run_until boundaries.  The reference is
  // a multimap keyed by time: it keeps equal times in insertion order, so
  // its front is the stable-sorted next event.  Every dispatch must match
  // it, and so must the pending count at every boundary.
  EventEngine eng;
  std::mt19937_64 gen(12345);
  std::uniform_int_distribution<int> coarse(0, 99);
  std::uniform_int_distribution<int> any_op(0, 3);
  std::uniform_int_distribution<int> fanout(0, 2);
  std::uniform_int_distribution<int> steps(0, 3);
  std::multimap<double, std::pair<EventOp, std::uint32_t>> reference;
  std::uint32_t next_id = 0;
  const auto add = [&](double delay) {
    const auto op = static_cast<EventOp>(any_op(gen));
    reference.emplace(eng.now() + delay, std::pair{op, next_id});
    eng.schedule(delay, op, next_id++);
  };
  for (int i = 0; i < 5000; ++i) add(coarse(gen) * 0.25);

  using Dispatched = std::tuple<double, EventOp, std::uint32_t>;
  std::vector<Dispatched> seen;
  std::vector<Dispatched> expected;
  const auto dispatch = [&](const Event& ev) {
    ASSERT_FALSE(reference.empty());
    const auto front = reference.begin();
    expected.emplace_back(front->first, front->second.first,
                          front->second.second);
    reference.erase(front);
    seen.emplace_back(ev.time, ev.op, ev.a);
    if (next_id >= 20000) return;
    for (int k = fanout(gen); k > 0; --k) add(coarse(gen) * 0.25);
  };
  std::size_t boundaries = 0;
  while (!reference.empty()) {
    for (int k = steps(gen); k > 0; --k) eng.step(dispatch);
    ASSERT_EQ(eng.pending_events(), reference.size());
    // Boundaries on a 1/256 grid: some fall exactly on event times.
    eng.run_until(eng.now() + coarse(gen) * (0.25 / 64), dispatch);
    ASSERT_EQ(eng.pending_events(), reference.size());
    ++boundaries;
  }
  EXPECT_GT(boundaries, 100u);
  EXPECT_EQ(seen.size(), next_id);
  EXPECT_EQ(seen, expected);
  EXPECT_FALSE(eng.step(dispatch));
}

TEST(EventEngine, RunUntilStopsAtBoundary) {
  EventEngine eng;
  int fired = 0;
  const auto count = [&](const Event&) { ++fired; };
  eng.schedule(1.0, EventOp::kTick);
  eng.schedule(2.5, EventOp::kTick);
  eng.run_until(2.0, count);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.pending_events(), 1u);
  eng.run_until(3.0, count);
  EXPECT_EQ(fired, 2);
}

// ------------------------------------------------- stations (closed form)
//
// Station behaviour observed through simulate_closed_network.  Service and
// think times are deterministic, so each run is one fixed timeline and
// every statistic below is a closed form of it.  Measure windows start and
// end between events.

SimOptions deterministic_options(unsigned customers, double think,
                                 double warmup, double measure) {
  SimOptions o;
  o.customers = customers;
  o.think_time_mean = think;
  o.exponential_think = false;
  o.warmup_time = warmup;
  o.measure_time = measure;
  return o;
}

SimVisit fixed(std::size_t station, double service) {
  return {station, service, {DistributionKind::kDeterministic, 0.0}};
}

constexpr Discipline kPs = Discipline::kProcessorSharing;

TEST(Station, ServesImmediatelyWhenIdle) {
  // Two customers on two servers never queue: R = S, and each server is
  // busy 1 s of every 2 s cycle.
  const auto r = simulate_closed_network(
      {{"cpu", 2}}, {fixed(0, 1.0)}, deterministic_options(2, 1.0, 0.5, 10.0));
  EXPECT_EQ(r.transactions, 10u);  // each customer finishes at t = 1, 3, .. 9
  EXPECT_DOUBLE_EQ(r.response_time, 1.0);
  EXPECT_DOUBLE_EQ(r.response_percentiles.p99, 1.0);
  EXPECT_EQ(r.stations[0].completions, 10u);
  EXPECT_NEAR(r.stations[0].utilization, 0.5, 1e-12);
}

TEST(Station, QueuesBeyondServerCount) {
  // Three customers, one server, 2 s service, no think time: strict FCFS
  // rotation puts two services ahead of each one, so X = 0.5/s, R = 6 s,
  // and the server never idles.  The window starts after the first
  // rotation (responses 2, 4, 6 s at t = 2, 4, 6).
  const auto r = simulate_closed_network(
      {{"disk", 1}}, {fixed(0, 2.0)}, deterministic_options(3, 0.0, 7.0, 60.0));
  EXPECT_EQ(r.transactions, 30u);
  EXPECT_DOUBLE_EQ(r.throughput, 0.5);
  EXPECT_DOUBLE_EQ(r.response_time, 6.0);
  EXPECT_DOUBLE_EQ(r.response_percentiles.p50, 6.0);
  EXPECT_DOUBLE_EQ(r.stations[0].utilization, 1.0);
  EXPECT_DOUBLE_EQ(r.stations[0].mean_jobs, 3.0);
}

TEST(Station, UtilizationOfDeterministicLoad) {
  // One customer visits a two-server station for 4 s, then 2 s, then
  // thinks 2 s: busy-server-seconds 6 of every 8 s cycle, U = 6/16.
  const auto r = simulate_closed_network(
      {{"cpu", 2}}, {fixed(0, 4.0), fixed(0, 2.0)},
      deterministic_options(1, 2.0, 0.5, 80.0));
  EXPECT_NEAR(r.stations[0].utilization, 6.0 / 16.0, 1e-12);
  EXPECT_EQ(r.stations[0].completions, 20u);
  EXPECT_DOUBLE_EQ(r.response_time, 6.0);
}

TEST(Station, MeanJobsTimeAverage) {
  // One customer: 2 s of service, 2 s of thinking.  The station holds one
  // job half the time, as Little's law N = X R = 0.25/s * 2 s says.
  const auto r = simulate_closed_network(
      {{"cpu", 1}}, {fixed(0, 2.0)}, deterministic_options(1, 2.0, 0.5, 40.0));
  EXPECT_NEAR(r.stations[0].mean_jobs, 0.5, 1e-12);
  EXPECT_NEAR(r.throughput * r.response_time, 0.5, 1e-12);
}

TEST(Station, ResetStatsDropsHistoryKeepsJobs) {
  // Same cycle, but the warm-up ends mid-service at t = 1.  The window
  // (1, 9] counts only its own busy time, [1,2] + [4,6] + [8,9] = 4 s of 8
  // (keeping [0,1] would give 5/9), and the job in flight at the reset
  // still completes with its full 2 s response time.
  const auto r = simulate_closed_network(
      {{"cpu", 1}}, {fixed(0, 2.0)}, deterministic_options(1, 2.0, 1.0, 8.0));
  EXPECT_NEAR(r.stations[0].utilization, 0.5, 1e-12);
  EXPECT_EQ(r.stations[0].completions, 2u);  // at t = 2 and 6
  EXPECT_EQ(r.transactions, 2u);
  EXPECT_DOUBLE_EQ(r.response_time, 2.0);
}

TEST(Station, ZeroServiceTimeCompletes) {
  // A zero-length visit completes at its arrival instant.
  const auto r = simulate_closed_network(
      {{"nic", 1}}, {fixed(0, 0.0)}, deterministic_options(1, 1.0, 0.5, 10.0));
  EXPECT_EQ(r.transactions, 10u);
  EXPECT_DOUBLE_EQ(r.response_time, 0.0);
  EXPECT_DOUBLE_EQ(r.stations[0].utilization, 0.0);
}

TEST(Station, RejectsInvalidConfig) {
  const SimOptions o = deterministic_options(1, 1.0, 0.0, 10.0);
  EXPECT_THROW(simulate_closed_network({{"x", 0}}, {fixed(0, 1.0)}, o),
               invalid_argument_error);
  EXPECT_THROW(simulate_closed_network({{"x", 1}}, {fixed(0, -1.0)}, o),
               invalid_argument_error);
}

TEST(ProcessorSharing, SingleJobRunsAtFullRate) {
  // Alone at the station a job gets the whole server: R = S.
  const auto r = simulate_closed_network(
      {{"cpu", 1, kPs}}, {fixed(0, 2.0)},
      deterministic_options(1, 1.0, 0.5, 30.0));
  EXPECT_EQ(r.transactions, 10u);  // at t = 2, 5, .. 29
  EXPECT_NEAR(r.response_time, 2.0, 1e-9);
  EXPECT_EQ(r.stations[0].completions, 10u);
}

TEST(ProcessorSharing, TwoJobsShareCapacity) {
  // Two customers arrive together every 3 s with 1 s jobs: each runs at
  // rate 1/2 and both leave 2 s later.  (FCFS would let one leave at 1 s
  // and, after one cycle, stop the two from overlapping at all.)
  const auto r = simulate_closed_network(
      {{"cpu", 1, kPs}}, {fixed(0, 1.0)},
      deterministic_options(2, 1.0, 1.0, 12.0));
  EXPECT_EQ(r.transactions, 8u);  // both at t = 2, 5, 8, 11
  EXPECT_NEAR(r.response_time, 2.0, 1e-9);
  EXPECT_NEAR(r.response_percentiles.p50, 2.0, 1e-9);
}

TEST(ProcessorSharing, ShortJobOvertakesLongJob) {
  // Customer 0 runs a 1 s job, then a 4 s job from t = 1.  Customer 1
  // arrives at t = 2 with its own 1 s job.  Sharing the server, the short
  // job leaves at t = 4 while the long one (3 s left at t = 2) is still in
  // service, so two jobs are done by t = 4.5; FCFS holds the short job
  // behind the long one until t = 5.
  const std::vector<SimVisit> flow{fixed(0, 1.0), fixed(0, 4.0)};
  SimOptions o = deterministic_options(2, 100.0, 0.5, 4.0);
  o.ramp_up_interval = 2.0;
  const auto ps = simulate_closed_network({{"cpu", 1, kPs}}, flow, o);
  const auto fcfs = simulate_closed_network({{"cpu", 1}}, flow, o);
  EXPECT_EQ(ps.stations[0].completions, 2u);
  EXPECT_EQ(fcfs.stations[0].completions, 1u);
}

TEST(ProcessorSharing, MultiServerRunsUpToCJobsAtFullSpeed) {
  // Two servers' capacity: two jobs both run at full rate, R = S.
  const auto r = simulate_closed_network(
      {{"cpu", 2, kPs}}, {fixed(0, 1.0)},
      deterministic_options(2, 1.0, 0.5, 12.0));
  EXPECT_EQ(r.transactions, 12u);  // both at t = 1, 3, .. 11
  EXPECT_NEAR(r.response_time, 1.0, 1e-9);
}

TEST(ProcessorSharing, UtilizationAccounting) {
  // One 3 s job every 6 s on a two-server station: U = 3 / (2 * 6).
  const auto r = simulate_closed_network(
      {{"cpu", 2, kPs}}, {fixed(0, 3.0)},
      deterministic_options(1, 3.0, 0.5, 12.0));
  EXPECT_NEAR(r.stations[0].utilization, 0.25, 1e-9);
}

// -------------------------------------------------- closed network (stats)

SimOptions quick_options(unsigned customers, std::uint64_t seed) {
  SimOptions o;
  o.customers = customers;
  o.think_time_mean = 1.0;
  o.warmup_time = 50.0;
  o.measure_time = 400.0;
  o.seed = seed;
  return o;
}

TEST(ClosedNetworkSim, SingleUserThroughputMatchesCycleTime) {
  // One customer, one queue: X = 1 / (S + Z) exactly in expectation.
  const std::vector<SimStation> stations{{"cpu", 1}};
  const std::vector<SimVisit> flow{{0, 0.5}};
  const auto r = simulate_closed_network(stations, flow, quick_options(1, 3));
  EXPECT_NEAR(r.throughput, 1.0 / 1.5, 0.03);
  EXPECT_NEAR(r.response_time, 0.5, 0.03);
  EXPECT_NEAR(r.cycle_time, 1.5, 0.03);
}

TEST(ClosedNetworkSim, UtilizationLawHolds) {
  // U = X * D must hold for the measured window (operational identity).
  const std::vector<SimStation> stations{{"cpu", 1}, {"disk", 1}};
  const std::vector<SimVisit> flow{{0, 0.05}, {1, 0.02}, {0, 0.05}};
  const auto r = simulate_closed_network(stations, flow, quick_options(5, 7));
  EXPECT_NEAR(r.stations[0].utilization, r.throughput * 0.10, 0.01);
  EXPECT_NEAR(r.stations[1].utilization, r.throughput * 0.02, 0.005);
}

TEST(ClosedNetworkSim, MatchesExactMvaOnProductFormNetwork) {
  // The central validation: DES and exact MVA must agree on a product-form
  // closed network (single-server stations, exponential everything).
  const std::vector<SimStation> stations{{"a", 1}, {"b", 1}};
  const std::vector<SimVisit> flow{{0, 0.08}, {1, 0.12}};
  const auto net = core::make_network({"a", "b"}, {1, 1}, 1.0);
  const std::vector<double> demands{0.08, 0.12};
  const auto mva =
      core::solve(net, core::DemandModel::constant(demands),
                  {core::SolverKind::kExactSingleServer, 20});
  for (unsigned n : {1u, 5u, 12u, 20u}) {
    SimOptions o = quick_options(n, 100 + n);
    o.measure_time = 800.0;
    const auto sim = simulate_closed_network(stations, flow, o);
    const double predicted = mva.throughput[mva.row_for(n)];
    EXPECT_NEAR(sim.throughput, predicted, 0.04 * predicted) << "n=" << n;
  }
}

TEST(ClosedNetworkSim, MatchesMultiServerMvaWithMultiCoreStation) {
  const std::vector<SimStation> stations{{"cpu", 4}};
  const std::vector<SimVisit> flow{{0, 0.8}};
  const core::ClosedNetwork net(
      {core::Station{"cpu", 1.0, 4, core::StationKind::kQueueing}}, 1.0);
  const auto mva = core::solve(net, core::DemandModel::constant({0.8}),
                               {core::SolverKind::kMvasd, 16});
  for (unsigned n : {2u, 6u, 10u, 16u}) {
    SimOptions o = quick_options(n, 200 + n);
    o.measure_time = 800.0;
    const auto sim = simulate_closed_network(stations, flow, o);
    const double predicted = mva.throughput[mva.row_for(n)];
    EXPECT_NEAR(sim.throughput, predicted, 0.05 * predicted) << "n=" << n;
  }
}

TEST(ClosedNetworkSim, DeterministicForSeed) {
  const std::vector<SimStation> stations{{"cpu", 1}};
  const std::vector<SimVisit> flow{{0, 0.3}};
  const auto a = simulate_closed_network(stations, flow, quick_options(4, 9));
  const auto b = simulate_closed_network(stations, flow, quick_options(4, 9));
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  EXPECT_DOUBLE_EQ(a.response_time, b.response_time);
}

TEST(ClosedNetworkSim, SeedChangesRealization) {
  const std::vector<SimStation> stations{{"cpu", 1}};
  const std::vector<SimVisit> flow{{0, 0.3}};
  const auto a = simulate_closed_network(stations, flow, quick_options(4, 1));
  const auto b = simulate_closed_network(stations, flow, quick_options(4, 2));
  EXPECT_NE(a.transactions, b.transactions);
}

TEST(ClosedNetworkSim, ConfidenceIntervalCoversMeanEstimate) {
  const std::vector<SimStation> stations{{"cpu", 1}};
  const std::vector<SimVisit> flow{{0, 0.4}};
  SimOptions o = quick_options(3, 17);
  o.measure_time = 1500.0;
  const auto r = simulate_closed_network(stations, flow, o);
  EXPECT_GT(r.response_time_ci.half_width, 0.0);
  EXPECT_TRUE(r.response_time_ci.contains(r.response_time));
}

TEST(ClosedNetworkSim, TimelineShowsRampUpTransient) {
  const std::vector<SimStation> stations{{"cpu", 1}};
  const std::vector<SimVisit> flow{{0, 0.05}};
  SimOptions o = quick_options(50, 23);
  o.ramp_up_interval = 2.0;       // users trickle in over 100 s
  o.warmup_time = 150.0;
  o.measure_time = 300.0;
  o.timeline_bucket = 15.0;
  const auto r = simulate_closed_network(stations, flow, o);
  ASSERT_FALSE(r.timeline.empty());
  // Early bucket throughput well below late-bucket steady state.
  const double early = r.timeline[0].throughput;
  const double late = r.timeline[r.timeline.size() - 2].throughput;
  EXPECT_LT(early, 0.6 * late);
}

TEST(ClosedNetworkSim, DeterministicThinkTimeSupported) {
  const std::vector<SimStation> stations{{"cpu", 1}};
  const std::vector<SimVisit> flow{{0, 0.2}};
  SimOptions o = quick_options(1, 31);
  o.exponential_think = false;
  const auto r = simulate_closed_network(stations, flow, o);
  EXPECT_NEAR(r.throughput, 1.0 / 1.2, 0.02);
}

TEST(ClosedNetworkSim, HugeServerCountActsAsInfiniteServer) {
  // A delay station modelled as FCFS with an enormous server count: no
  // customer ever queues, so R = S and the mean number in service is X * S.
  // At most N jobs are ever in service, so nothing may be sized by the
  // server count itself.
  const std::vector<SimStation> stations{
      {"delay", std::numeric_limits<unsigned>::max()}};
  const std::vector<SimVisit> flow{{0, 0.5}};
  const auto r = simulate_closed_network(stations, flow, quick_options(20, 5));
  EXPECT_NEAR(r.response_time, 0.5, 0.03);
  EXPECT_NEAR(r.throughput, 20.0 / 1.5, 0.05 * 20.0 / 1.5);
  EXPECT_NEAR(r.stations[0].mean_jobs, r.throughput * 0.5, 0.3);
}

TEST(ClosedNetworkSim, ResponsePercentilesOrderedAndBracketMean) {
  const std::vector<SimStation> stations{{"cpu", 1}};
  const std::vector<SimVisit> flow{{0, 0.3}};
  SimOptions o = quick_options(5, 77);
  o.measure_time = 1000.0;
  const auto r = simulate_closed_network(stations, flow, o);
  const auto& p = r.response_percentiles;
  EXPECT_LT(p.p50, p.p90);
  EXPECT_LE(p.p90, p.p95);
  EXPECT_LE(p.p95, p.p99);
  // Exponential-ish right skew: median below mean, p99 well above.
  EXPECT_LT(p.p50, r.response_time);
  EXPECT_GT(p.p99, 2.0 * r.response_time);
}

TEST(ClosedNetworkSim, Validation) {
  const std::vector<SimStation> stations{{"cpu", 1}};
  const std::vector<SimVisit> flow{{0, 0.1}};
  EXPECT_THROW(simulate_closed_network({}, flow, quick_options(1, 1)),
               invalid_argument_error);
  EXPECT_THROW(simulate_closed_network(stations, {}, quick_options(1, 1)),
               invalid_argument_error);
  EXPECT_THROW(
      simulate_closed_network(stations, {{3, 0.1}}, quick_options(1, 1)),
      invalid_argument_error);
  SimOptions bad = quick_options(0, 1);
  EXPECT_THROW(simulate_closed_network(stations, flow, bad),
               invalid_argument_error);
}

}  // namespace
}  // namespace mtperf::sim
