// Golden parity of the closed-network simulator: every SimResult field of a
// fixed set of runs, pinned bit for bit.  The runs cover what the engine and
// the runner must keep identical when their internals change: the
// pipeline's heaviest campaign cells (VINS at N = 751, JPetStore at
// N = 151), a processor-sharing station, Erlang and log-normal service,
// deterministic and log-normal think time, ramp-up with an initial sleep,
// timeline buckets, and run_campaign's level x replication grid on a pool.
//
// The literals were captured from the default build (Release,
// MTPERF_NATIVE off) with GCC 12.2 and glibc 2.36 on an x86-64 CPU with
// FMA, where glibc runs its FMA variants of log and exp.  Service and
// think draws go through those two functions, so another libm, or another
// variant of them, may move the last bits of a draw and, through it, every
// statistic; regenerate the literals there instead of loosening a
// comparison.  CI runs this test on a pinned ubuntu-24.04 image (GCC 13,
// glibc 2.39), where the literals have not yet been checked.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/jpetstore.hpp"
#include "apps/vins.hpp"
#include "common/thread_pool.hpp"
#include "sim/closed_network_sim.hpp"
#include "workload/campaign.hpp"
#include "workload/grinder.hpp"
#include "workload/test_plan.hpp"

namespace mtperf::sim {
namespace {

struct StationGolden {
  double utilization;
  double mean_jobs;
  std::uint64_t completions;
};

struct BucketGolden {
  double start_time;
  double throughput;
  double response_time;
};

struct Golden {
  std::uint64_t transactions;
  double throughput;
  double response_time;
  double cycle_time;
  double ci_mean;
  double ci_half_width;
  double p50;
  double p90;
  double p95;
  double p99;
  std::vector<StationGolden> stations;
  std::vector<BucketGolden> timeline;
};

void expect_golden(const SimResult& r, const Golden& g) {
  EXPECT_EQ(r.transactions, g.transactions);
  EXPECT_EQ(r.throughput, g.throughput);
  EXPECT_EQ(r.response_time, g.response_time);
  EXPECT_EQ(r.cycle_time, g.cycle_time);
  EXPECT_EQ(r.response_time_ci.mean, g.ci_mean);
  EXPECT_EQ(r.response_time_ci.half_width, g.ci_half_width);
  EXPECT_EQ(r.response_percentiles.p50, g.p50);
  EXPECT_EQ(r.response_percentiles.p90, g.p90);
  EXPECT_EQ(r.response_percentiles.p95, g.p95);
  EXPECT_EQ(r.response_percentiles.p99, g.p99);
  ASSERT_EQ(r.stations.size(), g.stations.size());
  for (std::size_t k = 0; k < g.stations.size(); ++k) {
    SCOPED_TRACE(r.stations[k].name);
    EXPECT_EQ(r.stations[k].utilization, g.stations[k].utilization);
    EXPECT_EQ(r.stations[k].mean_jobs, g.stations[k].mean_jobs);
    EXPECT_EQ(r.stations[k].completions, g.stations[k].completions);
  }
  ASSERT_EQ(r.timeline.size(), g.timeline.size());
  for (std::size_t b = 0; b < g.timeline.size(); ++b) {
    SCOPED_TRACE(b);
    EXPECT_EQ(r.timeline[b].start_time, g.timeline[b].start_time);
    EXPECT_EQ(r.timeline[b].throughput, g.timeline[b].throughput);
    EXPECT_EQ(r.timeline[b].response_time, g.timeline[b].response_time);
  }
}

/// Three simulated seconds: a quarter warm-up, the rest measured.
SimOptions three_seconds(unsigned customers, std::uint64_t seed) {
  SimOptions o;
  o.customers = customers;
  o.think_time_mean = 1.0;
  o.warmup_time = 0.75;
  o.measure_time = 2.25;
  o.seed = seed;
  return o;
}

SimResult run_app(const workload::ApplicationModel& app, unsigned customers,
                  std::uint64_t seed) {
  SimOptions o = three_seconds(customers, seed);
  o.think_time_mean = app.think_time();
  return simulate_closed_network(app.stations(), app.workflow(customers), o);
}

const std::vector<SimStation> kTwoTier{{"web", 4}, {"db", 1}};

SimResult run_vins_751() { return run_app(apps::make_vins(), 751, 20161); }

SimResult run_jpetstore_151() {
  return run_app(apps::make_jpetstore(), 151, 20162);
}

SimResult run_processor_sharing() {
  const std::vector<SimStation> stations{
      {"web", 2, Discipline::kProcessorSharing}, {"db", 1}};
  const std::vector<SimVisit> flow{{0, 0.02}, {1, 0.03}, {0, 0.01}};
  return simulate_closed_network(stations, flow, three_seconds(40, 31));
}

SimResult run_erlang_and_lognormal_service() {
  const std::vector<SimVisit> flow{
      {0, 0.04, {DistributionKind::kErlang, 0.5}},
      {1, 0.025, {DistributionKind::kLogNormal, 1.5}},
      {0, 0.02}};
  return simulate_closed_network(kTwoTier, flow, three_seconds(30, 32));
}

SimResult run_deterministic_think() {
  SimOptions o = three_seconds(30, 33);
  o.exponential_think = false;
  return simulate_closed_network(kTwoTier, {{0, 0.04}, {1, 0.025}}, o);
}

SimResult run_lognormal_think() {
  workload::GrinderConfig grinder;
  grinder.duration_s = 3.0;
  grinder.sleep_time_variation = 0.6;
  SimOptions o = grinder.to_sim_options(1.0, 34);
  o.customers = 30;
  return simulate_closed_network(kTwoTier, {{0, 0.04}, {1, 0.025}}, o);
}

SimResult run_ramp_up_and_initial_sleep() {
  SimOptions o = three_seconds(30, 35);
  o.ramp_up_interval = 0.02;
  o.initial_sleep_max = 0.3;
  return simulate_closed_network(kTwoTier, {{0, 0.04}, {1, 0.025}}, o);
}

SimResult run_timeline() {
  SimOptions o = three_seconds(30, 36);
  o.timeline_bucket = 0.5;
  return simulate_closed_network(kTwoTier, {{0, 0.04}, {1, 0.025}}, o);
}

/// The pipeline's campaign call: Chebyshev levels, a budget split over the
/// levels, 2 replications on a 2-worker pool.
workload::CampaignResult run_pipeline_campaign() {
  const auto app = apps::make_jpetstore();
  const std::vector<unsigned> levels = workload::plan_concurrency_levels(
      1, apps::kJPetStoreMaxUsers, 3, workload::SamplingStrategy::kChebyshev,
      1, /*include_single_user=*/true);
  ThreadPool pool(2);
  workload::CampaignSettings settings;
  settings.grinder.duration_s = 24.0 / static_cast<double>(levels.size());
  settings.seed = 37;
  settings.replications = 2;
  settings.pool = &pool;
  return workload::run_campaign(app, levels, settings);
}

TEST(SimGolden, VinsAt751Users) {
  expect_golden(
      run_vins_751(),
      {751u,
       0x1.4dc71c71c71c7p+8, 0x1.38b14926107f6p+1, 0x1.b8b14926107f6p+1,
       0x1.37aeec2517316p+1, 0x1.92b4b979d87dfp-5,
       0x1.38b03b1262a6p+1, 0x1.462636398a3f1p+1,
       0x1.473e96113f6cap+1, 0x1.484c64fe18afep+1,
       {{0x1.92388746336cp-3, 0x1.92388746336cp+1, 3733u},
        {0x1.d61fc64bf0f1ep-1, 0x1.7ecfb67e40923p+8, 4177u},
        {0x1.2d35f4256cf32p-3, 0x1.688b7bcfdfd12p-3, 4176u},
        {0x1.00a77f3ce8d5p-3, 0x1.2ca67903b135bp-3, 4176u},
        {0x1.bf45117cc8ba2p-2, 0x1.bf9cd6da9394bp+2, 4171u},
        {0x1.0e22c9b902e23p-2, 0x1.7d2eba0298c29p-2, 4171u},
        {0x1.31d8fb2b82722p-3, 0x1.72937dc2592f2p-3, 4171u},
        {0x1.35f01ac7ffe9p-3, 0x1.769a9be665f94p-3, 4171u},
        {0x1.62afc9f5db8b8p-2, 0x1.62afc9f5db8b8p+2, 4173u},
        {0x1p+0, 0x1.a92b3168117b3p+7, 4149u},
        {0x1.f2c3a173ca955p-4, 0x1.1ce84314563fep-3, 4149u},
        {0x1.ebbb8a19dc519p-4, 0x1.1bc6d2f125fep-3, 4149u}},
       {}});
}

TEST(SimGolden, JPetStoreAt151Users) {
  expect_golden(
      run_jpetstore_151(),
      {275u,
       0x1.e8e38e38e38e4p+6, 0x1.fc5be94187435p-1, 0x1.fe2df4a0c3a1ap+0,
       0x1.089c70853a085p+0, 0x1.9013ce61c4b7dp-1,
       0x1.6611102280502p+0, 0x1.7d47f965877eap+0,
       0x1.7ee3e2cd8fe28p+0, 0x1.81624af493785p+0,
       {{0x1.32d53a686ad19p-3, 0x1.32d53a686ad19p+1, 2906u},
        {0x1.ab3e8bca82ffcp-3, 0x1.0c12cfb6c1164p-2, 2907u},
        {0x1.e7cd47cc5fcb9p-5, 0x1.05c0668952b7cp-4, 2907u},
        {0x1.9938045df91b9p-5, 0x1.b2e296da2e29cp-5, 2907u},
        {0x1.3797eb217916cp-2, 0x1.3797eb217916cp+2, 2906u},
        {0x1.780bec6b8bd3ep-3, 0x1.d298710b0dbe9p-3, 2906u},
        {0x1.eb8e82b767acp-5, 0x1.0837fd0fc8f64p-4, 2906u},
        {0x1.dda4262d99187p-5, 0x1.fe3a9465bb94p-5, 2906u},
        {0x1.ec267de76fca7p-1, 0x1.ade191c69bd7fp+5, 2994u},
        {0x1.dd1be59650ddep-1, 0x1.b5ba558dfa342p+3, 3016u},
        {0x1.b9db241d723c7p-5, 0x1.d2b2cd2015839p-5, 3016u},
        {0x1.b0f38d571372bp-5, 0x1.c4e28ed25b88ep-5, 3015u}},
       {}});
}

TEST(SimGolden, ProcessorSharingStation) {
  expect_golden(
      run_processor_sharing(),
      {63u,
       0x1.cp+4, 0x1.6aa71d7c33169p-1, 0x1.b5538ebe198b4p+0,
       0x1.6aa71d7c33169p-1, 0x0p+0,
       0x1.7b2c5be87fc0ap-1, 0x1.26bcab7c55885p+0,
       0x1.6a827e9417ee1p+0, 0x1.8b07123e62392p+0,
       {{0x1.51c19cf1de59bp-2, 0x1.a4f34a9b92d9ap-1, 111u},
        {0x1p+0, 0x1.b3ef51467b2e9p+3, 64u}},
       {}});
}

TEST(SimGolden, ErlangAndLogNormalService) {
  expect_golden(
      run_erlang_and_lognormal_service(),
      {63u,
       0x1.cp+4, 0x1.a29137dca93dep-3, 0x1.345226fb9527cp+0,
       0x1.a29137dca93dep-3, 0x0p+0,
       0x1.4e47e0a0470b8p-3, 0x1.bfa943409f2acp-2,
       0x1.ee59df8ae9dfp-2, 0x1.92b590db338c4p-1,
       {{0x1.374523e4a8bbap-2, 0x1.38e11a5430a26p+0, 117u},
        {0x1.8957e51e9184cp-1, 0x1.9ff6a9405a86cp+1, 62u}},
       {}});
}

TEST(SimGolden, DeterministicThinkTime) {
  expect_golden(
      run_deterministic_think(),
      {59u,
       0x1.a38e38e38e38ep+4, 0x1.d26359781be61p-4, 0x1.1d26359781be6p+0,
       0x1.d26359781be61p-4, 0x0p+0,
       0x1.487a4c2d3d84p-4, 0x1.d02e6db15063ap-3,
       0x1.35c3acaa9606dp-2, 0x1.596cfae10996ep-2,
       {{0x1.0badbbba52f7dp-2, 0x1.129d30ab1b949p+0, 60u},
        {0x1.50dabedb07e04p-1, 0x1.fd0c0485a7e94p+0, 59u}},
       {}});
}

TEST(SimGolden, LogNormalThinkFromSleepTimeVariation) {
  expect_golden(
      run_lognormal_think(),
      {69u,
       0x1.eaaaaaaaaaaabp+4, 0x1.d90cb62ed07d4p-3, 0x1.3b2196c5da0fap+0,
       0x1.d90cb62ed07d4p-3, 0x0p+0,
       0x1.b71a21c84b36p-4, 0x1.add89c633c0e5p-1,
       0x1.d0e82a8c8622fp-1, 0x1.f5dae32229fdcp-1,
       {{0x1.0597948e3e65p-2, 0x1.0611ee2b54691p+0, 56u},
        {0x1.872c305ab447ep-1, 0x1.26cfc98f58849p+1, 69u}},
       {}});
}

TEST(SimGolden, RampUpWithInitialSleep) {
  expect_golden(
      run_ramp_up_and_initial_sleep(),
      {73u,
       0x1.038e38e38e38ep+5, 0x1.2ee7a1840cdcp-3, 0x1.25dcf430819b8p+0,
       0x1.2ee7a1840cdcp-3, 0x0p+0,
       0x1.015311a62937p-3, 0x1.1821f965f224ep-2,
       0x1.3b520a9ea0e01p-2, 0x1.985962411c83dp-2,
       {{0x1.ec54a28428e84p-3, 0x1.eeb077184f92cp-1, 64u},
        {0x1.9163a16267cd9p-1, 0x1.8e16498d8593cp+1, 73u}},
       {}});
}

TEST(SimGolden, TimelineBuckets) {
  expect_golden(
      run_timeline(),
      {64u,
       0x1.c71c71c71c71cp+4, 0x1.403050d0dbd1ap-3, 0x1.28060a1a1b7a3p+0,
       0x1.403050d0dbd1ap-3, 0x0p+0,
       0x1.72ce6233471e8p-4, 0x1.d6ba1dd667665p-2,
       0x1.07acb38b15748p-1, 0x1.9c4b89193ff47p-1,
       {{0x1.914520a0297cep-3, 0x1.914520a0297cep-1, 53u},
        {0x1.47049ceff26fep-1, 0x1.c9e3a58d59154p+0, 64u}},
       {{0x0p+0, 0x1.1p+5, 0x1.021904ff7db05p-2},
        {0x1p-1, 0x1.7p+5, 0x1.150f694c7fd81p-1},
        {0x1p+0, 0x1.2p+4, 0x1.d9d422432cf2ep-5},
        {0x1.8p+0, 0x1.8p+4, 0x1.69dccc4f6852p-4},
        {0x1p+1, 0x1p+5, 0x1.f8497230193d2p-5},
        {0x1.4p+1, 0x1.cp+4, 0x1.90cb882f2aedep-4}}});
}

TEST(SimGolden, CampaignTwoReplicationsOnTwoWorkers) {
  const workload::CampaignResult campaign = run_pipeline_campaign();
  ASSERT_EQ(campaign.runs.size(), 4u);
  EXPECT_EQ(campaign.runs[0].concurrency, 1u);
  EXPECT_EQ(campaign.runs[0].throughput_ci.mean, 0x1p+0);
  EXPECT_EQ(campaign.runs[0].throughput_ci.half_width,
            0x1.696bc260aef3bp+0);
  expect_golden(
      campaign.runs[0].sim,
      {9u,
       0x1p+0, 0x1.fe63b815442acp-3, 0x1.3fcc7702a8856p+0,
       0x1.0166eaa1610b6p-2, 0x1.f8d322cba5db5p-3,
       0x1.06977e51e2938p-2, 0x1.2793e49f19a2p-2,
       0x1.4108484fd9c2p-2, 0x1.556564dd4042p-2,
       {{0x1.f21d3dc57893dp-10, 0x1.f21d3dc57893dp-6, 126u},
        {0x1.615c8207b1606p-9, 0x1.615c8207b1606p-9, 126u},
        {0x1.702a98e13e1fap-11, 0x1.702a98e13e1fap-11, 126u},
        {0x1.51fd0304cb5bap-11, 0x1.51fd0304cb5bap-11, 126u},
        {0x1.e24d0a2e10e46p-9, 0x1.e24d0a2e10e46p-5, 126u},
        {0x1.5ab6d32c0ecfp-9, 0x1.5ab6d32c0ecfp-9, 126u},
        {0x1.737cb58aad2f7p-11, 0x1.737cb58aad2f7p-11, 126u},
        {0x1.6d3803af83097p-11, 0x1.6d3803af83097p-11, 126u},
        {0x1.227ee2920a8c1p-7, 0x1.227ee2920a8c1p-3, 126u},
        {0x1.3eb86f9040dd3p-7, 0x1.3eb86f9040dd3p-7, 126u},
        {0x1.5fb1ac64e3427p-11, 0x1.5fb1ac64e3427p-11, 126u},
        {0x1.2074b65ee0458p-11, 0x1.2074b65ee0458p-11, 126u}},
       {}});
  EXPECT_EQ(campaign.runs[1].concurrency, 22u);
  EXPECT_EQ(campaign.runs[1].throughput_ci.mean, 0x1.f8e38e38e38e4p+3);
  EXPECT_EQ(campaign.runs[1].throughput_ci.half_width,
            0x1.696bc260aef47p+1);
  expect_golden(
      campaign.runs[1].sim,
      {142u,
       0x1.f8e38e38e38e4p+3, 0x1.0dcfce35a0d65p-2, 0x1.4373f38d68359p+0,
       0x1.0dba33ab3868p-2, 0x1.308633a72b6dcp-4,
       0x1.09cd819133f78p-2, 0x1.4b0235e39c21fp-2,
       0x1.574b6f071f0c8p-2, 0x1.849c05898c633p-2,
       {{0x1.c3613979573a7p-6, 0x1.c3613979573a7p-2, 1951u},
        {0x1.6704e79b9fa0ap-5, 0x1.796fe3475e7fbp-5, 1950u},
        {0x1.59c4f792e85bap-7, 0x1.5f852e903dc86p-7, 1950u},
        {0x1.226c67a1177a9p-7, 0x1.24f9daf704aap-7, 1950u},
        {0x1.c85c816ac1d4dp-5, 0x1.c85c816ac1d4dp-1, 1951u},
        {0x1.18fb1b3f2010bp-5, 0x1.1fba31210f64ep-5, 1951u},
        {0x1.56c88fee1b433p-7, 0x1.590d76d4342e1p-7, 1951u},
        {0x1.5adb3161162e7p-7, 0x1.5ee8d0a98a16cp-7, 1951u},
        {0x1.369dc00a56f37p-3, 0x1.369dc00a56f37p+1, 1954u},
        {0x1.3821c7ef27f58p-3, 0x1.6e8d4fac9b2a1p-3, 1954u},
        {0x1.3076ca5089251p-7, 0x1.332355a3b836ap-7, 1954u},
        {0x1.2676c989a82a2p-7, 0x1.29da4163b4c6ap-7, 1954u}},
       {}});
  EXPECT_EQ(campaign.runs[2].concurrency, 151u);
  EXPECT_EQ(campaign.runs[2].throughput_ci.mean, 0x1.8p+6);
  EXPECT_EQ(campaign.runs[2].throughput_ci.half_width,
            0x1.0f10d1c88338bp+3);
  expect_golden(
      campaign.runs[2].sim,
      {864u,
       0x1.8p+6, 0x1.db1f6548c6p-2, 0x1.76c7d952318p+0,
       0x1.db6f8e4a54671p-2, 0x1.1e7647889c8e8p-1,
       0x1.cb092e456674p-2, 0x1.2b986a7838745p-1,
       0x1.3e538e963c863p-1, 0x1.618c0c5fe1523p-1,
       {{0x1.4b3500066b43ap-3, 0x1.4b3500066b43ap+1, 12623u},
        {0x1.db30e6d06243ap-3, 0x1.3f0dab6f42449p-2, 12625u},
        {0x1.0511385a2910bp-4, 0x1.1a3619956c14cp-4, 12624u},
        {0x1.b77a0f586aa6fp-5, 0x1.d48a94c406cb6p-5, 12624u},
        {0x1.47b726a17ca14p-2, 0x1.47b75224f5c8dp+2, 12623u},
        {0x1.8527dc8583338p-3, 0x1.de5f76b6a029ep-3, 12623u},
        {0x1.050300db67c77p-4, 0x1.177641a627f99p-4, 12623u},
        {0x1.01a225cfd4437p-4, 0x1.139dd62eecf2ep-4, 12623u},
        {0x1.f15f9bfbcee6ep-1, 0x1.b96a4cc358522p+4, 12584u},
        {0x1.d5ac2d1cb98c6p-1, 0x1.3071f82a5b18ap+3, 12571u},
        {0x1.b24754d01d714p-5, 0x1.cfb4631d4c4a6p-5, 12571u},
        {0x1.bbcc72a9fb8d4p-5, 0x1.da0d19f414b95p-5, 12571u}},
       {}});
  EXPECT_EQ(campaign.runs[3].concurrency, 280u);
  EXPECT_EQ(campaign.runs[3].throughput_ci.mean, 0x1.c155555555556p+6);
  EXPECT_EQ(campaign.runs[3].throughput_ci.half_width,
            0x1.3c3e4a149917p+3);
  expect_golden(
      campaign.runs[3].sim,
      {1011u,
       0x1.c155555555555p+6, 0x1.130a6a40f8686p+1, 0x1.930a6a40f8686p+1,
       0x1.1304c3b05687ap+1, 0x1.440dbe52465e7p-2,
       0x1.57d7d789cceabp+1, 0x1.6c9e328ee8892p+1,
       0x1.7040278e87dadp+1, 0x1.735dbd2b21b44p+1,
       {{0x1.39b7bef4c8f24p-3, 0x1.39b7bef4c8f24p+1, 11944u},
        {0x1.b86aeab5becf3p-3, 0x1.1d929259f6d42p-2, 11945u},
        {0x1.e1591672adc4dp-5, 0x1.034098322c572p-4, 11945u},
        {0x1.9f53f772e5e34p-5, 0x1.b9a4c9d82a6cep-5, 11944u},
        {0x1.3498a59b99077p-2, 0x1.3498a59b99077p+2, 11945u},
        {0x1.6124dd781947ep-3, 0x1.b2b9682580076p-3, 11946u},
        {0x1.dd468355a990fp-5, 0x1.fc7745089882bp-5, 11947u},
        {0x1.e1097677decf3p-5, 0x1.0141777a558aep-4, 11947u},
        {0x1.fe4faec7c516dp-1, 0x1.5248469020d08p+7, 12139u},
        {0x1.cbd89bd01232ap-1, 0x1.24544ffbb7612p+3, 12125u},
        {0x1.a6b4616813c5dp-5, 0x1.bce3df9f36065p-5, 12125u},
        {0x1.a6f60d4fa3944p-5, 0x1.c037ae941dbc2p-5, 12125u}},
       {}});
}

}  // namespace
}  // namespace mtperf::sim
