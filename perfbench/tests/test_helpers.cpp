// Tests of the benchmark's own helpers: the percentile rule, seeded corpora,
// Zipf rank frequencies, span self time, and the /proc readers.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "corpus.hpp"
#include "measure.hpp"
#include "serve_client.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

TEST(PercentileRule, RefusesWithoutTenSamplesBeyond) {
  auto v = ramp(99);  // p90 rank 90 leaves 9 beyond
  EXPECT_THROW(percentile_with_tail(v, 0.90), std::runtime_error);
  auto few = ramp(19);  // p50 rank 10 leaves 9 beyond
  EXPECT_THROW(percentile_with_tail(few, 0.50), std::runtime_error);
  std::vector<double> none;
  EXPECT_THROW(percentile_with_tail(none, 0.50), std::runtime_error);
}

TEST(PercentileRule, NearestRankWithCounts) {
  auto v = ramp(100);  // values 1..100
  const Percentile p90 = percentile_with_tail(v, 0.90);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.samples, 100u);
  EXPECT_EQ(p90.beyond, 10u);
  auto w = ramp(20);
  const Percentile p50 = percentile_with_tail(w, 0.50);
  EXPECT_EQ(p50.value, 10.0);
  EXPECT_EQ(p50.beyond, 10u);
}

std::string cold_lines(std::uint64_t seed, std::uint64_t n) {
  const ColdCorpus corpus(seed);
  std::string out;
  for (std::uint64_t i = 0; i < n; ++i) corpus.render(i, i, out);
  return out;
}

std::string hot_lines(std::uint64_t seed, std::uint64_t n) {
  const HotCorpus corpus(seed);
  std::string out;
  for (std::uint64_t i = 0; i < n; ++i) corpus.render(corpus.op(i), i, out);
  return out;
}

TEST(Corpus, SameSeedIsByteIdentical) {
  EXPECT_EQ(cold_lines(7, 64), cold_lines(7, 64));
  EXPECT_EQ(hot_lines(7, 512), hot_lines(7, 512));
  for (std::uint64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(pipeline_op(7, i).campaign_seed, pipeline_op(7, i).campaign_seed);
  }
}

TEST(Corpus, DifferentSeedsDiffer) {
  EXPECT_NE(cold_lines(7, 64), cold_lines(8, 64));
  EXPECT_NE(hot_lines(7, 512), hot_lines(8, 512));
  EXPECT_NE(pipeline_op(7, 3).campaign_seed, pipeline_op(8, 3).campaign_seed);
}

TEST(Corpus, ColdRequestsNeverRepeat) {
  const ColdCorpus corpus(3);
  std::vector<std::string> lines;
  for (std::uint64_t i = 0; i < 256; ++i) {
    std::string line;
    corpus.render(i, 0, line);  // same id: only the request body differs
    lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(std::adjacent_find(lines.begin(), lines.end()), lines.end());
}

TEST(Corpus, ColdFamilyMixIsFixed) {
  const ColdCorpus corpus(1);
  std::size_t counts[kFamilies] = {};
  for (std::uint64_t i = 0; i < 1600; ++i) {
    ++counts[static_cast<std::size_t>(corpus.family(i))];
  }
  for (std::size_t c : counts) EXPECT_GT(c, 0u);
  EXPECT_EQ(counts[0] + counts[1] + counts[2] + counts[3], 1600u);
}

TEST(Corpus, HotSeriesShareIsAQuarter) {
  const HotCorpus corpus(5);
  std::size_t series = 0;
  for (std::uint64_t i = 0; i < 4000; ++i) series += corpus.op(i).series;
  EXPECT_EQ(series, 1000u);
}

TEST(Zipf, RankFrequenciesFollowThePowerLaw) {
  const Zipf zipf(1024, 1.0);
  double harmonic = 0.0;
  for (int r = 1; r <= 1024; ++r) harmonic += 1.0 / r;
  EXPECT_NEAR(zipf.probability(0), 1.0 / harmonic, 1e-12);
  EXPECT_NEAR(zipf.probability(1) / zipf.probability(0), 0.5, 1e-12);
  EXPECT_NEAR(zipf.probability(9) / zipf.probability(0), 0.1, 1e-12);

  // Empirical frequencies from evenly spaced uniforms match the pmf.
  std::vector<double> hits(1024);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    hits[zipf.sample((i + 0.5) / kDraws)] += 1.0 / kDraws;
  }
  for (std::size_t r : {0u, 1u, 2u, 9u, 99u}) {
    EXPECT_NEAR(hits[r], zipf.probability(r), 2e-4) << "rank " << r;
  }
  EXPECT_EQ(zipf.sample(0.0), 0u);
  EXPECT_EQ(zipf.sample(0.999999999), 1023u);
}

TEST(Zipf, HotKeyPopularityIsZipf) {
  const HotCorpus corpus(11);
  std::vector<std::size_t> counts(HotCorpus::kKeys);
  constexpr std::uint64_t kOps = 100000;
  for (std::uint64_t i = 0; i < kOps; ++i) ++counts[corpus.op(i).key];
  std::sort(counts.rbegin(), counts.rend());
  const Zipf zipf(HotCorpus::kKeys, HotCorpus::kZipfS);
  EXPECT_NEAR(counts[0] / double(kOps), zipf.probability(0), 0.01);
  EXPECT_NEAR(counts[1] / double(kOps), zipf.probability(1), 0.01);
}

TEST(Spans, RecorderLinksParentsByNesting) {
  SpanRecorder rec;
  const std::size_t root = rec.open("root", 1);
  const std::size_t a = rec.open("a", 1);
  const std::size_t a1 = rec.open("a1", 1);
  rec.close(a1);
  rec.close(a);
  const std::size_t b = rec.open("b", 2);
  rec.close(b);
  rec.close(root);
  ASSERT_EQ(rec.spans().size(), 4u);
  EXPECT_EQ(rec.spans()[root].parent, -1);
  EXPECT_EQ(rec.spans()[a].parent, static_cast<std::int64_t>(root));
  EXPECT_EQ(rec.spans()[a1].parent, static_cast<std::int64_t>(a));
  EXPECT_EQ(rec.spans()[b].parent, static_cast<std::int64_t>(root));
  EXPECT_EQ(rec.spans()[b].op, 2u);
  for (const Span& s : rec.spans()) EXPECT_GE(s.end_us, s.start_us);
}

TEST(Spans, SelfTimeSubtractsNestedChildren) {
  // root [0, 100] > a [10, 50] > a1 [20, 30]; root > b [60, 70].
  const std::vector<Span> spans = {{"root", 0, 100, -1, 0},
                                   {"a", 10, 50, 0, 0},
                                   {"a1", 20, 30, 1, 0},
                                   {"b", 60, 70, 0, 0}};
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 100 - 40 - 10);
  EXPECT_DOUBLE_EQ(self[1], 40 - 10);
  EXPECT_DOUBLE_EQ(self[2], 10);
  EXPECT_DOUBLE_EQ(self[3], 10);
}

TEST(Spans, OverlappingChildrenCountOnce) {
  // Children [10, 40] and [30, 60] cover 50 us of root [0, 100]; a child
  // running past its parent [90, 120] is clipped to 10 us.
  const std::vector<Span> spans = {{"root", 0, 100, -1, 0},
                                   {"c1", 10, 40, 0, 0},
                                   {"c2", 30, 60, 0, 0},
                                   {"c3", 90, 120, 0, 0}};
  EXPECT_DOUBLE_EQ(self_times(spans)[0], 100 - 50 - 10);
}

TEST(Proc, StatParserReadsUtimePlusStime) {
  // Field 2 holds spaces and parentheses; utime and stime are fields 14
  // and 15.
  const std::string stat =
      "4242 (my (odd) name) S 1 4242 4242 0 -1 4194560 100 0 0 0 "
      "250 50 0 0 20 0 3 0 12345 1000 100";
  EXPECT_DOUBLE_EQ(parse_stat_cpu_seconds(stat, 100), 3.0);
  EXPECT_THROW(parse_stat_cpu_seconds("12 (x) S 1 2", 100), std::runtime_error);
}

TEST(Proc, StatusParserReadsVmHWM) {
  const std::string status =
      "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\n"
      "VmRSS:\t   40000 kB\n";
  EXPECT_DOUBLE_EQ(parse_status_vmhwm_mb(status), 50.0);
  EXPECT_THROW(parse_status_vmhwm_mb("Name:\tx\n"), std::runtime_error);
}

TEST(Proc, LiveReadersSeeThisProcess) {
  const double cpu0 = process_cpu_seconds(::getpid());
  const double t0 = thread_cpu_seconds();
  volatile double sink = 0.0;
  while (thread_cpu_seconds() - t0 < 0.05) sink = sink + std::sqrt(sink + 1.0);
  EXPECT_GT(process_cpu_seconds(::getpid()), cpu0);
  std::vector<char> block(64 << 20, 1);  // touch 64 MiB
  EXPECT_GE(process_peak_rss_mb(::getpid()), 64.0);
  EXPECT_EQ(block[12345], 1);
}

TEST(Scan, ReadsTopLevelFieldsAndSkipsNestedOnes) {
  Response r;
  ASSERT_TRUE(scan_response(
      "{\"bottleneck\":\"db\",\"cache_hit\":true,\"classes\":{\"a\":"
      "{\"throughput\":1.5}},\"id\":42,\"max_population\":120,"
      "\"prefix_hit\":false,\"throughput\":12.25,\"throughput_series\":"
      "[1,2,3],\"utilization\":{\"x\\\"y\":0.5}}",
      r));
  EXPECT_EQ(r.id, 42u);
  EXPECT_TRUE(r.cache_hit);
  EXPECT_FALSE(r.prefix_hit);
  EXPECT_EQ(r.throughput, 12.25);
  EXPECT_EQ(r.max_population, 120.0);
  EXPECT_FALSE(r.error);

  Response e;
  ASSERT_TRUE(scan_response("{\"error\":\"overloaded\",\"id\":7}", e));
  EXPECT_TRUE(e.error);
  EXPECT_EQ(e.id, 7u);
  Response bad;
  EXPECT_FALSE(scan_response("{\"error\":\"no id\"}", bad));
  EXPECT_FALSE(scan_response("not json", bad));
}

}  // namespace
}  // namespace perfbench
