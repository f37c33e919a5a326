// Tests for the serving pipeline: the bounded submission queue, the
// hostile-input behavior of the request core, single-flight dedup of
// concurrent identical misses, batched-vs-scalar parity, and the socket
// Server end to end (including overload shedding).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mpmc_queue.hpp"
#include "common/socket.hpp"
#include "core/network.hpp"
#include "core/solve.hpp"
#include "core/sweep.hpp"
#include "service/engine.hpp"
#include "service/fingerprint.hpp"
#include "service/json.hpp"
#include "service/request.hpp"
#include "service/server.hpp"

namespace {

using namespace mtperf;
using service::Json;

// --- helpers ---------------------------------------------------------------

core::ScenarioSpec make_spec(double demand_scale, unsigned population,
                             unsigned servers = 4) {
  std::vector<core::Station> stations;
  for (int k = 0; k < 4; ++k) {
    core::Station st;
    st.name = "st" + std::to_string(k);
    st.servers = servers;
    stations.push_back(std::move(st));
  }
  core::ScenarioSpec spec;
  spec.label = "t";
  spec.network = core::ClosedNetwork(std::move(stations), 1.0);
  spec.demands = core::DemandModel::constant(
      {0.010 * demand_scale, 0.020 * demand_scale, 0.005 * demand_scale,
       0.015 * demand_scale});
  spec.options.solver = core::SolverKind::kMvasd;
  spec.options.max_population = population;
  return spec;
}

std::string spec_request(std::uint64_t id, double demand_scale,
                         unsigned population) {
  const core::ScenarioSpec spec = make_spec(demand_scale, population);
  Json::Object request;
  request["id"] = static_cast<unsigned long long>(id);
  request["label"] = spec.label;
  request["think"] = spec.network.think_time();
  Json::Array stations;
  for (const auto& st : spec.network.stations()) {
    Json::Object js;
    js["name"] = st.name;
    js["servers"] = static_cast<unsigned long long>(st.servers);
    stations.push_back(Json(std::move(js)));
  }
  request["stations"] = Json(std::move(stations));
  Json::Object demands;
  demands["type"] = std::string("constant");
  Json::Array values;
  for (unsigned k = 0; k < 4; ++k) {
    values.emplace_back(spec.demands.at(k, 1.0));
  }
  demands["values"] = Json(std::move(values));
  request["demands"] = Json(std::move(demands));
  request["solver"] = std::string("mvasd");
  request["max_population"] = static_cast<unsigned long long>(population);
  return Json(std::move(request)).dump() + "\n";
}

// --- BoundedQueue ----------------------------------------------------------

TEST(BoundedQueue, TryPushShedsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: fast-reject, no blocking
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.try_push(3));  // space again
}

TEST(BoundedQueue, PopUntilTimesOut) {
  BoundedQueue<int> q(4);
  int out = 0;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop_until(
      out, start + std::chrono::milliseconds(30)));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(25));
}

TEST(BoundedQueue, CloseDrainsThenStops) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.try_push(7));
  q.close();
  EXPECT_FALSE(q.try_push(8));  // closed: reject new work
  int out = 0;
  EXPECT_TRUE(q.pop(out));  // queued work still drains
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(q.pop(out));  // drained + closed
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(4);
  std::thread consumer([&q] {
    int out = 0;
    EXPECT_FALSE(q.pop(out));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
}

// --- hostile request lines -------------------------------------------------

TEST(RequestParsing, HostileInputsThrowInsteadOfCrashing) {
  const char* hostile[] = {
      "",                          // empty
      "{",                         // truncated object
      "{\"a\":",                   // truncated value
      "{\"a\":1,}",                // trailing comma
      "nonsense",                  // not JSON at all
      "{\"x\":NaN}",               // NaN literal is not JSON
      "{\"x\":Infinity}",          // neither is Infinity
      "{\"x\":1e999999}",          // overflows double
      "{\"x\":--5}",               // malformed number
      "{\"cmd\":\"format-disk\"}", // unknown command
      "\"just a string\"",         // not an object
      "{\"label\":\"\xff\xfe\"}",  // invalid UTF-8 in a string
  };
  for (const char* line : hostile) {
    EXPECT_THROW(service::parse_request(line), std::exception)
        << "line: " << line;
  }
}

TEST(RequestParsing, DeepNestingIsBounded) {
  std::string bomb;
  for (int i = 0; i < 2000; ++i) bomb += "[";
  EXPECT_THROW(Json::parse(bomb), std::exception);
  // At the boundary: kMaxParseDepth levels parse, one more does not.
  std::string ok, over;
  for (std::size_t i = 0; i < Json::kMaxParseDepth; ++i) {
    ok += "[";
    over += "[";
  }
  over += "[";
  for (std::size_t i = 0; i < Json::kMaxParseDepth; ++i) ok += "]";
  for (std::size_t i = 0; i < Json::kMaxParseDepth + 1; ++i) over += "]";
  EXPECT_NO_THROW(Json::parse(ok));
  EXPECT_THROW(Json::parse(over), std::exception);
}

TEST(RequestParsing, SchemaViolationsThrow) {
  // Valid JSON, invalid scenarios: the request core must reject these
  // before they reach a solver.
  const char* bad[] = {
      // no stations
      "{\"stations\":[],\"demands\":{\"type\":\"constant\",\"values\":[]},"
      "\"max_population\":10}",
      // demand count mismatch
      "{\"stations\":[{\"name\":\"a\"}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1,0.2]},"
      "\"max_population\":10}",
      // negative demand
      "{\"stations\":[{\"name\":\"a\"}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[-0.1]},"
      "\"max_population\":10}",
      // zero population
      "{\"stations\":[{\"name\":\"a\"}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1]},"
      "\"max_population\":0}",
      // absurd population
      "{\"stations\":[{\"name\":\"a\"}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1]},"
      "\"max_population\":1e15}",
      // negative think time
      "{\"think\":-1,\"stations\":[{\"name\":\"a\"}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1]},"
      "\"max_population\":10}",
      // zero servers
      "{\"stations\":[{\"name\":\"a\",\"servers\":0}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1]},"
      "\"max_population\":10}",
      // unknown solver
      "{\"stations\":[{\"name\":\"a\"}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1]},"
      "\"solver\":\"quantum\",\"max_population\":10}",
      // fractional servers
      "{\"stations\":[{\"name\":\"a\",\"servers\":2.5}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1]},"
      "\"max_population\":10}",
      // fractional population
      "{\"stations\":[{\"name\":\"a\"}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1]},"
      "\"max_population\":40.7}",
  };
  for (const char* line : bad) {
    EXPECT_THROW(service::parse_request(line), std::exception)
        << "line: " << line;
  }
  // A fractional count is refused by name, not truncated; a whole number
  // written as 2.0 or 1e3 still parses.
  const auto message = [](const std::string& servers,
                          const std::string& population) {
    try {
      (void)service::parse_request(
          "{\"stations\":[{\"name\":\"a\",\"servers\":" + servers +
          "}],\"demands\":{\"type\":\"constant\",\"values\":[0.1]},"
          "\"max_population\":" +
          population + "}");
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  // The message is the check's own text: no expression, source path or
  // line number, so it reads the same from every build.
  EXPECT_EQ(message("2.5", "10"),
            "mtperf: station servers must be a whole number");
  EXPECT_EQ(message("2", "2.5"),
            "mtperf: max_population must be a whole number");
  EXPECT_EQ(message("2.0", "1e3"), "");
  const auto parsed = service::parse_request(
      "{\"stations\":[{\"name\":\"a\",\"servers\":2.0}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1]},"
      "\"max_population\":1e3}");
  EXPECT_EQ(parsed.spec.network.station(0).servers, 2u);
  EXPECT_EQ(parsed.spec.options.max_population, 1000u);
}

TEST(RequestParsing, IdRecoveryFromBrokenRequests) {
  EXPECT_EQ(service::recover_request_id("{\"id\":41,\"cmd\":\"nope\"}")
                .as_number(),
            41.0);
  EXPECT_TRUE(service::recover_request_id("{\"id\":41").is_null());
  EXPECT_TRUE(service::recover_request_id("{}").is_null());
}

// --- multiclass request lines ----------------------------------------------

TEST(RequestParsing, HostileClassesInputsThrow) {
  // Valid JSON, invalid class mixes: every one must be rejected at parse
  // time, before a solver or the cache sees it.
  const char* bad[] = {
      // classes next to single-class demands
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.1,0.2]},"
      "\"classes\":[{\"name\":\"a\",\"population\":5,"
      "\"demands\":[0.1,0.2]}]}",
      // classes next to max_population
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"max_population\":10,"
      "\"classes\":[{\"name\":\"a\",\"population\":5,"
      "\"demands\":[0.1,0.2]}]}",
      // single-class solver kind with a class mix
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"solver\":\"mvasd\","
      "\"classes\":[{\"name\":\"a\",\"population\":5,"
      "\"demands\":[0.1,0.2]}]}",
      // empty mix
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[]}",
      // missing class name
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"population\":5,\"demands\":[0.1,0.2]}]}",
      // empty class name
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"\",\"population\":5,"
      "\"demands\":[0.1,0.2]}]}",
      // missing population
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"a\",\"demands\":[0.1,0.2]}]}",
      // negative population
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"a\",\"population\":-3,"
      "\"demands\":[0.1,0.2]}]}",
      // absurd population
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"a\",\"population\":2000000,"
      "\"demands\":[0.1,0.2]}]}",
      // every class idle
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"a\",\"population\":0,"
      "\"demands\":[0.1,0.2]},{\"name\":\"b\",\"population\":0,"
      "\"demands\":[0.2,0.1]}]}",
      // demand vector narrower than the station list
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"a\",\"population\":5,"
      "\"demands\":[0.1]}]}",
      // negative demand in the vector shorthand
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"a\",\"population\":5,"
      "\"demands\":[-0.1,0.2]}]}",
      // spline demand object with one row for two stations
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"solver\":\"exact-multiclass\","
      "\"classes\":[{\"name\":\"a\",\"population\":5,"
      "\"demands\":{\"type\":\"spline\",\"axis\":\"concurrency\","
      "\"x\":[1,10],\"y\":[[0.1,0.1]]}}]}",
      // fractional population
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"a\",\"population\":3.5,"
      "\"demands\":[0.1,0.2]}]}",
  };
  for (const char* line : bad) {
    EXPECT_THROW(service::parse_request(line), std::exception)
        << "line: " << line;
  }
  try {
    (void)service::parse_request(
        "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
        "\"classes\":[{\"name\":\"a\",\"population\":2.5,"
        "\"demands\":[0.1,0.2]}]}");
    FAIL() << "fractional class population accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "class 'a' population must be a whole number"),
              std::string::npos)
        << e.what();
  }
}

TEST(RequestParsing, WrappedTotalClassPopulationIsRejected) {
  // 4,295 classes of 1,000,000 customers each pass the per-class cap, but
  // their total (4,295,000,000) does not fit in 32 bits.  Summed in 32 it
  // wrapped to 32,704 and passed the total check.
  std::string line = "{\"stations\":[{\"name\":\"cpu\"}],\"classes\":[";
  for (int c = 0; c < 4295; ++c) {
    line += (c == 0 ? "" : ",") + std::string("{\"name\":\"c") +
            std::to_string(c) +
            "\",\"population\":1000000,\"demands\":[0.001]}";
  }
  line += "]}";
  try {
    (void)service::parse_request(line);
    FAIL() << "wrapped total class population accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind(Error::prefix(), 0), 0u) << what;
    EXPECT_NE(what.find("total class population 4295000000 is too large"),
              std::string::npos)
        << what;
  }
}

TEST(RequestParsing, ServedSpecsAskForUtilizationRowsOnly) {
  // Responses carry X, R, Z and utilizations, so every scenario the wire
  // parses, flat or workmodel, solves without queue or residence rows.
  const char* lines[] = {
      "{\"stations\":[{\"name\":\"cpu\",\"servers\":4}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.02]},"
      "\"max_population\":30}",
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"a\",\"population\":5,"
      "\"demands\":[0.1,0.2]}]}",
      "{\"cmd\":\"workmodel\",\"entry\":\"web\",\"max_population\":20,"
      "\"services\":{\"web\":{\"demand\":0.01,\"calls\":[{\"to\":\"db\"}]},"
      "\"db\":{\"demand\":0.02}}}",
  };
  service::Engine engine;
  for (const char* line : lines) {
    SCOPED_TRACE(line);
    const auto parsed = service::parse_request(line);
    EXPECT_EQ(parsed.spec.options.station_rows,
              core::StationRows::kUtilization);
    const auto evaluation = engine.evaluate(parsed.spec);
    EXPECT_TRUE(evaluation.result->station_queue.empty());
    EXPECT_TRUE(evaluation.result->station_residence.empty());
    EXPECT_TRUE(evaluation.result->class_station_queue.empty());
    // The response is the one an all-rows solve gives.
    core::ScenarioSpec full = parsed.spec;
    full.options.station_rows = core::StationRows::kAll;
    const core::MvaResult reference =
        core::solve(full.network, &full.demands, full.options);
    std::string served, expected;
    service::append_evaluation(served, evaluation, true, parsed.id);
    service::Evaluation ref_eval = evaluation;
    ref_eval.result = std::make_shared<const core::MvaResult>(reference);
    service::append_evaluation(expected, ref_eval, true, parsed.id);
    EXPECT_EQ(served, expected);
  }
}

TEST(RequestParsing, DuplicateClassNamesAreRejectedAtSolveTime) {
  // Structurally the line is fine, so parsing succeeds; the solver's mix
  // validation rejects it with the stable error prefix.
  const auto parsed = service::parse_request(
      "{\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"a\",\"population\":5,"
      "\"demands\":[0.1,0.2]},{\"name\":\"a\",\"population\":3,"
      "\"demands\":[0.2,0.1]}]}");
  service::Engine engine;
  try {
    (void)engine.evaluate(parsed.spec);
    FAIL() << "expected mtperf::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind(Error::prefix(), 0), 0u) << what;
    EXPECT_NE(what.find("duplicate customer class name"), std::string::npos)
        << what;
  }
}

TEST(RequestParsing, ZeroPopulationClassAmongNonZeroIsServed) {
  const auto parsed = service::parse_request(
      "{\"id\":3,\"stations\":[{\"name\":\"cpu\"},{\"name\":\"disk\"}],"
      "\"classes\":[{\"name\":\"idle\",\"population\":0,"
      "\"demands\":[0.1,0.2]},{\"name\":\"busy\",\"population\":10,"
      "\"think\":1.0,\"demands\":[0.02,0.01]}]}");
  service::Engine engine;
  const auto evaluation = engine.evaluate(parsed.spec);
  std::string out;
  service::append_evaluation(out, evaluation, parsed.series, parsed.id);
  const Json response = Json::parse(out);
  const Json& classes = response.at("classes");
  EXPECT_EQ(classes.at("idle").at("population").as_number(), 0.0);
  EXPECT_EQ(classes.at("idle").at("throughput").as_number(), 0.0);
  EXPECT_GT(classes.at("busy").at("throughput").as_number(), 0.0);
}

TEST(RequestParsing, ExactMultiserverAliasSharesTheMvasdCacheEntry) {
  // "exact-multiserver" names the mvasd kind, so a spec sent under either
  // name has one fingerprint and one cache entry.
  const std::string body =
      "\"stations\":[{\"name\":\"cpu\",\"servers\":16},{\"name\":\"disk\"}],"
      "\"demands\":{\"type\":\"constant\",\"values\":[0.012,0.03]},"
      "\"max_population\":200}";
  const auto alias =
      service::parse_request("{\"solver\":\"exact-multiserver\"," + body);
  const auto canonical =
      service::parse_request("{\"solver\":\"mvasd\"," + body);
  EXPECT_EQ(alias.spec.options.solver, core::SolverKind::kMvasd);
  EXPECT_EQ(service::fingerprint(alias.spec),
            service::fingerprint(canonical.spec));
  service::Engine engine;
  const auto first = engine.evaluate(alias.spec);
  const auto second = engine.evaluate(canonical.spec);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.result.get(), second.result.get());
}

TEST(ServePipeline, MomServesMixesBeyondTheExactGuard) {
  // 3 classes x 700 customers over one queueing and one delay station:
  // the exact recursion's state space (701^3 vectors x 2 stations) trips
  // its 2^28 guard, while MoM's moment space is a few million doubles.
  const std::string mix_body =
      "\"stations\":[{\"name\":\"cpu\"},{\"name\":\"net\","
      "\"kind\":\"delay\"}],"
      "\"classes\":["
      "{\"name\":\"browse\",\"population\":700,\"think\":1.0,"
      "\"demands\":[0.004,0.020]},"
      "{\"name\":\"search\",\"population\":700,\"think\":1.0,"
      "\"demands\":[0.006,0.015]},"
      "{\"name\":\"buy\",\"population\":700,\"think\":1.0,"
      "\"demands\":[0.002,0.030]}]}";
  service::Engine engine;

  const auto exact = service::parse_request(
      "{\"solver\":\"exact-multiclass\"," + mix_body);
  EXPECT_THROW((void)engine.evaluate(exact.spec), Error);

  // "solver" omitted: multiclass requests default to mom-multiclass.
  const auto parsed = service::parse_request("{\"id\":9," + mix_body);
  const auto evaluation = engine.evaluate(parsed.spec);
  std::string out;
  service::append_evaluation(out, evaluation, parsed.series, parsed.id);
  const Json response = Json::parse(out);
  EXPECT_EQ(response.at("id").as_number(), 9.0);
  EXPECT_GT(response.at("throughput").as_number(), 0.0);
  const Json& classes = response.at("classes");
  double total = 0.0;
  for (const char* name : {"browse", "search", "buy"}) {
    const Json& jc = classes.at(name);
    EXPECT_EQ(jc.at("population").as_number(), 700.0);
    EXPECT_GT(jc.at("throughput").as_number(), 0.0);
    EXPECT_GT(jc.at("response_time").as_number(), 0.0);
    total += jc.at("throughput").as_number();
  }
  EXPECT_NEAR(total, response.at("throughput").as_number(),
              1e-9 * std::max(1.0, total));
}

TEST(ServePipeline, WorkmodelClassMixEndToEnd) {
  // One compiled service graph, two traffic classes: the demand_scale=2
  // class exercises the same mesh with doubled demands, so it must see a
  // strictly larger response time.
  const auto parsed = service::parse_request(
      "{\"cmd\":\"workmodel\",\"entry\":\"web\",\"think\":1.0,"
      "\"services\":{\"web\":{\"demand\":0.005,"
      "\"calls\":[{\"to\":\"db\"}]},\"db\":{\"demand\":0.012}},"
      "\"classes\":[{\"name\":\"light\",\"population\":40},"
      "{\"name\":\"heavy\",\"population\":40,\"demand_scale\":2.0}]}");
  service::Engine engine;
  const auto evaluation = engine.evaluate(parsed.spec);
  std::string out;
  service::append_evaluation(out, evaluation, parsed.series, parsed.id);
  const Json response = Json::parse(out);
  const Json& classes = response.at("classes");
  const double light_r = classes.at("light").at("response_time").as_number();
  const double heavy_r = classes.at("heavy").at("response_time").as_number();
  EXPECT_GT(light_r, 0.0);
  EXPECT_GT(heavy_r, light_r);
}

TEST(Json, DumpToMatchesDump) {
  const Json parsed = Json::parse(
      "{\"a\":[1,2.5,-3e-2],\"b\":{\"c\":\"x\\ny\",\"d\":null},"
      "\"e\":true,\"f\":false}");
  std::string appended = "prefix:";
  parsed.dump_to(appended);
  EXPECT_EQ(appended, "prefix:" + parsed.dump());
}

// --- single-flight dedup ---------------------------------------------------

TEST(SingleFlight, ConcurrentIdenticalMissesCollapse) {
  service::Engine engine;
  // One expensive spec (deep population) requested by many threads at
  // once: the leader solves, everyone else must be served from the same
  // in-flight solve (coalesced) or from the cache right after it lands.
  const core::ScenarioSpec spec = make_spec(1.0, 20000, 64);
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<service::Evaluation> evaluations(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      evaluations[t] = engine.evaluate(spec);
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true);
  for (auto& th : threads) th.join();

  const auto metrics = engine.metrics();
  // The collapse is what matters: 8 identical requests, at most 2 solver
  // runs even under adversarial scheduling (leader + one straggler that
  // started before the leader registered).
  EXPECT_LE(metrics.misses, 2u);
  EXPECT_EQ(metrics.requests, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(metrics.hits + metrics.misses,
            static_cast<std::uint64_t>(kThreads));
  // Every thread got the same (shared) result, bit-identical.
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_NE(evaluations[t].result, nullptr);
    EXPECT_EQ(evaluations[t].result->throughput,
              evaluations[0].result->throughput);
  }
}

TEST(SingleFlight, ConcurrentBatchesDoNotDeadlock) {
  // Two threads evaluate overlapping batches (shared fingerprints) at
  // the same time; publish-own-before-await-foreign plus caller
  // participation in parallel_for must keep this deadlock-free even on a
  // single-thread pool.
  service::EngineOptions options;
  options.threads = 1;
  service::Engine engine(options);
  std::vector<core::ScenarioSpec> batch_a, batch_b;
  for (int i = 0; i < 12; ++i) {
    batch_a.push_back(make_spec(1.0 + 0.01 * i, 400));
    batch_b.push_back(make_spec(1.0 + 0.01 * (i + 6), 400));  // overlap 6..11
  }
  std::vector<service::Evaluation> out_a, out_b;
  std::thread ta([&] { out_a = engine.evaluate_batch(batch_a); });
  std::thread tb([&] { out_b = engine.evaluate_batch(batch_b); });
  ta.join();
  tb.join();
  ASSERT_EQ(out_a.size(), batch_a.size());
  ASSERT_EQ(out_b.size(), batch_b.size());
  for (int i = 0; i < 6; ++i) {
    // The overlapping specs must agree bit-for-bit across the two batches.
    EXPECT_EQ(out_a[6 + i].result->throughput, out_b[i].result->throughput);
  }
}

// --- batched vs scalar parity ----------------------------------------------

TEST(BatchParity, BatchedServingPathIsBitIdenticalToScalar) {
  service::Engine engine;
  std::vector<core::ScenarioSpec> specs;
  // Mixed corpus: one structure family at several demand variants and
  // ragged populations (exercises lane retirement), plus a structurally
  // different spec that lands in its own group.
  for (int i = 0; i < 21; ++i) {
    specs.push_back(make_spec(1.0 + 0.02 * i, 300 + 40 * (i % 5)));
  }
  specs.push_back(make_spec(1.0, 200, 16));
  const auto batched = engine.evaluate_batch(specs);
  ASSERT_EQ(batched.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const core::MvaResult direct =
        core::solve(specs[i].network, &specs[i].demands, specs[i].options);
    ASSERT_EQ(batched[i].result->levels(), direct.levels());
    // Tolerance zero: the serving path must be the solver, exactly.
    EXPECT_EQ(batched[i].result->throughput, direct.throughput) << i;
    EXPECT_EQ(batched[i].result->response_time, direct.response_time) << i;
  }
  const auto metrics = engine.metrics();
  EXPECT_GT(metrics.batch_blocks, 0u);
  EXPECT_EQ(metrics.batch_lanes, 22u);
}

// --- socket server end to end ----------------------------------------------

/// Send `lines` to a connected socket and read until `expected` responses
/// arrive; returns them keyed by "id".  Responses without an id (errors
/// for unparseable lines) get unique descending sentinel keys so each one
/// still counts toward `expected`.
std::map<std::uint64_t, Json> exchange(Socket& sock,
                                       const std::vector<std::string>& lines,
                                       std::size_t expected) {
  for (const auto& line : lines) {
    EXPECT_TRUE(sock.send_all(line));
  }
  std::map<std::uint64_t, Json> responses;
  std::uint64_t sentinel = static_cast<std::uint64_t>(-1);
  LineReader reader(sock);
  std::string line;
  while (responses.size() < expected && reader.next_line(line)) {
    Json response = Json::parse(line);
    const std::uint64_t id =
        response.contains("id")
            ? static_cast<std::uint64_t>(response.at("id").as_number())
            : sentinel--;
    responses.emplace(id, std::move(response));
  }
  return responses;
}

TEST(SocketServer, ServesParityErrorsAndMetrics) {
  service::ServerOptions options;
  options.port = 0;
  options.max_batch = 8;
  options.batch_deadline = std::chrono::microseconds(500);
  service::Server server(options);
  server.start();

  Socket sock = connect_tcp(server.port());
  ASSERT_TRUE(sock.valid());
  std::vector<std::string> lines;
  constexpr std::size_t kScenarios = 10;
  for (std::uint64_t i = 0; i < kScenarios; ++i) {
    lines.push_back(spec_request(i, 1.0 + 0.05 * static_cast<double>(i), 250));
  }
  lines.push_back("{\"id\":97,\"cmd\":\"bogus\"}\n");
  lines.push_back("{\"id\":98,\"cmd\":\"metrics\"}\n");
  const auto responses = exchange(sock, lines, kScenarios + 2);
  ASSERT_EQ(responses.size(), kScenarios + 2);

  // Every scenario response matches a direct solve bit-for-bit (doubles
  // round-trip through the wire via shortest-round-trip formatting).
  for (std::uint64_t i = 0; i < kScenarios; ++i) {
    const auto it = responses.find(i);
    ASSERT_NE(it, responses.end()) << "missing id " << i;
    const core::ScenarioSpec spec =
        make_spec(1.0 + 0.05 * static_cast<double>(i), 250);
    const core::MvaResult direct =
        core::solve(spec.network, &spec.demands, spec.options);
    EXPECT_EQ(it->second.at("throughput").as_number(),
              direct.throughput.back());
    EXPECT_EQ(it->second.at("response_time").as_number(),
              direct.response_time.back());
  }
  // The unknown command came back as an error with its id echoed.
  ASSERT_TRUE(responses.count(97));
  EXPECT_TRUE(responses.at(97).contains("error"));
  // The metrics line reports both engine and transport counters.
  ASSERT_TRUE(responses.count(98));
  const Json& metrics = responses.at(98);
  EXPECT_TRUE(metrics.contains("metrics"));
  EXPECT_TRUE(metrics.contains("server"));
  EXPECT_GE(metrics.at("server").at("accepted").as_number(), 1.0);

  server.stop();
}

TEST(SocketServer, FailingRequestLeavesItsBatchServed) {
  service::ServerOptions options;
  options.port = 0;
  options.max_batch = 4;
  options.batch_deadline = std::chrono::milliseconds(200);
  service::Server server(options);
  server.start();

  Socket sock = connect_tcp(server.port());
  ASSERT_TRUE(sock.valid());
  // Four requests in one write, so they share one flush: two valid mvasd
  // lines, a degenerate one (zero demand, zero think), and a 3 x 700
  // exact-multiclass mix past the exact kind's guard.
  const std::string valid_two =
      "{\"id\":1,\"think\":1.0,\"stations\":[{\"name\":\"cpu\","
      "\"servers\":4},{\"name\":\"disk\"}],\"demands\":{\"type\":"
      "\"constant\",\"values\":[0.012,0.03]},\"solver\":\"mvasd\","
      "\"max_population\":120}\n";
  const std::string degenerate =
      "{\"id\":2,\"think\":0.0,\"stations\":[{\"name\":\"cpu\"},"
      "{\"name\":\"disk\"}],\"demands\":{\"type\":\"constant\","
      "\"values\":[0.0,0.0]},\"solver\":\"mvasd\",\"max_population\":10}\n";
  const std::string too_large =
      "{\"id\":3,\"solver\":\"exact-multiclass\",\"stations\":"
      "[{\"name\":\"cpu\"},{\"name\":\"net\",\"kind\":\"delay\"}],"
      "\"classes\":["
      "{\"name\":\"browse\",\"population\":700,\"think\":1.0,"
      "\"demands\":[0.004,0.020]},"
      "{\"name\":\"search\",\"population\":700,\"think\":1.0,"
      "\"demands\":[0.006,0.015]},"
      "{\"name\":\"buy\",\"population\":700,\"think\":1.0,"
      "\"demands\":[0.002,0.030]}]}\n";
  const std::string valid_three =
      "{\"id\":4,\"think\":0.5,\"stations\":[{\"name\":\"web\","
      "\"servers\":2},{\"name\":\"app\",\"servers\":8},{\"name\":"
      "\"db\"}],\"demands\":{\"type\":\"constant\",\"values\":"
      "[0.004,0.02,0.015]},\"solver\":\"mvasd\",\"max_population\":80}\n";
  const auto responses =
      exchange(sock, {valid_two + degenerate + too_large + valid_three}, 4);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(server.metrics().batches, 1u);

  // The valid requests match a direct solve bit-for-bit.
  const std::pair<std::uint64_t, const std::string*> valid[] = {
      {1, &valid_two}, {4, &valid_three}};
  for (const auto& [id, line] : valid) {
    SCOPED_TRACE("id " + std::to_string(id));
    ASSERT_TRUE(responses.count(id));
    const Json& response = responses.at(id);
    ASSERT_TRUE(response.contains("throughput"));
    const core::ScenarioSpec spec = service::parse_request(*line).spec;
    const core::MvaResult direct =
        core::solve(spec.network, &spec.demands, spec.options);
    EXPECT_EQ(response.at("throughput").as_number(),
              direct.throughput.back());
    EXPECT_EQ(response.at("response_time").as_number(),
              direct.response_time.back());
  }
  // Each failing request carries its own id and its own message.
  const std::pair<std::uint64_t, const char*> failing[] = {
      {2, "zero cycle time"}, {3, "too large"}};
  for (const auto& [id, message] : failing) {
    SCOPED_TRACE("id " + std::to_string(id));
    ASSERT_TRUE(responses.count(id));
    const Json& response = responses.at(id);
    ASSERT_TRUE(response.contains("error"));
    EXPECT_NE(response.at("error").as_string().find(message),
              std::string::npos)
        << response.at("error").as_string();
  }
  server.stop();
}

TEST(SocketServer, HostileLinesGetErrorsAndServingContinues) {
  service::ServerOptions options;
  options.port = 0;
  options.max_batch = 4;
  options.batch_deadline = std::chrono::microseconds(500);
  service::Server server(options);
  server.start();

  Socket sock = connect_tcp(server.port());
  std::string bomb = "{\"id\":1,\"x\":";
  for (int i = 0; i < 200; ++i) bomb += "[";
  std::vector<std::string> lines = {
      "{\"id\":1\n",                 // truncated
      bomb + "\n",                   // nesting bomb
      "{\"id\":3,\"x\":1e999999}\n", // overflow number
      "{\"id\":4,\"x\":NaN}\n",      // invalid literal
      std::string("{\"id\":5,\"label\":\"\xff\x80\"}\n"),  // invalid UTF-8
  };
  const auto errors = exchange(sock, lines, lines.size());
  ASSERT_EQ(errors.size(), lines.size());
  for (const auto& [id, response] : errors) {
    EXPECT_TRUE(response.contains("error"));
  }
  // The server is still healthy: a good request round-trips.
  const auto good = exchange(sock, {spec_request(42, 1.0, 100)}, 1);
  ASSERT_TRUE(good.count(42));
  EXPECT_TRUE(good.at(42).contains("throughput"));
  server.stop();
}

TEST(SocketServer, OverloadShedsFastAndKeepsServing) {
  service::ServerOptions options;
  options.port = 0;
  options.max_batch = 1;   // solve one at a time...
  options.batch_deadline = std::chrono::microseconds(100);
  options.queue_capacity = 1;  // ...with room for exactly one waiter
  options.engine.threads = 1;
  service::Server server(options);
  server.start();

  Socket sock = connect_tcp(server.port());
  // Pipeline a burst of slow, distinct solves without reading: with a
  // queue of one, most of the burst must be shed as "overloaded".
  constexpr std::uint64_t kBurst = 24;
  std::vector<std::string> lines;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    lines.push_back(
        spec_request(i, 1.0 + 0.01 * static_cast<double>(i), 12000));
  }
  const auto responses = exchange(sock, lines, kBurst);
  ASSERT_EQ(responses.size(), kBurst);
  std::size_t served = 0, shed = 0;
  for (const auto& [id, response] : responses) {
    if (response.contains("error")) {
      EXPECT_EQ(response.at("error").as_string(), "overloaded");
      ++shed;
    } else {
      ++served;
    }
  }
  EXPECT_GE(shed, 1u) << "2x-capacity burst must shed";
  EXPECT_GE(served, 1u);
  EXPECT_EQ(server.metrics().rejected_overloaded, shed);

  // Shedding is not a failure mode: the connection still serves.
  const auto after = exchange(sock, {spec_request(99, 5.0, 50)}, 1);
  ASSERT_TRUE(after.count(99));
  EXPECT_TRUE(after.at(99).contains("throughput"));
  server.stop();
}

TEST(SocketServer, PerConnectionInflightCapIsEnforced) {
  service::ServerOptions options;
  options.port = 0;
  options.max_batch = 1;
  options.batch_deadline = std::chrono::microseconds(100);
  options.queue_capacity = 64;       // queue has room...
  options.max_inflight_per_conn = 2; // ...but each connection does not
  options.engine.threads = 1;
  service::Server server(options);
  server.start();

  Socket sock = connect_tcp(server.port());
  constexpr std::uint64_t kBurst = 12;
  std::vector<std::string> lines;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    lines.push_back(
        spec_request(i, 2.0 + 0.01 * static_cast<double>(i), 12000));
  }
  const auto responses = exchange(sock, lines, kBurst);
  ASSERT_EQ(responses.size(), kBurst);
  std::size_t shed = 0;
  for (const auto& [id, response] : responses) {
    if (response.contains("error")) ++shed;
  }
  EXPECT_GE(shed, 1u);
  EXPECT_GE(server.metrics().rejected_inflight, 1u);
  server.stop();
}

TEST(SocketServer, ClientDisconnectMidResponseDropsConnectionNotServer) {
  service::ServerOptions options;
  options.port = 0;
  options.max_batch = 8;
  options.batch_deadline = std::chrono::microseconds(500);
  service::Server server(options);
  server.start();

  // A rude client floods series requests (responses of tens of kilobytes,
  // far past the socket buffer) and vanishes without reading a byte, so
  // batcher threads hit the dead socket mid-flush.  The failure must cost
  // that one connection — never a SIGPIPE to the process — and responses
  // for live connections in the same batches must keep flowing.
  {
    Socket rude = connect_tcp(server.port());
    ASSERT_TRUE(rude.valid());
    for (std::uint64_t i = 0; i < 48; ++i) {
      std::string line =
          spec_request(i, 1.0 + 0.01 * static_cast<double>(i), 2000);
      line.insert(line.size() - 2, ",\"series\":true");
      ASSERT_TRUE(rude.send_all(line));
    }
    rude.close();  // gone before the first response can flush
  }

  // A polite client connected the whole time is served normally.
  Socket sock = connect_tcp(server.port());
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t id = 100 + static_cast<std::uint64_t>(round);
    const auto good = exchange(
        sock, {spec_request(id, 5.0 + 0.1 * round, 200)}, 1);
    ASSERT_TRUE(good.count(id)) << round;
    EXPECT_TRUE(good.at(id).contains("throughput")) << round;
  }
  server.stop();
}

TEST(SocketServer, StopAnswersAllAdmittedWork) {
  service::ServerOptions options;
  options.port = 0;
  options.max_batch = 4;
  options.batch_deadline = std::chrono::microseconds(200);
  service::Server server(options);
  server.start();
  Socket sock = connect_tcp(server.port());
  std::vector<std::string> lines;
  for (std::uint64_t i = 0; i < 6; ++i) {
    lines.push_back(spec_request(i, 3.0 + 0.01 * static_cast<double>(i), 800));
  }
  for (const auto& line : lines) ASSERT_TRUE(sock.send_all(line));
  // Stop with requests still in the pipeline: every admitted request
  // must still be answered before the connection closes.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread stopper([&server] { server.stop(); });
  LineReader reader(sock);
  std::string line;
  std::size_t answered = 0;
  while (reader.next_line(line)) {
    if (line.find("\"throughput\"") != std::string::npos ||
        line.find("\"error\"") != std::string::npos) {
      ++answered;
    }
  }
  stopper.join();
  EXPECT_GE(answered, 1u);
}

}  // namespace
