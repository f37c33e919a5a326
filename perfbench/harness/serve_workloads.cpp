// serve-cold-whatif and serve-hot-zipf: a closed loop against the real
// mtperf_serve binary, verified after the timed phase, plus (with --trace)
// an in-process replay of the same inputs through the serving layers.
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>

#include "core/solve.hpp"
#include "core/sweep.hpp"
#include "corpus.hpp"
#include "measure.hpp"
#include "ops/bounds.hpp"
#include "serve_client.hpp"
#include "service/engine.hpp"
#include "service/fingerprint.hpp"
#include "service/request.hpp"
#include "service/workmodel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mtperf::service::Json;
namespace core = mtperf::core;
namespace service = mtperf::service;

// Load shape shared by both serve workloads: one generator thread plus a
// two-worker solver pool stay within a 4-vCPU box.  (One worker shrugs off
// a lost vCPU but puts cold p50 on the boundary between requests that wait
// one batch and those that wait two; its median swung 54-79 ms by seed.)
constexpr std::size_t kServerThreads = 2;
constexpr std::size_t kBatchSize = 48;
constexpr long kBatchDeadlineUs = 2000;
constexpr std::size_t kQueueCapacity = 1024;
constexpr std::size_t kMaxInflight = 256;
constexpr std::size_t kCacheCapacity = 512;
constexpr std::size_t kShards = 8;
constexpr std::size_t kConnections = 2;

/// One serve workload: its inputs and its load shape.
struct ServeWorkload {
  std::size_t window = 0;          ///< requests in flight per connection
  std::uint64_t priming_ops = 0;   ///< ids 0..priming_ops-1 prime the server
  std::uint64_t replay_ops = 0;    ///< traced replay size
  /// Append the request line of op `id`.
  std::function<void(std::uint64_t id, std::string& out)> render;
  /// Ops with equal keys send the same spec (verification memo key).
  std::function<std::uint64_t(std::uint64_t id)> spec_key;
  /// Whether op `id` is checked bit-for-bit against a direct solve, and
  /// how many distinct specs at most.
  std::function<bool(std::uint64_t id)> reference_checked;
  std::uint64_t max_references = 0;
};

std::vector<std::string> server_args() {
  return {"--port",           "0",
          "--threads",        std::to_string(kServerThreads),
          "--batch-size",     std::to_string(kBatchSize),
          "--batch-deadline-us", std::to_string(kBatchDeadlineUs),
          "--queue-capacity", std::to_string(kQueueCapacity),
          "--max-inflight",   std::to_string(kMaxInflight),
          "--cache-capacity", std::to_string(kCacheCapacity),
          "--shards",         std::to_string(kShards)};
}

// --- verification ----------------------------------------------------------

/// ops::throughput_upper_bound for one class: per-server demands V*D/C of
/// the queueing stations, delay stations folded into the think time.
double class_bound(const core::ClosedNetwork& network,
                   const std::vector<double>& demands, double think,
                   double population) {
  std::vector<double> per_server;
  for (std::size_t k = 0; k < network.size(); ++k) {
    const core::Station& st = network.station(k);
    const double d = st.visits * demands[k];
    if (st.kind == core::StationKind::kDelay) {
      think += d;
    } else {
      per_server.push_back(d / static_cast<double>(st.servers));
    }
  }
  return mtperf::ops::throughput_upper_bound({per_server, think}, population);
}

/// Upper bound on the spec's top-population throughput; for a class mix,
/// the sum of the per-class bounds.  MVASD moves a varying demand level by
/// level, so a saturated station's throughput at N trails 1/D(N) by one
/// level's demand change: each station's demand is the smaller of D(N-1)
/// and D(N).
double throughput_bound(const core::ScenarioSpec& spec) {
  if (!spec.options.classes.empty()) {
    double total = 0.0;
    for (const core::CustomerClass& c : spec.options.classes) {
      const std::vector<double> demands =
          c.demand_model ? c.demand_model->all_at(c.population) : c.demands;
      total += class_bound(spec.network, demands, c.think_time, c.population);
    }
    return total;
  }
  const double n = spec.options.max_population;
  std::vector<double> demands = spec.demands.all_at(n);
  if (n > 1) {
    const std::vector<double> previous = spec.demands.all_at(n - 1);
    for (std::size_t k = 0; k < demands.size(); ++k) {
      demands[k] = std::min(demands[k], previous[k]);
    }
  }
  return class_bound(spec.network, demands, spec.network.think_time(), n);
}

/// The population a response reports at its top level: the axis depth, or
/// the whole mix for mom-multiclass's single level.
unsigned reported_depth(const core::ScenarioSpec& spec) {
  if (spec.options.solver != core::SolverKind::kMomMulticlass) {
    return spec.options.max_population;
  }
  unsigned total = 0;
  for (const core::CustomerClass& c : spec.options.classes) {
    total += c.population;
  }
  return total;
}

struct Expectation {
  std::string kind;  ///< solver kind name
  unsigned depth = 0;
  double bound = 0.0;
  bool has_reference = false;
  double reference = 0.0;  ///< direct core::solve top-population throughput
};

/// Relative slack on the throughput bound, for two measured overshoots of
/// correct solves: the exact multi-server recursion passes a saturated
/// single-server bottleneck's 1/D by up to 1.3e-5 (cancellation in the
/// marginal probabilities at deep saturation), and MVASD's fleet responses
/// pass the one-level-lagged bound by up to 6e-7.  Garbage output misses
/// by far more; bit-identity against a direct solve is the strict check.
constexpr double kBoundSlack = 1e-4;

/// Why a response failed verification; empty when it passed.
const char* failure(const Response& r, const Expectation& e) {
  if (!r.received) return "missing";
  if (r.error) return "error";
  if (r.max_population != e.depth) return "depth";
  if (!(r.throughput > 0.0) || r.throughput > e.bound * (1.0 + kBoundSlack)) {
    return "bound";
  }
  if (e.has_reference && r.throughput != e.reference) return "reference";
  return "";
}

struct Verification {
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t reference_checked = 0;
  std::map<std::string, std::uint64_t> failures;  ///< "kind/reason" -> count
  Json::Array examples;  ///< the first few failures, for diagnosis
};

/// Check every response of a phase whose first op is `first`.
Verification verify(const ServeWorkload& w, std::uint64_t first,
                    const std::vector<Response>& responses,
                    std::uint64_t max_references) {
  Verification v;
  std::map<std::uint64_t, Expectation> memo;
  std::string line;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const std::uint64_t id = first + i;
    const std::uint64_t key = w.spec_key(id);
    auto it = memo.find(key);
    if (it == memo.end()) {
      line.clear();
      w.render(id, line);
      const service::ParsedRequest req = service::parse_request(line);
      Expectation e;
      e.kind = core::solver_kind_name(req.spec.options.solver);
      e.depth = reported_depth(req.spec);
      e.bound = throughput_bound(req.spec);
      if (w.reference_checked(id) && v.reference_checked < max_references) {
        const core::MvaResult ref = core::solve(
            req.spec.network, &req.spec.demands, req.spec.options);
        e.has_reference = true;
        e.reference = ref.throughput.back();
        ++v.reference_checked;
      }
      it = memo.emplace(key, e).first;
    }
    const char* why = failure(responses[i], it->second);
    if (*why == '\0') {
      ++v.ok;
    } else {
      ++v.failed;
      ++v.failures[it->second.kind + "/" + why];
      if (v.examples.size() < 5) {
        Json::Object ex;
        ex["id"] = static_cast<unsigned long long>(id);
        ex["reason"] = std::string(why);
        ex["throughput"] = responses[i].throughput;
        ex["bound"] = it->second.bound;
        ex["reference"] = it->second.reference;
        v.examples.emplace_back(std::move(ex));
      }
    }
  }
  return v;
}

Json::Object verification_json(const Verification& v) {
  Json::Object o;
  o["ok"] = static_cast<unsigned long long>(v.ok);
  o["failed"] = static_cast<unsigned long long>(v.failed);
  o["reference_checked"] = static_cast<unsigned long long>(v.reference_checked);
  Json::Object failures;
  for (const auto& [what, n] : v.failures) {
    failures[what] = static_cast<unsigned long long>(n);
  }
  o["failures"] = Json(std::move(failures));
  o["examples"] = Json(v.examples);
  return o;
}

// --- server counters -------------------------------------------------------

double counter(const Json& metrics, const std::string& a,
               const std::string& b = "", const std::string& c = "") {
  const Json* j = &metrics.at(a);
  if (!b.empty()) j = &j->at(b);
  if (!c.empty()) j = &j->at(c);
  return j->as_number();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer server and engine counters over the timed phase.
void server_layers(RunResult& run, const Json& before, const Json& after,
                   const std::vector<Response>& responses,
                   const PhaseStats& stats) {
  const auto delta = [&](const std::string& a, const std::string& b,
                         const std::string& c = "") {
    return counter(after, a, b, c) - counter(before, a, b, c);
  };
  set_layer(run, "service.batch_size_mean",
            ratio(delta("server", "accepted"), delta("server", "batches")));
  set_layer(run, "service.flush_by_size_ratio",
            ratio(delta("server", "flush_by_size"), delta("server", "batches")));
  set_layer(run, "service.queue_peak", counter(after, "server", "queue_peak"));
  set_layer(run, "service.rejected",
            delta("server", "rejected_overloaded") +
                delta("server", "rejected_inflight"));
  set_layer(run, "service.evictions_per_op",
            ratio(delta("metrics", "evictions"), double(stats.sent)));
  set_layer(run, "service.lanes_per_block",
            ratio(delta("metrics", "batch", "lanes"),
                  delta("metrics", "batch", "blocks")));
  set_layer(run, "service.scalar_fallback_ratio",
            ratio(delta("metrics", "batch", "scalar_fallbacks"),
                  delta("metrics", "misses")));
  const double fes_hits = delta("metrics", "fes_profile_hits");
  set_layer(run, "service.fes_profile_hit_ratio",
            ratio(fes_hits, fes_hits + delta("metrics", "fes_profile_misses")));
  // Hit kinds from the responses themselves: the engine's own counters
  // also count the FES sub-solves that hierarchical specs route through it.
  double hits = 0, prefix = 0, coalesced = 0;
  for (const Response& r : responses) {
    hits += r.cache_hit;
    prefix += r.prefix_hit;
    coalesced += r.coalesced;
  }
  const double n = static_cast<double>(responses.size());
  set_layer(run, "service.hit_ratio", ratio(hits, n));
  set_layer(run, "service.prefix_hit_ratio", ratio(prefix, n));
  set_layer(run, "service.coalesced_ratio", ratio(coalesced, n));
  set_layer(run, "service.bytes_in", ratio(double(stats.bytes_sent), n));
  set_layer(run, "service.bytes_out", ratio(double(stats.bytes_received), n));
}

// --- traced replay ---------------------------------------------------------

std::size_t result_bytes(const core::MvaResult& r) {
  const auto bytes = [](const auto& v) {
    return v.size() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return bytes(r.population) + bytes(r.throughput) + bytes(r.response_time) +
         bytes(r.cycle_time) + bytes(r.station_queue) +
         bytes(r.station_utilization) + bytes(r.station_residence) +
         bytes(r.class_population) + bytes(r.class_throughput) +
         bytes(r.class_response_time) + bytes(r.class_station_queue);
}

struct ReplayTotals {
  double wall_s = 0.0;
  std::map<std::string, double> kernel_ms;  ///< by solver kind
  std::map<std::string, double> misses;
  double result_bytes = 0.0;
  double result_count = 0.0;
  double workmodel_stations = 0.0;
  double workmodels = 0.0;
};

/// Replay ops [first, first + count) through the serving layers in
/// batches of the server's size, after priming a fresh engine with the
/// workload's priming ops.  The engine gets the server's cache settings
/// and a one-worker pool, so a batch's kernel time is serial and its
/// engine self time is the evaluate_batch span minus the kernel time.
ReplayTotals replay(const ServeWorkload& w, std::uint64_t first,
                    std::uint64_t count, SpanRecorder* rec) {
  service::EngineOptions eo;
  eo.cache_capacity = kCacheCapacity;
  eo.shards = kShards;
  eo.threads = 1;
  service::Engine engine(eo);
  std::string line, out;
  const auto run_batch = [&](std::uint64_t from, std::uint64_t n,
                             SpanRecorder* r, ReplayTotals* totals) {
    std::vector<core::ScenarioSpec> specs;
    std::vector<bool> series;
    std::vector<Json> ids;
    for (std::uint64_t id = from; id < from + n; ++id) {
      line.clear();
      w.render(id, line);
      Scope op(r, "serve.request", id);
      service::ParsedRequest req;
      {
        Scope s(r, "service.parse_request", id);
        req = service::parse_request(line);
      }
      Json json;
      {
        Scope s(r, "service.json_parse", id);
        json = Json::parse(line);
      }
      if (json.contains("cmd")) {
        Scope s(r, "graph.compile", id);
        const core::ScenarioSpec compiled = service::workmodel_scenario(json);
        if (totals) {
          totals->workmodel_stations += static_cast<double>(compiled.network.size());
          totals->workmodels += 1;
        }
      }
      {
        Scope s(r, "service.fingerprint", id);
        volatile std::uint64_t sink = service::fingerprint(req.spec).lo;
        (void)sink;
      }
      specs.push_back(std::move(req.spec));
      series.push_back(req.series);
      ids.push_back(std::move(req.id));
    }
    std::vector<service::Evaluation> evals;
    {
      Scope s(r, "service.evaluate_batch", from);
      evals = engine.evaluate_batch(specs);
    }
    for (std::size_t i = 0; i < evals.size(); ++i) {
      Scope s(r, "service.append_evaluation", from + i);
      out.clear();
      service::append_evaluation(out, evals[i], series[i], ids[i]);
    }
    if (!totals) return;
    for (std::size_t i = 0; i < evals.size(); ++i) {
      if (evals[i].cache_hit) continue;
      const std::string kind = core::solver_kind_name(specs[i].options.solver);
      totals->kernel_ms[kind] += evals[i].solve_ms;
      totals->misses[kind] += 1;
      totals->result_bytes += static_cast<double>(result_bytes(*evals[i].result));
      totals->result_count += 1;
    }
  };
  for (std::uint64_t id = 0; id < w.priming_ops; id += kBatchSize) {
    run_batch(id, std::min<std::uint64_t>(kBatchSize, w.priming_ops - id),
              nullptr, nullptr);
  }
  ReplayTotals totals;
  const auto t0 = Clock::now();
  for (std::uint64_t id = first; id < first + count; id += kBatchSize) {
    run_batch(id, std::min<std::uint64_t>(kBatchSize, first + count - id), rec,
              &totals);
  }
  totals.wall_s = seconds_between(t0, Clock::now());
  return totals;
}

void replay_layers(RunResult& run, const ServeWorkload& w, std::uint64_t first,
                   const Options& options) {
  // The first replay warms the allocator and caches; it is discarded so
  // the untraced-vs-traced comparison is not a cold-vs-warm one.
  replay(w, first, w.replay_ops, nullptr);
  const ReplayTotals plain = replay(w, first, w.replay_ops, nullptr);
  SpanRecorder rec;
  const ReplayTotals traced = replay(w, first, w.replay_ops, &rec);
  rec.write_jsonl(options.out_dir + "/spans-" + options.workload + "-seed" +
                  std::to_string(options.seed) + ".jsonl");
  std::map<std::string, double> t = span_totals(rec.spans());
  const double ops = static_cast<double>(w.replay_ops);
  double kernel_us = 0.0;
  for (const auto& [kind, ms] : traced.kernel_ms) {
    kernel_us += ms * 1e3;
    set_layer(run, "core.kernel_us." + kind, ms * 1e3 / traced.misses.at(kind));
  }
  set_layer(run, "service.parse_us", t["service.parse_request"] / ops);
  set_layer(run, "service.json_parse_us", t["service.json_parse"] / ops);
  set_layer(run, "service.serialize_us", t["service.append_evaluation"] / ops);
  set_layer(run, "service.fingerprint_us", t["service.fingerprint"] / ops);
  set_layer(run, "service.engine_self_us",
            (t["service.evaluate_batch"] - kernel_us) / ops);
  set_layer(run, "graph.compile_us",
            ratio(t["graph.compile"], traced.workmodels));
  set_layer(run, "graph.stations_per_spec",
            ratio(traced.workmodel_stations, traced.workmodels));
  set_layer(run, "core.result_bytes",
            ratio(traced.result_bytes, traced.result_count));
  set_layer(run, "trace.overhead_pct",
            100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s);

  // Shares of the traced replay's time, by layer.
  const double total = traced.wall_s * 1e6;
  Json::Object shares;
  shares["kernel"] = kernel_us / total;
  shares["engine_self"] = (t["service.evaluate_batch"] - kernel_us) / total;
  shares["codec"] = (t["service.parse_request"] + t["service.json_parse"] +
                     t["service.append_evaluation"]) /
                    total;
  shares["graph_compile"] = t["graph.compile"] / total;
  shares["fingerprint"] = t["service.fingerprint"] / total;
  Json::Object replay_info;
  replay_info["ops"] = static_cast<unsigned long long>(w.replay_ops);
  replay_info["untraced_s"] = plain.wall_s;
  replay_info["traced_s"] = traced.wall_s;
  replay_info["spans"] = static_cast<unsigned long long>(rec.spans().size());
  replay_info["shares"] = Json(std::move(shares));
  run.details["replay"] = Json(std::move(replay_info));
}

// --- the run ---------------------------------------------------------------

RunResult run_serve(const Options& options,
                    const std::function<ServeWorkload()>& make_workload) {
  RunResult run;
  // Set-up: corpus, server start, connections, priming.  Repeated so
  // setup_s is a median; the last server stays up for the timed phase.
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<ControlConnection> control;
  std::unique_ptr<ClosedLoopClient> client;
  ServeWorkload w;
  std::vector<Response> responses;
  PhaseStats priming;
  Verification primed;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    if (server) {
      client.reset();
      server->shutdown(control->fd());
      control.reset();
      server.reset();
    }
    const auto t0 = Clock::now();
    w = make_workload();
    server = std::make_unique<ServerProcess>(options.server_binary,
                                             server_args());
    control = std::make_unique<ControlConnection>(server->port());
    client = std::make_unique<ClosedLoopClient>(server->port(), kConnections,
                                                w.window);
    priming = client->run(0, w.priming_ops, 0.0, w.render, responses);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    primed = verify(w, 0, responses, 0);
  }

  // Timed phase.
  const Json before = control->call("{\"cmd\":\"metrics\"}\n");
  const pid_t pid = server->pid();
  double cpu0 = 0.0;
  MachineTicks machine0;
  const std::uint64_t first = w.priming_ops;
  const PhaseStats timed =
      client->run(first, 0, options.seconds, w.render, responses, [&] {
        machine0 = machine_ticks();
        cpu0 = process_cpu_seconds(pid);
      });
  const double server_cpu_s = process_cpu_seconds(pid) - cpu0;
  run.details["machine_steal_pct"] = steal_pct(machine0, machine_ticks());
  const double peak_rss_mb = process_peak_rss_mb(pid);
  const Json after = control->call("{\"cmd\":\"metrics\"}\n");
  client.reset();
  const bool clean_exit = server->shutdown(control->fd());
  control.reset();
  server.reset();

  // Verification, outside every timing.
  const Verification v = verify(w, first, responses, w.max_references);
  run.attempted = timed.sent;
  run.failed = v.failed;
  run.correct = v.failed == 0 && primed.failed == 0 && clean_exit;

  std::vector<double> latencies;
  latencies.reserve(responses.size());
  for (const Response& r : responses) {
    if (r.received && !r.error) latencies.push_back(r.latency_ms());
  }
  add_latency_metrics(run, std::move(latencies), v.ok, timed.wall_s);
  run.end_to_end.push_back(
      {"cpu_us_per_op", server_cpu_s * 1e6 / double(timed.sent), "us"});
  run.end_to_end.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  run.end_to_end.push_back(
      {"ok_ratio", double(v.ok) / double(timed.sent), "1"});
  run.end_to_end.push_back({"setup_s", median(setup_s), "s"});

  // Completions per second of the timed phase, to see drift within a run.
  std::vector<double> per_second(static_cast<std::size_t>(timed.wall_s) + 1);
  for (const Response& r : responses) {
    if (r.received) per_second[static_cast<std::size_t>(r.done_s)] += 1;
  }
  Json::Array timeline;
  for (double n : per_second) timeline.emplace_back(n);
  run.details["completions_per_second"] = Json(std::move(timeline));

  Json::Object phases;
  phases["priming"] = phase_counts(priming.sent, primed.ok, primed.failed,
                                   priming.generator_cpu_s);
  phases["timed"] =
      phase_counts(timed.sent, v.ok, v.failed, timed.generator_cpu_s);
  run.details["phases"] = Json(std::move(phases));
  run.details["verification"] = Json(verification_json(v));
  run.details["server_exit_clean"] = clean_exit;
  Json::Array setups;
  for (double s : setup_s) setups.emplace_back(s);
  run.details["setup_runs_s"] = Json(std::move(setups));
  Json::Object shape;
  shape["server_threads"] = static_cast<unsigned long long>(kServerThreads);
  shape["batch_size"] = static_cast<unsigned long long>(kBatchSize);
  shape["batch_deadline_us"] = static_cast<long long>(kBatchDeadlineUs);
  shape["connections"] = static_cast<unsigned long long>(kConnections);
  shape["window_per_connection"] = static_cast<unsigned long long>(w.window);
  shape["cache_capacity"] = static_cast<unsigned long long>(kCacheCapacity);
  run.details["load_shape"] = Json(std::move(shape));

  if (options.trace) {
    server_layers(run, before, after, responses, timed);
    replay_layers(run, w, first, options);
  }
  return run;
}

}  // namespace

RunResult run_serve_cold(const Options& options) {
  const std::uint64_t seed = options.seed;
  return run_serve(options, [seed] {
    auto corpus = std::make_shared<const ColdCorpus>(seed);
    ServeWorkload w;
    w.window = 48;
    w.priming_ops = ColdCorpus::kPriming;
    w.replay_ops = 768;
    w.render = [corpus](std::uint64_t id, std::string& out) {
      corpus->render(id, id, out);
    };
    w.spec_key = [](std::uint64_t id) { return id; };
    w.reference_checked = [seed](std::uint64_t id) {
      return mix(seed, 40, id) % 32 == 0;
    };
    w.max_references = 96;
    return w;
  });
}

RunResult run_serve_hot(const Options& options) {
  const std::uint64_t seed = options.seed;
  return run_serve(options, [seed] {
    auto corpus = std::make_shared<const HotCorpus>(seed);
    ServeWorkload w;
    w.window = 128;
    w.priming_ops = HotCorpus::kKeys;
    w.replay_ops = 24 * 1024;
    // Priming ids are the keys themselves, once each at their deepest
    // depth; timed ids draw Zipf keys.
    const auto op_of = [corpus](std::uint64_t id) {
      if (id < HotCorpus::kKeys) {
        return HotCorpus::Op{static_cast<std::uint32_t>(id),
                             HotCorpus::kDeepest, false};
      }
      return corpus->op(id);
    };
    w.render = [corpus, op_of](std::uint64_t id, std::string& out) {
      corpus->render(op_of(id), id, out);
    };
    w.spec_key = [op_of](std::uint64_t id) {
      const HotCorpus::Op op = op_of(id);
      return std::uint64_t{op.key} * 4096 + op.depth;
    };
    w.reference_checked = [](std::uint64_t) { return true; };
    w.max_references = HotCorpus::kKeys * std::size(HotCorpus::kDepths);
    return w;
  });
}

}  // namespace perfbench
