#include "service/request.hpp"

#include <cmath>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/solve.hpp"
#include "interp/cubic_spline.hpp"
#include "interp/piecewise_cubic.hpp"
#include "service/workmodel.hpp"

namespace mtperf::service {

namespace {

core::ClosedNetwork parse_network(const Json& request) {
  std::vector<core::Station> stations;
  for (const Json& js : request.at("stations").as_array()) {
    core::Station st;
    st.name = js.at("name").as_string();
    st.servers = request_count(js.number_or("servers", 1.0), 1, 1'000'000,
                               "station servers");
    st.visits = js.number_or("visits", 1.0);
    MTPERF_REQUIRE(std::isfinite(st.visits) && st.visits >= 0.0,
                   "station visits must be finite and non-negative");
    const std::string kind = js.string_or("kind", "queueing");
    MTPERF_REQUIRE(kind == "queueing" || kind == "delay",
                   "station kind must be 'queueing' or 'delay'");
    st.kind = kind == "delay" ? core::StationKind::kDelay
                              : core::StationKind::kQueueing;
    stations.push_back(std::move(st));
  }
  MTPERF_REQUIRE(!stations.empty(), "request needs at least one station");
  const double think = request.number_or("think", 0.0);
  MTPERF_REQUIRE(std::isfinite(think) && think >= 0.0,
                 "think time must be finite and non-negative");
  return core::ClosedNetwork(std::move(stations), think);
}

core::DemandModel parse_demands(const Json& spec, std::size_t station_count) {
  const std::string type = spec.string_or("type", "constant");
  if (type == "constant") {
    std::vector<double> values;
    for (const Json& v : spec.at("values").as_array()) {
      const double d = v.as_number();
      MTPERF_REQUIRE(std::isfinite(d) && d >= 0.0,
                     "demand values must be finite and non-negative");
      values.push_back(d);
    }
    MTPERF_REQUIRE(values.size() == station_count,
                   "demands.values must list one demand per station");
    return core::DemandModel::constant(std::move(values));
  }
  MTPERF_REQUIRE(type == "spline", "demands.type must be 'constant' or 'spline'");
  const std::string axis_name = spec.string_or("axis", "concurrency");
  MTPERF_REQUIRE(axis_name == "concurrency" || axis_name == "throughput",
                 "demands.axis must be 'concurrency' or 'throughput'");
  const auto axis = axis_name == "throughput"
                        ? core::DemandModel::Axis::kThroughput
                        : core::DemandModel::Axis::kConcurrency;
  std::vector<double> xs;
  for (const Json& v : spec.at("x").as_array()) xs.push_back(v.as_number());
  const auto& per_station = spec.at("y").as_array();
  MTPERF_REQUIRE(per_station.size() == station_count,
                 "demands.y must hold one knot array per station");
  std::vector<std::shared_ptr<const interp::Interpolator1D>> splines;
  splines.reserve(per_station.size());
  for (const Json& ys_json : per_station) {
    std::vector<double> ys;
    for (const Json& v : ys_json.as_array()) ys.push_back(v.as_number());
    MTPERF_REQUIRE(ys.size() == xs.size(),
                   "each demands.y row needs one value per x knot");
    splines.push_back(std::make_shared<interp::PiecewiseCubic>(
        interp::build_cubic_spline(interp::SampleSet(xs, std::move(ys)))));
  }
  return core::DemandModel::interpolated(std::move(splines), axis);
}

/// Strip the library's "mtperf: " prefix so a message rethrown inside a
/// larger one is not double-prefixed.
std::string without_prefix(const char* what) {
  std::string msg(what);
  const std::string prefix = Error::prefix();
  if (msg.rfind(prefix, 0) == 0) msg.erase(0, prefix.size());
  return msg;
}

std::vector<core::CustomerClass> parse_classes(const Json& list,
                                               std::size_t station_count) {
  std::vector<core::CustomerClass> classes;
  for (const Json& jc : list.as_array()) {
    core::CustomerClass cls;
    cls.name = jc.at("name").as_string();
    MTPERF_REQUIRE(!cls.name.empty(), "customer class names must be non-empty");
    cls.population = request_count(jc.at("population").as_number(), 0,
                                   kMaxRequestPopulation,
                                   "class '" + cls.name + "' population");
    cls.think_time = jc.number_or("think", 0.0);
    MTPERF_REQUIRE(
        std::isfinite(cls.think_time) && cls.think_time >= 0.0,
        "class '" + cls.name + "' think time must be finite and non-negative");
    const Json& demands = jc.at("demands");
    if (demands.is_array()) {
      // Constant shorthand: a bare array of one demand per station.
      std::vector<double> values;
      for (const Json& v : demands.as_array()) {
        const double d = v.as_number();
        MTPERF_REQUIRE(
            std::isfinite(d) && d >= 0.0,
            "class '" + cls.name +
                "' demand values must be finite and non-negative");
        values.push_back(d);
      }
      MTPERF_REQUIRE(
          values.size() == station_count,
          "class '" + cls.name + "' demands must list one value per station");
      cls.demands = std::move(values);
    } else {
      // Same constant/spline schema the top-level "demands" takes; spline
      // classes become per-class concurrency-varying models.
      try {
        cls.demand_model = std::make_shared<const core::DemandModel>(
            parse_demands(demands, station_count));
      } catch (const Error& e) {
        throw invalid_argument_error("class '" + cls.name + "': " +
                                     without_prefix(e.what()));
      }
    }
    classes.push_back(std::move(cls));
  }
  MTPERF_REQUIRE(!classes.empty(), "'classes' needs at least one class");
  return classes;
}

core::ScenarioSpec parse_scenario(const Json& request) {
  core::ClosedNetwork network = parse_network(request);
  core::SolveOptions options;
  if (request.contains("classes")) {
    MTPERF_REQUIRE(
        !request.contains("demands"),
        "a request carries either 'demands' or 'classes', not both");
    MTPERF_REQUIRE(!request.contains("max_population"),
                   "multiclass requests derive max_population from the class "
                   "mix; omit it");
    options.solver =
        core::parse_solver_kind(request.string_or("solver", "mom-multiclass"));
    MTPERF_REQUIRE(
        core::is_multiclass(options.solver),
        std::string("'classes' requires a multiclass solver kind; '") +
            core::solver_kind_name(options.solver) + "' is single-class");
    options.classes = parse_classes(request.at("classes"), network.size());
    MTPERF_REQUIRE(
        core::multiclass_total_population(options.classes) <=
            kMaxRequestPopulation,
        "total class population out of range");
    core::finalize_multiclass_options(options);
    core::ScenarioSpec spec;
    spec.label = request.string_or("label", "");
    spec.network = std::move(network);
    spec.options = std::move(options);
    return spec;  // spec.demands stays the placeholder; multiclass ignores it
  }
  core::DemandModel demands =
      parse_demands(request.at("demands"), network.size());
  options.solver =
      core::parse_solver_kind(request.string_or("solver", "mvasd"));
  options.max_population =
      request_count(request.at("max_population").as_number(), 1,
                    kMaxRequestPopulation, "max_population");
  return core::ScenarioSpec{request.string_or("label", ""),
                            std::move(network), std::move(demands), options};
}

}  // namespace

unsigned request_count(double value, unsigned lo, unsigned hi,
                       const std::string& field) {
  MTPERF_REQUIRE(value >= lo && value <= hi, field + " out of range");
  MTPERF_REQUIRE(value == std::floor(value), field + " must be a whole number");
  return static_cast<unsigned>(value);
}

Json recover_request_id(std::string_view line) {
  try {
    const Json request = Json::parse(line);
    if (request.contains("id")) return request.at("id");
  } catch (...) {
  }
  return Json();
}

ParsedRequest parse_request(std::string_view line) {
  const Json request = Json::parse(line);
  ParsedRequest out;
  if (request.contains("id")) out.id = request.at("id");
  const std::string cmd = request.string_or("cmd", "");
  if (cmd == "metrics") {
    out.kind = RequestKind::kMetrics;
    return out;
  }
  if (cmd == "shutdown") {
    out.kind = RequestKind::kShutdown;
    return out;
  }
  MTPERF_REQUIRE(
      cmd.empty() || cmd == "workmodel",
      "unknown cmd (expected 'workmodel', 'metrics', or 'shutdown')");
  out.kind = RequestKind::kScenario;
  out.series = request.contains("series") && request.at("series").as_bool();
  out.spec = cmd.empty() ? parse_scenario(request) : workmodel_scenario(request);
  // A response carries X, R, Z and station utilizations, never queues or
  // residences, so served solves skip those rows (append_evaluation).
  out.spec.options.station_rows = core::StationRows::kUtilization;
  return out;
}

void append_evaluation(std::string& out, const Evaluation& evaluation,
                       bool series, const Json& id) {
  if (evaluation.error != nullptr) {
    try {
      std::rethrow_exception(evaluation.error);
    } catch (const std::exception& e) {
      append_error(out, e.what(), id);
    }
    return;
  }
  const core::MvaResult& r = *evaluation.result;
  const std::size_t top = r.levels() - 1;
  Json::Object line;
  line["label"] = evaluation.label;
  if (!id.is_null()) line["id"] = id;
  line["cache_hit"] = evaluation.cache_hit;
  line["prefix_hit"] = evaluation.prefix_hit;
  if (evaluation.coalesced) line["coalesced"] = true;
  line["solve_ms"] = evaluation.solve_ms;
  line["max_population"] = static_cast<unsigned long long>(r.population[top]);
  line["throughput"] = r.throughput[top];
  line["response_time"] = r.response_time[top];
  line["cycle_time"] = r.cycle_time[top];
  std::size_t busiest = 0;
  Json::Object utilization;
  for (std::size_t k = 0; k < r.stations(); ++k) {
    utilization[r.station_names[k]] = r.utilization(top, k);
    if (r.utilization(top, k) > r.utilization(top, busiest)) busiest = k;
  }
  line["bottleneck"] = r.station_names[busiest];
  line["utilization"] = std::move(utilization);
  if (r.classes() > 0) {
    Json::Object classes;
    for (std::size_t c = 0; c < r.classes(); ++c) {
      Json::Object jc;
      jc["population"] =
          static_cast<unsigned long long>(r.class_population[c]);
      jc["throughput"] = r.class_x(top, c);
      jc["response_time"] = r.class_r(top, c);
      classes[r.class_names[c]] = Json(std::move(jc));
    }
    line["classes"] = std::move(classes);
  }
  if (series) {
    Json::Array population, throughput, cycle;
    for (std::size_t i = 0; i < r.levels(); ++i) {
      population.emplace_back(static_cast<unsigned long long>(r.population[i]));
      throughput.emplace_back(r.throughput[i]);
      cycle.emplace_back(r.cycle_time[i]);
    }
    line["population"] = std::move(population);
    line["throughput_series"] = std::move(throughput);
    line["cycle_time_series"] = std::move(cycle);
  }
  Json(std::move(line)).dump_to(out);
  out.push_back('\n');
}

void append_error(std::string& out, const std::string& message,
                  const Json& id, std::size_t line_number) {
  Json::Object line;
  if (line_number != 0) {
    line["line"] = static_cast<unsigned long long>(line_number);
  }
  if (!id.is_null()) line["id"] = id;
  line["error"] = message;
  Json(std::move(line)).dump_to(out);
  out.push_back('\n');
}

void append_metrics(std::string& out, const EngineMetrics& m,
                    const Json* server, const Json& id) {
  Json::Object latency;
  latency["p50"] = m.solve_ms_p50;
  latency["p90"] = m.solve_ms_p90;
  latency["p99"] = m.solve_ms_p99;
  latency["max"] = m.solve_ms_max;
  Json::Object batch;
  batch["blocks"] = static_cast<unsigned long long>(m.batch_blocks);
  batch["lanes"] = static_cast<unsigned long long>(m.batch_lanes);
  batch["scalar_fallbacks"] =
      static_cast<unsigned long long>(m.batch_scalar_fallbacks);
  batch["occupancy_mean"] = m.batch_occupancy_mean;
  Json::Array hist;
  for (std::size_t l = 1; l < m.batch_occupancy.size(); ++l) {
    hist.emplace_back(static_cast<unsigned long long>(m.batch_occupancy[l]));
  }
  batch["occupancy_hist"] = std::move(hist);
  Json::Object inner;
  inner["requests"] = static_cast<unsigned long long>(m.requests);
  inner["cache_hits"] = static_cast<unsigned long long>(m.hits);
  inner["prefix_hits"] = static_cast<unsigned long long>(m.prefix_hits);
  inner["coalesced"] = static_cast<unsigned long long>(m.coalesced);
  inner["misses"] = static_cast<unsigned long long>(m.misses);
  inner["evictions"] = static_cast<unsigned long long>(m.evictions);
  inner["entries"] = static_cast<unsigned long long>(m.entries);
  inner["cache_bytes"] = static_cast<unsigned long long>(m.cache_bytes);
  inner["queue_depth"] = static_cast<unsigned long long>(m.queue_depth);
  inner["hit_rate"] = m.hit_rate;
  inner["fes_profile_hits"] =
      static_cast<unsigned long long>(m.fes_profile_hits);
  inner["fes_profile_misses"] =
      static_cast<unsigned long long>(m.fes_profile_misses);
  inner["solve_ms"] = Json(std::move(latency));
  inner["batch"] = Json(std::move(batch));
  Json::Object line;
  if (!id.is_null()) line["id"] = id;
  line["metrics"] = Json(std::move(inner));
  if (server != nullptr) line["server"] = *server;
  Json(std::move(line)).dump_to(out);
  out.push_back('\n');
}

}  // namespace mtperf::service
