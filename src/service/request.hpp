// The request-handling core shared by every front end of the scenario
// engine: the stdio loop and the socket server of mtperf_serve, the load
// generator, and the pipeline tests all parse and serialize through these
// functions, so the two transports cannot drift apart — a request whose
// solve fails gets the same error line on both.
//
// Wire format (one JSON object per '\n'-terminated line, both directions):
//
//   request:   {"label": "...", "think": 1.0,
//               "stations": [{"name": "db/cpu", "servers": 16,
//                             "visits": 1.0, "kind": "queueing"}, ...],
//               "demands": {"type": "constant", "values": [...]}
//                        | {"type": "spline", "axis": "concurrency",
//                           "x": [...], "y": [[...], ...]},
//               "solver": "mvasd", "max_population": 300,
//               "series": false, "id": 17}
//   multiclass: replace "demands"/"max_population" with
//               "classes": [{"name": "renew", "population": 120,
//                            "think": 2.0, "demands": [0.01, 0.02]
//                                        | {"type": "spline", ...}}, ...]
//               ("solver" defaults to "mom-multiclass"; responses gain a
//               "classes" object with per-class population / throughput /
//               response_time)
//   workmodel: {"cmd": "workmodel", "entry": "gateway", "think": 2.0,
//               "services": {"gateway": {"demand": 0.004, "calls": [...]},
//                            ...},
//               "solver": "mvasd", "max_population": 200, "id": 18}
//              (service-graph schema — see service/workmodel.hpp; compiled
//              to the same ScenarioSpec as a flat request)
//   control:   {"cmd": "metrics"} | {"cmd": "shutdown"}
//   response:  {"label": ..., "id": 17, "throughput": ..., ...}
//            | {"error": "...", "id": 17}
//            | {"metrics": {...}, "server": {...}}
//
// The optional "id" is echoed verbatim on the matching response (results
// may return out of request order on the socket transport, where requests
// from many connections are micro-batched together).  All serialization
// appends to caller-owned buffers (Json::dump_to) so per-line allocation
// churn stays off the hot path.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "core/sweep.hpp"
#include "service/engine.hpp"
#include "service/json.hpp"

namespace mtperf::service {

enum class RequestKind {
  kScenario,  ///< evaluate `spec`
  kMetrics,   ///< emit a metrics line
  kShutdown,  ///< stop serving (socket transport only; stdio ignores it)
};

/// One parsed request line.
struct ParsedRequest {
  RequestKind kind = RequestKind::kScenario;
  core::ScenarioSpec spec;
  bool series = false;  ///< response carries the full population series
  Json id;              ///< echoed on the response when non-null
};

/// Largest max_population a request may ask for — a guardrail against a
/// hostile line committing the server to an absurd solve.
inline constexpr unsigned kMaxRequestPopulation = 1'000'000;

/// A count read from a request (servers, replicas, populations): `value`
/// in [lo, hi] and whole (40.0 and 1e3 are).  Throws mtperf::Error with
/// "<field> out of range" or "<field> must be a whole number".
unsigned request_count(double value, unsigned lo, unsigned hi,
                       const std::string& field);

/// Parse one request line.  Throws mtperf::Error (with a stable "mtperf: "
/// prefix) on malformed JSON, schema violations, unknown solvers, or
/// out-of-range populations; the caller answers with append_error and
/// keeps serving.  A scenario's spec asks for utilization rows only
/// (core::StationRows::kUtilization): that is all a response carries.
ParsedRequest parse_request(std::string_view line);

/// Best-effort id recovery for error responses: when parse_request threw
/// after the line proved to be valid JSON (schema violation), the "id" is
/// still recoverable by re-parsing.  Error paths are cold, so the extra
/// parse does not matter; malformed JSON simply yields a null id.
Json recover_request_id(std::string_view line);

/// Append one result line (with trailing '\n') for an evaluation; for a
/// failed one (Evaluation::error set), the {"error": ..., "id": ...} line
/// the stdio transport writes when evaluate() throws that error.
void append_evaluation(std::string& out, const Evaluation& evaluation,
                       bool series, const Json& id);

/// Append one {"error": ...} line (with trailing '\n').  `line_number`
/// is included when nonzero (the stdio transport reports positions);
/// `id` is echoed when non-null.
void append_error(std::string& out, const std::string& message,
                  const Json& id, std::size_t line_number = 0);

/// Append one metrics line (with trailing '\n').  `server` optionally
/// adds a transport-level "server" object next to the engine "metrics";
/// `id` is echoed when non-null (socket clients match responses by id).
void append_metrics(std::string& out, const EngineMetrics& metrics,
                    const Json* server = nullptr, const Json& id = Json());

}  // namespace mtperf::service
