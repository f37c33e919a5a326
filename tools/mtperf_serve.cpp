// mtperf_serve — line-delimited JSON front end of the scenario engine,
// with two transports over one request-handling core (service/request.hpp):
//
//   stdio (default): one request per stdin line, one response per stdout
//   line in request order, a final metrics line at EOF —
//
//     $ ./tools/mtperf_serve < requests.jsonl
//
//   socket (--port): a micro-batching TCP server (service/server.hpp).
//   Announces readiness on stdout as {"listening":{"port":N}} — with
//   --port 0 the kernel picks the port and N reports it — then serves
//   until a client sends {"cmd":"shutdown"}.  Requests from all
//   connections are micro-batched into Engine::evaluate_batch; responses
//   may return out of request order, matched by the echoed "id".  When
//   the bounded submission queue or a connection's in-flight cap is full
//   the server sheds with an immediate {"error":"overloaded"} line —
//
//     $ ./tools/mtperf_serve --port 7171 --batch-size 64 --queue-capacity 1024
//
// See service/request.hpp for the request/response schema (it is the
// same on both transports).  Besides flat scenario requests, both
// transports take {"cmd":"workmodel", ...} service-graph requests
// (service/workmodel.hpp): a mesh of services calling services, compiled
// to the same ScenarioSpec — so workmodels share the engine's cache and
// batch kernel with flat requests.  Result lines carry top-population
// throughput / response / cycle time, the bottleneck station,
// per-station utilization, and the cache verdict (cache_hit /
// prefix_hit / coalesced / solve_ms).  Errors become {"error": ...}
// lines; the process keeps serving.  Metrics lines report cache
// hits/misses/evictions, solve-latency percentiles, batch occupancy,
// and — on the socket transport — admission/shedding counters.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <iostream>
#include <optional>
#include <string>
#include <variant>

#include "common/socket.hpp"
#include "parse_number.hpp"
#include "service/engine.hpp"
#include "service/json.hpp"
#include "service/request.hpp"
#include "service/server.hpp"

namespace {

using namespace mtperf;
using service::Json;

/// A pending stdio response: an in-flight evaluation, or a line answered
/// at parse time (error / metrics snapshot) held until its turn.
struct Pending {
  std::variant<std::future<service::Evaluation>, std::string> payload;
  bool series = false;
  Json id;
};

/// Write and flush one buffered response line (already '\n'-terminated).
void emit(const std::string& out) {
  std::fwrite(out.data(), 1, out.size(), stdout);
  std::fflush(stdout);
}

void drain_one(Pending& pending, std::string& out) {
  out.clear();
  if (auto* ready = std::get_if<std::string>(&pending.payload)) {
    emit(*ready);
    return;
  }
  auto& future = std::get<std::future<service::Evaluation>>(pending.payload);
  try {
    service::append_evaluation(out, future.get(), pending.series, pending.id);
  } catch (const std::exception& e) {
    out.clear();
    service::append_error(out, e.what(), pending.id);
  }
  emit(out);
}

/// Emit every response whose turn has come and whose future is ready.
void drain_ready(std::deque<Pending>& queue, std::string& out) {
  while (!queue.empty()) {
    if (auto* future = std::get_if<std::future<service::Evaluation>>(
            &queue.front().payload)) {
      if (future->wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        return;
      }
    }
    drain_one(queue.front(), out);
    queue.pop_front();
  }
}

/// The stdio transport: async submission with in-order responses.  The
/// line and response buffers are reused across requests — the per-line
/// work is one parse_request and one append into a warm buffer.
int serve_stdio(service::Engine& engine) {
  std::deque<Pending> queue;
  std::string line;
  std::string out;
  std::size_t line_number = 0;
  while (std::getline(std::cin, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Pending pending;
    try {
      service::ParsedRequest request = service::parse_request(line);
      pending.id = std::move(request.id);
      switch (request.kind) {
        case service::RequestKind::kMetrics: {
          // Snapshot once the preceding requests have answered, so the
          // numbers reflect everything before this line.
          for (auto& p : queue) drain_one(p, out);
          queue.clear();
          std::string ready;
          service::append_metrics(ready, engine.metrics(), nullptr,
                                  pending.id);
          pending.payload = std::move(ready);
          break;
        }
        case service::RequestKind::kShutdown: {
          // stdio has no connections to close; acknowledge and keep
          // reading (EOF is the stdio shutdown signal).
          std::string ready;
          Json::Object ack;
          if (!pending.id.is_null()) ack["id"] = pending.id;
          ack["shutdown"] = true;
          Json(std::move(ack)).dump_to(ready);
          ready.push_back('\n');
          pending.payload = std::move(ready);
          break;
        }
        case service::RequestKind::kScenario: {
          pending.series = request.series;
          pending.payload = engine.pool().submit(
              [&engine, spec = std::move(request.spec)] {
                return engine.evaluate(spec);
              });
          break;
        }
      }
    } catch (const std::exception& e) {
      std::string ready;
      service::append_error(ready, e.what(), service::recover_request_id(line),
                            line_number);
      pending.payload = std::move(ready);
    }
    queue.push_back(std::move(pending));
    drain_ready(queue, out);
  }
  for (auto& pending : queue) drain_one(pending, out);
  out.clear();
  service::append_metrics(out, engine.metrics());
  emit(out);
  return 0;
}

/// The socket transport: announce the bound port, serve until a client
/// asks for shutdown, then report final metrics on stdout.
int serve_socket(service::ServerOptions options) {
  service::Server server(std::move(options));
  server.start();
  {
    Json::Object inner;
    inner["port"] = static_cast<unsigned long long>(server.port());
    Json::Object ready;
    ready["listening"] = Json(std::move(inner));
    std::string out;
    Json(std::move(ready)).dump_to(out);
    out.push_back('\n');
    emit(out);
  }
  server.wait();
  server.stop();
  const Json server_json = server.server_metrics_json();
  std::string out;
  service::append_metrics(out, server.engine().metrics(), &server_json);
  emit(out);
  return 0;
}

/// Parse a flag's value as exactly `out`'s type (see tools::parse_exact),
/// or exit 2 naming the flag.
template <typename T>
void parse_flag(const std::string& flag, const char* text, T& out) {
  if (tools::parse_exact(text, out)) return;
  std::fprintf(stderr, "error: %s expects %s, got '%s'\n", flag.c_str(),
               tools::expected_number<T>().c_str(), text);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  service::ServerOptions options;
  std::optional<std::uint16_t> port;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s expects a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--threads") {
      parse_flag(arg, value(), options.engine.threads);
    } else if (arg == "--cache-capacity") {
      parse_flag(arg, value(), options.engine.cache_capacity);
    } else if (arg == "--shards") {
      parse_flag(arg, value(), options.engine.shards);
    } else if (arg == "--port") {
      std::uint16_t p = 0;
      parse_flag(arg, value(), p);
      port = p;
    } else if (arg == "--stdio") {
      port.reset();
    } else if (arg == "--batch-size") {
      parse_flag(arg, value(), options.max_batch);
    } else if (arg == "--batch-deadline-us") {
      std::chrono::microseconds::rep us = 0;
      parse_flag(arg, value(), us);
      options.batch_deadline = std::chrono::microseconds(us);
    } else if (arg == "--queue-capacity") {
      parse_flag(arg, value(), options.queue_capacity);
    } else if (arg == "--max-inflight") {
      parse_flag(arg, value(), options.max_inflight_per_conn);
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(
          stderr,
          "usage: mtperf_serve [--stdio] [--threads N] [--cache-capacity N]"
          " [--shards N] < requests.jsonl\n"
          "       mtperf_serve --port P [--batch-size N]"
          " [--batch-deadline-us U] [--queue-capacity N] [--max-inflight N]\n"
          "One JSON request per line — flat scenarios (single-class"
          " \"demands\" or a multiclass \"classes\" array) or {\"cmd\":"
          "\"workmodel\"} service graphs; see service/request.hpp and"
          " service/workmodel.hpp for the schemas.  Large meshes solve"
          " fastest with \"solver\": \"hierarchical\" (per-service \"tier\""
          " labels plus a top-level \"hierarchy\" options object)."
          "  --port 0 binds a"
          " kernel-assigned port, announced on stdout as"
          " {\"listening\":{\"port\":N}}.\n");
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option %s\n", arg.c_str());
      return 2;
    }
  }
  // stdout may be a pipe whose reader exits early (head, a dying test
  // harness); die with a failed write, not a SIGPIPE.
  ignore_sigpipe();
  try {
    if (port) {
      options.port = *port;
      return serve_socket(std::move(options));
    }
    service::Engine engine(options.engine);
    return serve_stdio(engine);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
