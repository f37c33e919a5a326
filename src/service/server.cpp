#include "service/server.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace mtperf::service {

/// One accepted client.  The reader thread owns the receive side; result
/// writes come from the batcher thread, so the send side is serialized by
/// write_mutex.  in_flight counts requests admitted to the pipeline but
/// not yet answered — the per-connection admission cap.
struct Server::Connection {
  explicit Connection(Socket s) : sock(std::move(s)) {}
  Socket sock;
  std::mutex write_mutex;
  std::atomic<std::size_t> in_flight{0};
  /// Set on the first failed send: the peer hung up mid-response.  Later
  /// responses for this connection are dropped instead of written into a
  /// dead socket.
  std::atomic<bool> failed{false};
};

/// One admitted request waiting in the submission queue.
struct Server::Pending {
  std::shared_ptr<Connection> conn;
  core::ScenarioSpec spec;
  bool series = false;
  Json id;
};

Server::Server(ServerOptions options) : options_(std::move(options)) {
  MTPERF_REQUIRE(options_.max_batch >= 1, "server needs max_batch >= 1");
  MTPERF_REQUIRE(options_.queue_capacity >= 1,
                 "server needs queue_capacity >= 1");
  MTPERF_REQUIRE(options_.max_inflight_per_conn >= 1,
                 "server needs max_inflight_per_conn >= 1");
  engine_ = std::make_unique<Engine>(options_.engine);
  queue_ = std::make_unique<BoundedQueue<Pending>>(options_.queue_capacity);
}

Server::~Server() { stop(); }

void Server::start() {
  MTPERF_REQUIRE(!started_.exchange(true), "server already started");
  // A client that disconnects while a batcher is mid-flush must cost one
  // dropped connection, not the process.
  ignore_sigpipe();
  listener_ = ListenSocket::listen_tcp(options_.port);
  batcher_thread_ = std::thread([this] { batcher_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

std::uint16_t Server::port() const { return listener_.port(); }

void Server::wait() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] {
    return shutdown_requested_.load() || stopping_.load();
  });
}

void Server::stop() {
  if (!started_.load() || stopping_.exchange(true)) {
    shutdown_cv_.notify_all();
    return;
  }
  shutdown_cv_.notify_all();

  // Stop taking new connections, then new requests; drain what was
  // admitted (the batcher answers every queued Pending before exiting); only
  // then tear down the connections the drain was writing to.
  listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  queue_->close();
  if (batcher_thread_.joinable()) batcher_thread_.join();
  {
    std::lock_guard<std::mutex> lock(readers_mutex_);
    for (const auto& conn : connections_) conn->sock.shutdown();
  }
  for (std::thread& t : reader_threads_) {
    if (t.joinable()) t.join();
  }
  listener_.close();
  std::lock_guard<std::mutex> lock(readers_mutex_);
  for (const auto& conn : connections_) conn->sock.close();
  connections_.clear();
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Socket sock = listener_.accept_conn();
    if (!sock.valid()) break;  // listener shut down
    auto conn = std::make_shared<Connection>(std::move(sock));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(readers_mutex_);
    if (stopping_.load()) {
      conn->sock.close();
      break;
    }
    connections_.push_back(conn);
    reader_threads_.emplace_back(
        [this, conn = std::move(conn)]() mutable { reader_loop(conn); });
  }
}

void Server::respond(Connection& conn, std::string_view data,
                     std::uint64_t lines) {
  std::lock_guard<std::mutex> lock(conn.write_mutex);
  if (conn.failed.load(std::memory_order_relaxed)) return;
  if (conn.sock.send_all(data)) {
    responses_.fetch_add(lines, std::memory_order_relaxed);
    return;
  }
  // Peer hung up mid-response: stop writing and wake the connection's
  // reader thread (blocked in recv) so the drop completes cleanly while
  // the rest of the batch keeps flushing to live connections.
  conn.failed.store(true, std::memory_order_relaxed);
  conn.sock.shutdown();
  send_failures_.fetch_add(1, std::memory_order_relaxed);
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  LineReader reader(conn->sock);
  std::string line;
  std::string out;  // reused response buffer; respond() copies nothing
  while (reader.next_line(line)) {
    if (line.empty()) continue;
    ParsedRequest request;
    try {
      request = parse_request(line);
    } catch (const std::exception& e) {
      parse_errors_.fetch_add(1, std::memory_order_relaxed);
      out.clear();
      append_error(out, e.what(), recover_request_id(line));
      respond(*conn, out);
      continue;
    }
    switch (request.kind) {
      case RequestKind::kMetrics: {
        const Json server = server_metrics_json();
        out.clear();
        append_metrics(out, engine_->metrics(), &server, request.id);
        respond(*conn, out);
        break;
      }
      case RequestKind::kShutdown: {
        out.clear();
        Json::Object ack;
        if (!request.id.is_null()) ack["id"] = request.id;
        ack["shutdown"] = true;
        Json(std::move(ack)).dump_to(out);
        out.push_back('\n');
        respond(*conn, out);
        shutdown_requested_.store(true);
        shutdown_cv_.notify_all();
        break;
      }
      case RequestKind::kScenario: {
        requests_.fetch_add(1, std::memory_order_relaxed);
        // Admission control: cap this connection's unanswered requests,
        // then try the bounded queue.  Either failure is a fast
        // rejection — the request never reaches the engine.
        if (conn->in_flight.load(std::memory_order_relaxed) >=
            options_.max_inflight_per_conn) {
          rejected_inflight_.fetch_add(1, std::memory_order_relaxed);
          out.clear();
          append_error(out, "overloaded", request.id);
          respond(*conn, out);
          break;
        }
        conn->in_flight.fetch_add(1, std::memory_order_relaxed);
        Pending pending{conn, std::move(request.spec), request.series,
                        std::move(request.id)};
        if (!queue_->try_push(std::move(pending))) {
          conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
          rejected_overloaded_.fetch_add(1, std::memory_order_relaxed);
          out.clear();
          append_error(out, "overloaded", pending.id);
          respond(*conn, out);
          break;
        }
        accepted_.fetch_add(1, std::memory_order_relaxed);
        const std::size_t depth = queue_->size();
        std::size_t peak = queue_peak_.load(std::memory_order_relaxed);
        while (depth > peak &&
               !queue_peak_.compare_exchange_weak(
                   peak, depth, std::memory_order_relaxed)) {
        }
        break;
      }
    }
  }
  // Receive side is done; in-flight responses still write through the
  // Connection shared_ptr held by their Pendings.
}

void Server::batcher_loop() {
  std::vector<Pending> batch;
  batch.reserve(options_.max_batch);
  Pending first;
  while (queue_->pop(first)) {
    batch.clear();
    batch.push_back(std::move(first));
    // Size-or-deadline trigger: keep gathering until the batch is full or
    // the first request of this batch has waited out the deadline.
    const auto deadline =
        std::chrono::steady_clock::now() + options_.batch_deadline;
    while (batch.size() < options_.max_batch) {
      Pending next;
      if (!queue_->pop_until(next, deadline)) break;
      batch.push_back(std::move(next));
    }
    if (batch.size() >= options_.max_batch) {
      flush_by_size_.fetch_add(1, std::memory_order_relaxed);
    } else {
      flush_by_deadline_.fetch_add(1, std::memory_order_relaxed);
    }
    flush_batch(batch);
  }
}

void Server::flush_batch(std::vector<Pending>& batch) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  std::vector<core::ScenarioSpec> specs;
  specs.reserve(batch.size());
  for (const Pending& p : batch) specs.push_back(p.spec);

  std::string out;
  std::vector<Evaluation> evaluations;
  try {
    evaluations = engine_->evaluate_batch(specs);
  } catch (const std::exception& e) {
    // A spec whose solve fails comes back as an Evaluation carrying its
    // error (append_evaluation writes its error line); reaching here means
    // the batch failed before any solve.  Answer every request so no
    // client hangs.
    for (Pending& p : batch) {
      out.clear();
      append_error(out, e.what(), p.id);
      respond(*p.conn, out);
      p.conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
    }
    return;
  }
  // Group the batch's responses by connection: one buffered send per
  // connection per flush instead of one write syscall per request.
  std::vector<std::pair<Connection*, std::pair<std::string, std::uint64_t>>>
      buffers;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    Connection* c = p.conn.get();
    auto it = std::find_if(buffers.begin(), buffers.end(),
                           [c](const auto& e) { return e.first == c; });
    if (it == buffers.end()) {
      buffers.emplace_back(c, std::make_pair(std::string(), std::uint64_t{0}));
      it = buffers.end() - 1;
    }
    append_evaluation(it->second.first, evaluations[i], p.series, p.id);
    ++it->second.second;
  }
  for (auto& [conn, buf] : buffers) respond(*conn, buf.first, buf.second);
  for (Pending& p : batch) {
    p.conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
  }
}

ServerMetrics Server::metrics() const {
  ServerMetrics m;
  m.connections = connections_accepted_.load(std::memory_order_relaxed);
  m.requests = requests_.load(std::memory_order_relaxed);
  m.accepted = accepted_.load(std::memory_order_relaxed);
  m.rejected_overloaded =
      rejected_overloaded_.load(std::memory_order_relaxed);
  m.rejected_inflight = rejected_inflight_.load(std::memory_order_relaxed);
  m.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  m.responses = responses_.load(std::memory_order_relaxed);
  m.send_failures = send_failures_.load(std::memory_order_relaxed);
  m.batches = batches_.load(std::memory_order_relaxed);
  m.flush_by_size = flush_by_size_.load(std::memory_order_relaxed);
  m.flush_by_deadline = flush_by_deadline_.load(std::memory_order_relaxed);
  m.queue_peak = queue_peak_.load(std::memory_order_relaxed);
  return m;
}

Json Server::server_metrics_json() const {
  const ServerMetrics m = metrics();
  Json::Object server;
  server["connections"] = static_cast<unsigned long long>(m.connections);
  server["requests"] = static_cast<unsigned long long>(m.requests);
  server["accepted"] = static_cast<unsigned long long>(m.accepted);
  server["rejected_overloaded"] =
      static_cast<unsigned long long>(m.rejected_overloaded);
  server["rejected_inflight"] =
      static_cast<unsigned long long>(m.rejected_inflight);
  server["parse_errors"] = static_cast<unsigned long long>(m.parse_errors);
  server["responses"] = static_cast<unsigned long long>(m.responses);
  server["send_failures"] = static_cast<unsigned long long>(m.send_failures);
  server["batches"] = static_cast<unsigned long long>(m.batches);
  server["flush_by_size"] = static_cast<unsigned long long>(m.flush_by_size);
  server["flush_by_deadline"] =
      static_cast<unsigned long long>(m.flush_by_deadline);
  server["queue_peak"] = static_cast<unsigned long long>(m.queue_peak);
  server["queue_depth"] = static_cast<unsigned long long>(queue_->size());
  server["queue_capacity"] =
      static_cast<unsigned long long>(queue_->capacity());
  server["max_batch"] = static_cast<unsigned long long>(options_.max_batch);
  return Json(std::move(server));
}

}  // namespace mtperf::service
