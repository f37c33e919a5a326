// The socket transport of mtperf_serve: a micro-batching TCP front end
// over service::Engine, shaped like an inference-serving pipeline —
//
//   accept loop ──> per-connection reader threads ──> bounded submission
//   queue ──> micro-batcher ──> Engine::evaluate_batch ──> per-connection
//   ordered writes
//
// Readers parse line-delimited JSON requests (service/request.hpp) off
// their connection and try_push them into a bounded MPMC queue.  The
// batcher drains the queue under a size-or-deadline trigger — flush when
// kMaxBatch requests are pending or the oldest has waited batch_deadline —
// and hands each batch to Engine::evaluate_batch, where fingerprint dedup,
// single-flight coalescing, and the lane-major lockstep kernel turn the
// batch into as few full 16-lane solves as possible.
//
// Admission control keeps the pipeline's latency bounded instead of its
// queue unbounded (the Zero-Queueing design point: shed, don't queue):
//
//   * the submission queue is bounded — when it is full the reader answers
//     {"error":"overloaded"} immediately, without parsing a spec into the
//     pipeline;
//   * each connection has an in-flight cap, so one client cannot occupy
//     the whole queue;
//   * responses carry the request's "id", because micro-batching across
//     connections reorders completions.
//
// Metrics ({"cmd":"metrics"}) answer from the reader thread without
// touching the batch path — the engine's counters are lock-free to read.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/mpmc_queue.hpp"
#include "common/socket.hpp"
#include "service/engine.hpp"
#include "service/request.hpp"

namespace mtperf::service {

struct ServerOptions {
  /// TCP port (loopback); 0 lets the kernel pick — read back via port().
  std::uint16_t port = 0;
  /// Flush a batch as soon as it holds this many requests...
  std::size_t max_batch = 64;
  /// ...or as soon as the oldest pending request has waited this long.
  std::chrono::microseconds batch_deadline{2000};
  /// Bounded submission queue; a full queue fast-rejects ("overloaded").
  std::size_t queue_capacity = 1024;
  /// Per-connection in-flight cap (accepted but unanswered requests).
  std::size_t max_inflight_per_conn = 256;
  EngineOptions engine;
};

/// Transport-level counters (relaxed atomics; snapshot via metrics_json).
struct ServerMetrics {
  std::uint64_t connections = 0;  ///< accepted so far
  std::uint64_t requests = 0;     ///< parsed scenario requests
  std::uint64_t accepted = 0;     ///< admitted to the submission queue
  std::uint64_t rejected_overloaded = 0;  ///< shed: queue full
  std::uint64_t rejected_inflight = 0;    ///< shed: per-conn cap
  std::uint64_t parse_errors = 0;
  std::uint64_t responses = 0;  ///< result lines written
  std::uint64_t send_failures = 0;  ///< writes into a hung-up connection
  std::uint64_t batches = 0;    ///< evaluate_batch flushes
  std::uint64_t flush_by_size = 0;
  std::uint64_t flush_by_deadline = 0;
  std::size_t queue_peak = 0;  ///< deepest submission queue observed
};

class Server final {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and spawn the accept/batcher threads.
  void start();

  /// The bound port (valid after start()).
  std::uint16_t port() const;

  /// Block until a client sends {"cmd":"shutdown"} or stop() is called.
  void wait();

  /// Close the listener and every connection, drain accepted work, join
  /// all threads.  Idempotent.
  void stop();

  Engine& engine() noexcept { return *engine_; }
  ServerMetrics metrics() const;

  /// The {"metrics":...,"server":...} line both transports emit.
  Json server_metrics_json() const;

 private:
  struct Connection;
  struct Pending;

  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  void batcher_loop();
  void flush_batch(std::vector<Pending>& batch);
  void respond(Connection& conn, std::string_view data,
               std::uint64_t lines = 1);

  ServerOptions options_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<BoundedQueue<Pending>> queue_;
  ListenSocket listener_;

  std::thread accept_thread_;
  std::thread batcher_thread_;
  std::mutex readers_mutex_;
  std::vector<std::thread> reader_threads_;
  std::vector<std::shared_ptr<Connection>> connections_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_overloaded_{0};
  std::atomic<std::uint64_t> rejected_inflight_{0};
  std::atomic<std::uint64_t> parse_errors_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> send_failures_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> flush_by_size_{0};
  std::atomic<std::uint64_t> flush_by_deadline_{0};
  std::atomic<std::size_t> queue_peak_{0};
};

}  // namespace mtperf::service
