// The serve workloads' two moving parts: the mtperf_serve child process and
// a poll-driven closed-loop generator that keeps a fixed window of requests
// in flight on each of its connections.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <sys/types.h>
#include <vector>

#include "measure.hpp"
#include "service/json.hpp"

namespace perfbench {

/// An mtperf_serve child on a kernel-assigned loopback port.  The
/// destructor kills and reaps a child that was not shut down cleanly, so
/// no exit path leaves it running.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary,
                const std::vector<std::string>& args);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const noexcept { return pid_; }
  std::uint16_t port() const noexcept { return port_; }

  /// Send {"cmd":"shutdown"} over `control_fd` and reap the child; true
  /// when it exited with status 0.
  bool shutdown(int control_fd);

 private:
  void kill_and_reap();

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// A blocking request/response connection for control lines (metrics,
/// shutdown), kept apart from the generator's connections.
class ControlConnection {
 public:
  explicit ControlConnection(std::uint16_t port);
  ~ControlConnection();
  ControlConnection(const ControlConnection&) = delete;
  ControlConnection& operator=(const ControlConnection&) = delete;

  int fd() const noexcept { return fd_; }
  /// Send one line and parse the next response line.
  mtperf::service::Json call(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The top-level response fields the generator checks per op.
struct Response {
  bool received = false;
  bool error = false;
  bool cache_hit = false;
  bool prefix_hit = false;
  bool coalesced = false;
  std::uint64_t id = 0;
  double throughput = 0.0;
  double max_population = 0.0;
  double sent_s = 0.0;  ///< send time since the phase started
  double done_s = 0.0;  ///< response time since the phase started
  double latency_ms() const { return (done_s - sent_s) * 1e3; }
};

/// Scan one response line for the Response fields without building a DOM:
/// nested objects and series arrays are skipped byte-wise.  False when
/// the line is not a JSON object with a numeric "id".
bool scan_response(std::string_view line, Response& out);

struct PhaseStats {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  double wall_s = 0.0;
  double generator_cpu_s = 0.0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

/// Closed loop over `connections` sockets with `window` requests in flight
/// on each, driven by one poll() thread.  Ops are numbered globally; op
/// `i` is rendered by `render(i, out)` (which appends a line whose "id" is
/// i) and its response lands in `responses[i - first]`.
class ClosedLoopClient {
 public:
  using Render = std::function<void(std::uint64_t op, std::string& out)>;

  ClosedLoopClient(std::uint16_t port, std::size_t connections,
                   std::size_t window);
  ~ClosedLoopClient();
  ClosedLoopClient(const ClosedLoopClient&) = delete;
  ClosedLoopClient& operator=(const ClosedLoopClient&) = delete;

  /// Send ops first, first+1, ... until `max_ops` are sent or
  /// `seconds` have passed (0 = no time limit), then wait for every
  /// response.  `on_start` runs just before the first send.
  PhaseStats run(std::uint64_t first, std::uint64_t max_ops, double seconds,
                 const Render& render, std::vector<Response>& responses,
                 const std::function<void()>& on_start = {});

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::size_t inflight = 0;
  };
  std::vector<Conn> conns_;
  std::size_t window_;
};

}  // namespace perfbench
