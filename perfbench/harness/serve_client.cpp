#include "serve_client.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

using mtperf::service::Json;

namespace {

/// Read one line from a pipe or blocking socket, waiting at most
/// `timeout_s`.  `buffer` carries bytes read past the line.
std::string read_line(int fd, std::string& buffer, double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (true) {
    const auto nl = buffer.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      return line;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) throw std::runtime_error("timed out reading a line");
    pollfd p{fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno != EINTR) throw std::runtime_error("poll failed");
    if (ready <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n == 0) throw std::runtime_error("peer closed before a full line");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      throw std::runtime_error("read failed");
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to 127.0.0.1 failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send failed");
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

// --- response scanning -----------------------------------------------------

std::size_t skip_ws(std::string_view s, std::size_t i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r')) ++i;
  return i;
}

/// Index just past the string starting at s[i] == '"'.
std::size_t skip_string(std::string_view s, std::size_t i) {
  for (++i; i < s.size(); ++i) {
    if (s[i] == '\\') {
      ++i;
    } else if (s[i] == '"') {
      return i + 1;
    }
  }
  return std::string_view::npos;
}

/// Index just past the value starting at s[i].
std::size_t skip_value(std::string_view s, std::size_t i) {
  if (i >= s.size()) return std::string_view::npos;
  if (s[i] == '"') return skip_string(s, i);
  if (s[i] != '{' && s[i] != '[') {
    while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']') ++i;
    return i;
  }
  int depth = 0;
  while (i < s.size()) {
    const char c = s[i];
    if (c == '"') {
      i = skip_string(s, i);
      if (i == std::string_view::npos) return i;
      continue;
    }
    if (c == '{' || c == '[') ++depth;
    if ((c == '}' || c == ']') && --depth == 0) return i + 1;
    ++i;
  }
  return std::string_view::npos;
}

bool parse_number(std::string_view s, std::size_t i, double& out) {
  const auto end = skip_value(s, i);
  if (end == std::string_view::npos) return false;
  const auto r = std::from_chars(s.data() + i, s.data() + end, out);
  return r.ec == std::errc();
}

}  // namespace

bool scan_response(std::string_view s, Response& out) {
  std::size_t i = skip_ws(s, 0);
  if (i >= s.size() || s[i] != '{') return false;
  bool has_id = false;
  i = skip_ws(s, i + 1);
  while (i < s.size() && s[i] != '}') {
    if (s[i] != '"') return false;
    const std::size_t key_end = skip_string(s, i);
    if (key_end == std::string_view::npos) return false;
    const std::string_view key = s.substr(i + 1, key_end - i - 2);
    i = skip_ws(s, key_end);
    if (i >= s.size() || s[i] != ':') return false;
    i = skip_ws(s, i + 1);
    if (key == "id") {
      double id = 0.0;
      if (!parse_number(s, i, id) || id < 0.0) return false;
      out.id = static_cast<std::uint64_t>(id);
      has_id = true;
    } else if (key == "throughput") {
      if (!parse_number(s, i, out.throughput)) return false;
    } else if (key == "max_population") {
      if (!parse_number(s, i, out.max_population)) return false;
    } else if (key == "error") {
      out.error = true;
    } else if (key == "cache_hit") {
      out.cache_hit = s.substr(i, 4) == "true";
    } else if (key == "prefix_hit") {
      out.prefix_hit = s.substr(i, 4) == "true";
    } else if (key == "coalesced") {
      out.coalesced = s.substr(i, 4) == "true";
    }
    i = skip_value(s, i);
    if (i == std::string_view::npos) return false;
    i = skip_ws(s, i);
    if (i < s.size() && s[i] == ',') i = skip_ws(s, i + 1);
  }
  return has_id && i < s.size();
}

// --- server process --------------------------------------------------------

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args) {
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) throw std::runtime_error("pipe() failed");
  std::vector<std::string> argv{binary};
  argv.insert(argv.end(), args.begin(), args.end());
  std::vector<char*> cargv;
  for (auto& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    throw std::runtime_error("fork() failed");
  }
  if (pid_ == 0) {
    // Die with the harness, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execv(cargv[0], cargv.data());
    std::_Exit(127);
  }
  ::close(out_pipe[1]);
  stdout_fd_ = out_pipe[0];
  try {
    std::string buffer;
    const Json ready = Json::parse(read_line(stdout_fd_, buffer, 30.0));
    port_ = static_cast<std::uint16_t>(
        ready.at("listening").at("port").as_number());
  } catch (...) {
    kill_and_reap();
    throw;
  }
}

ServerProcess::~ServerProcess() { kill_and_reap(); }

void ServerProcess::kill_and_reap() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
}

bool ServerProcess::shutdown(int control_fd) {
  send_all(control_fd, "{\"cmd\":\"shutdown\"}\n");
  // Drain stdout (the final metrics line) so the child never blocks on a
  // full pipe, then reap it; kill it if it has not exited within 30 s.
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  char chunk[4096];
  while (Clock::now() < deadline) {
    pollfd p{stdout_fd_, POLLIN, 0};
    if (::poll(&p, 1, 100) > 0 && ::read(stdout_fd_, chunk, sizeof chunk) > 0) {
      continue;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      kill_and_reap();
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
  }
  kill_and_reap();
  return false;
}

ControlConnection::ControlConnection(std::uint16_t port)
    : fd_(connect_loopback(port)) {}

ControlConnection::~ControlConnection() {
  if (fd_ >= 0) ::close(fd_);
}

Json ControlConnection::call(const std::string& line) {
  send_all(fd_, line);
  return Json::parse(read_line(fd_, buffer_, 30.0));
}

// --- closed loop -----------------------------------------------------------

ClosedLoopClient::ClosedLoopClient(std::uint16_t port,
                                   std::size_t connections,
                                   std::size_t window)
    : conns_(connections), window_(window) {
  for (Conn& c : conns_) {
    c.fd = connect_loopback(port);
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
}

ClosedLoopClient::~ClosedLoopClient() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

PhaseStats ClosedLoopClient::run(std::uint64_t first, std::uint64_t max_ops,
                                 double seconds, const Render& render,
                                 std::vector<Response>& responses,
                                 const std::function<void()>& on_start) {
  responses.clear();
  PhaseStats stats;
  const std::uint64_t end = max_ops == 0 ? UINT64_MAX : first + max_ops;
  std::uint64_t next = first;
  std::uint64_t outstanding = 0;
  bool sending = true;

  if (on_start) on_start();
  const double cpu0 = thread_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const auto elapsed = [&](Clock::time_point t) { return seconds_between(t0, t); };

  const auto top_up = [&](Conn& c, double now_s) {
    while (sending && c.inflight < window_ && next < end) {
      const std::size_t before = c.out.size();
      render(next, c.out);
      stats.bytes_sent += c.out.size() - before;
      Response r;
      r.sent_s = now_s;
      responses.push_back(r);
      ++next;
      ++c.inflight;
      ++outstanding;
    }
  };
  const auto flush = [&](Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n <= 0) throw std::runtime_error("send to server failed");
      c.out_off += static_cast<std::size_t>(n);
    }
    c.out.clear();
    c.out_off = 0;
  };

  for (Conn& c : conns_) {
    top_up(c, 0.0);
    flush(c);
  }
  std::vector<pollfd> fds(conns_.size());
  std::vector<char> chunk(1 << 18);
  Clock::time_point last_progress = Clock::now();
  while (outstanding > 0) {
    for (std::size_t k = 0; k < conns_.size(); ++k) {
      fds[k] = pollfd{conns_[k].fd,
                      static_cast<short>(POLLIN | (conns_[k].out.empty()
                                                       ? 0
                                                       : POLLOUT)),
                      0};
    }
    const int ready = ::poll(fds.data(), fds.size(), 1000);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("poll failed");
    const Clock::time_point now = Clock::now();
    const double now_s = elapsed(now);
    if (seconds > 0.0 && now_s >= seconds) sending = false;
    if (ready <= 0) {
      if (seconds_between(last_progress, now) > 60.0) {
        throw std::runtime_error("server stalled: no response for 60 s");
      }
      continue;
    }
    for (std::size_t k = 0; k < conns_.size(); ++k) {
      Conn& c = conns_[k];
      if (fds[k].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        if (!(fds[k].revents & POLLIN)) {
          throw std::runtime_error("server closed a connection");
        }
      }
      if (fds[k].revents & POLLIN) {
        const ssize_t n = ::recv(c.fd, chunk.data(), chunk.size(), 0);
        if (n == 0) throw std::runtime_error("server closed a connection");
        if (n < 0 && errno != EINTR && errno != EAGAIN) {
          throw std::runtime_error("recv from server failed");
        }
        if (n > 0) {
          stats.bytes_received += static_cast<std::uint64_t>(n);
          c.in.append(chunk.data(), static_cast<std::size_t>(n));
          std::size_t start = 0;
          for (std::size_t nl; (nl = c.in.find('\n', start)) !=
                               std::string::npos;
               start = nl + 1) {
            Response r;
            if (!scan_response(std::string_view(c.in).substr(start, nl - start),
                               r) ||
                r.id < first || r.id - first >= responses.size() ||
                responses[r.id - first].received) {
              throw std::runtime_error("unmatched response line: " +
                                       c.in.substr(start, nl - start));
            }
            Response& slot = responses[r.id - first];
            r.sent_s = slot.sent_s;
            r.done_s = now_s;
            r.received = true;
            slot = r;
            --c.inflight;
            --outstanding;
            ++stats.received;
            last_progress = now;
          }
          c.in.erase(0, start);
        }
      }
      top_up(c, now_s);
      if (!c.out.empty()) flush(c);
    }
  }
  stats.sent = next - first;
  stats.wall_s = elapsed(Clock::now());
  stats.generator_cpu_s = thread_cpu_seconds() - cpu0;
  return stats;
}

}  // namespace perfbench
