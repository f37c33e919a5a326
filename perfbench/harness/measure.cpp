#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

namespace perfbench {

Percentile percentile_with_tail(std::vector<double>& values, double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("percentile must lie in (0, 1)");
  }
  const std::size_t n = values.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n)));  // 1-based nearest rank
  const std::size_t beyond = n > rank ? n - rank : 0;
  if (n == 0 || beyond < kMinTail) {
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "p%g refused: %zu samples leave %zu beyond it (need %zu)",
                  p * 100.0, n, beyond, kMinTail);
    throw std::runtime_error(msg);
  }
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return Percentile{values[rank - 1], n, beyond};
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

double parse_stat_cpu_seconds(const std::string& stat,
                              long ticks_per_second) {
  // The command name (field 2) may hold spaces and parentheses; fields
  // after the last ')' are space-separated, starting with field 3 (state).
  const auto close = stat.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("bad stat line");
  std::istringstream rest(stat.substr(close + 1));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int f = 3; f <= 15 && rest >> field; ++f) {
    if (f == 14) utime = std::stoull(field);
    if (f == 15) stime = std::stoull(field);
  }
  if (!rest) throw std::runtime_error("stat line too short");
  return static_cast<double>(utime + stime) /
         static_cast<double>(ticks_per_second);
}

double process_cpu_seconds(pid_t pid) {
  return parse_stat_cpu_seconds(
      read_file("/proc/" + std::to_string(pid) + "/stat"),
      ::sysconf(_SC_CLK_TCK));
}

double parse_status_vmhwm_mb(const std::string& status) {
  const auto at = status.find("VmHWM:");
  if (at == std::string::npos) throw std::runtime_error("no VmHWM in status");
  std::istringstream line(status.substr(at + 6));
  double kib = 0.0;
  std::string unit;
  if (!(line >> kib >> unit) || unit != "kB") {
    throw std::runtime_error("bad VmHWM line");
  }
  return kib / 1024.0;
}

double process_peak_rss_mb(pid_t pid) {
  return parse_status_vmhwm_mb(
      read_file("/proc/" + std::to_string(pid) + "/status"));
}

double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

MachineTicks machine_ticks() {
  std::istringstream line(read_file("/proc/stat"));
  std::string cpu;
  line >> cpu;
  MachineTicks t;
  double v = 0.0;
  for (int field = 1; field <= 8 && line >> v; ++field) {
    t.total += v;
    if (field == 8) t.steal = v;
  }
  return t;
}

double steal_pct(const MachineTicks& before, const MachineTicks& after) {
  const double total = after.total - before.total;
  return total > 0.0 ? 100.0 * (after.steal - before.steal) / total : 0.0;
}

std::size_t SpanRecorder::open(std::string name, std::uint64_t op) {
  Span span;
  span.name = std::move(name);
  span.op = op;
  span.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  span.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  spans_[index].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> cover;
    for (std::size_t c : children[i]) {
      cover.emplace_back(std::max(spans[c].start_us, s.start_us),
                         std::min(spans[c].end_us, s.end_us));
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0, reach = s.start_us;
    for (const auto& [a, b] : cover) {
      const double from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    self[i] = (s.end_us - s.start_us) - covered;
  }
  return self;
}

std::map<std::string, double> span_totals(const std::vector<Span>& spans) {
  std::map<std::string, double> totals;
  for (const Span& s : spans) totals[s.name] += s.end_us - s.start_us;
  return totals;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + path);
  const std::vector<double> self = self_times(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"parent\":%lld,\"op\":%llu,\"self_us\":%.3f}\n",
                 s.name.c_str(), s.start_us, s.end_us,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op), self[i]);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
