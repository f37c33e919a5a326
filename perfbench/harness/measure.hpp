// Measurement helpers: the percentile rule, /proc readers for CPU time and
// peak RSS, and the in-memory span recorder of traced runs.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- percentiles -----------------------------------------------------------

/// Samples a percentile must have strictly beyond its rank.
inline constexpr std::size_t kMinTail = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< sample size
  std::size_t beyond = 0;   ///< samples ranked above the percentile
};

/// Nearest-rank percentile p in (0, 1) of `values` (sorted in place).
/// Throws std::runtime_error when fewer than kMinTail samples rank above
/// it: such a percentile is one or two samples and does not repeat.
Percentile percentile_with_tail(std::vector<double>& values, double p);

// --- /proc -----------------------------------------------------------------

/// User + system CPU seconds of process `pid` (utime + stime of
/// /proc/<pid>/stat).  Throws when the file is missing or malformed.
double process_cpu_seconds(pid_t pid);

/// Same fields parsed from the text of a stat file (testable without a
/// live process).  `ticks_per_second` is sysconf(_SC_CLK_TCK).
double parse_stat_cpu_seconds(const std::string& stat, long ticks_per_second);

/// Peak resident set (VmHWM of /proc/<pid>/status) in MiB.
double process_peak_rss_mb(pid_t pid);
double parse_status_vmhwm_mb(const std::string& status);

/// CPU seconds of the calling thread (the generator's own cost).
double thread_cpu_seconds();

/// Machine-wide CPU ticks from the first line of /proc/stat: all states,
/// and the "steal" state (time the hypervisor ran another guest).
struct MachineTicks {
  double total = 0.0;
  double steal = 0.0;
};
MachineTicks machine_ticks();
/// Share of machine CPU time stolen between two readings, in percent.
double steal_pct(const MachineTicks& before, const MachineTicks& after);

// --- spans -----------------------------------------------------------------

/// One traced interval: a call into a layer's public function.
struct Span {
  std::string name;
  double start_us = 0.0;  ///< since the recorder's origin
  double end_us = 0.0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 for roots
  std::uint64_t op = 0;      ///< op id shared by one op's spans
};

/// Per-span self time: duration minus the union of its children's
/// intervals (children may overlap one another), clipped to the span.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Summed duration by span name, in microseconds.
std::map<std::string, double> span_totals(const std::vector<Span>& spans);

/// Spans kept in memory during a traced replay and written out at exit.
/// Single-threaded: the replay calls every layer from one thread.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Open a span under the innermost open span; returns its index.
  std::size_t open(std::string name, std::uint64_t op);
  void close(std::size_t index);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Write spans as JSON lines (name, start_us, end_us, parent, op,
  /// self_us).
  void write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span: opens on construction, closes on scope exit.
class Scope {
 public:
  Scope(SpanRecorder* recorder, const char* name, std::uint64_t op)
      : recorder_(recorder),
        index_(recorder ? recorder->open(name, op) : 0) {}
  ~Scope() {
    if (recorder_) recorder_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t index_;
};

}  // namespace perfbench
