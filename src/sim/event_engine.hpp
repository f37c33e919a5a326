// Allocation-free discrete-event core.
//
// Every scheduled event is a typed record: a POD of (time, seq, op, two
// indices, one payload double) kept in an index-based 4-ary heap over one
// reusable vector.  Scheduling is a struct write plus a sift-up; dispatch
// is a switch in the caller (the handler is a template parameter, so the
// event loop inlines it — no std::function, no virtual call, no per-event
// allocation once the arena has grown to the run's high-water mark).
//
// The 4-ary layout (children of i at 4i+1..4i+4) halves the tree depth of
// a binary heap; sift-down does more comparisons per level but they hit
// one or two cache lines, which is the right trade for the short-deadline
// event mixes a closed queueing network generates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace mtperf::sim {

/// What a scheduled event means; dispatch is a switch on this tag.  The
/// first three ops belong to the closed-network runner; kTick is a free op
/// for microbenchmarks and tests driving the engine directly.
enum class EventOp : std::uint32_t {
  kThinkDone,      ///< a = customer: think ended, start a transaction
  kDeparture,      ///< a = station, b = customer: FCFS service completed
  kPsFire,         ///< a = station, payload = generation token
  kTick,           ///< caller-defined
};

/// One scheduled event — trivially copyable, 40 bytes, no owners.
struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  ///< tie-break: FIFO among simultaneous events
  EventOp op = EventOp::kTick;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double payload = 0.0;
};

/// Index-based 4-ary min-heap of typed events over one reusable arena.
/// `Dispatch` is any callable taking (const Event&); run_until/step are
/// templates so the compiler sees through the dispatch switch.
class EventEngine {
 public:
  double now() const noexcept { return now_; }
  std::size_t pending_events() const noexcept { return heap_.size(); }

  /// Pre-grow the arena so a run's steady state never reallocates.
  void reserve(std::size_t events) { heap_.reserve(events); }

  /// Schedule an event `delay` seconds from now (delay >= 0).
  void schedule(double delay, EventOp op, std::uint32_t a = 0,
                std::uint32_t b = 0, double payload = 0.0) {
    MTPERF_REQUIRE(delay >= 0.0, "cannot schedule events in the past");
    heap_.push_back(Event{now_ + delay, next_seq_++, op, a, b, payload});
    sift_up(heap_.size() - 1);
  }

  /// Process events until the clock reaches `t` (events at exactly `t`
  /// fire).  The clock is left at `t`.
  template <typename Dispatch>
  void run_until(double t, Dispatch&& dispatch) {
    MTPERF_REQUIRE(t >= now_, "cannot run the clock backwards");
    while (!heap_.empty() && heap_.front().time <= t) {
      const Event ev = pop_min();
      now_ = ev.time;
      dispatch(ev);
    }
    now_ = t;
  }

  /// Process a single event if one exists; returns false when idle.
  template <typename Dispatch>
  bool step(Dispatch&& dispatch) {
    if (heap_.empty()) return false;
    const Event ev = pop_min();
    now_ = ev.time;
    dispatch(ev);
    return true;
  }

 private:
  static bool before(const Event& x, const Event& y) noexcept {
    if (x.time != y.time) return x.time < y.time;
    return x.seq < y.seq;
  }

  Event pop_min() noexcept {
    const Event top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return top;
  }

  void sift_up(std::size_t i) noexcept {
    const Event ev = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(ev, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = ev;
  }

  void sift_down(std::size_t i) noexcept {
    const Event ev = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], ev)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = ev;
  }

  std::vector<Event> heap_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace mtperf::sim
