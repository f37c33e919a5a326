// Allocation-free discrete-event core.
//
// Every scheduled event is a typed record: a POD of (time, seq, op, two
// indices, one payload double) kept in index-based 4-ary heaps over
// reusable vectors.  Scheduling is a struct write plus a sift; dispatch is a
// switch in the caller (the handler is a template parameter, so the event
// loop inlines it — no std::function, no virtual call, no per-event
// allocation once the arenas have grown to the run's high-water mark).
//
// Two heaps, split by op: think completions (kThinkDone) in one, every
// other op in the other.  In a closed network nearly every pending event
// is a customer thinking (93% of them at VINS N = 751, 79% at JPetStore
// N = 151), yet think completions are about 1% of dispatches; kept apart,
// a service completion sifts through the few service events it competes
// with instead of through the whole population.  Both heaps order by
// (time, seq) under one global seq counter and the loop dispatches the
// smaller front, so events dispatch in exactly the order one heap holding
// all of them would give.
//
// Popping leaves a hole at the heap's root.  A dispatch usually schedules
// the popped customer's next event, and when it lands in the same heap it
// fills the hole with one sift-down: pop-then-push (the "hold" step of an
// event list) costs one sift instead of two.  Any other access repairs the
// hole first, the way a plain pop would have.
//
// The 4-ary layout (children of i at 4i+1..4i+4) halves the tree depth of
// a binary heap; sift-down does more comparisons per level but they hit
// one or two cache lines, which is the right trade for the short-deadline
// event mixes a closed queueing network generates.
//
// Events order by one 128-bit integer key: the bit pattern of `time` in the
// high word, `seq` in the low word.  Event times are never negative or NaN
// (schedule rejects such delays), and non-negative doubles order like their
// bit patterns, so the key gives exactly the (time, seq) order; the one
// exception, -0.0, schedule turns into +0.0.  Comparing two keys is a
// cmp/sbb pair, so sift-down picks the smallest child with conditional
// moves instead of one unpredictable branch per child.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
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

/// The event list: two 4-ary min-heaps of typed events over reusable
/// arenas (see the file comment).  `Dispatch` is any callable taking
/// (const Event&); run_until/step are templates so the compiler sees
/// through the dispatch switch.
class EventEngine {
 public:
  double now() const noexcept { return now_; }
  std::size_t pending_events() const noexcept {
    return think_.size() + other_.size();
  }

  /// Pre-grow the arenas so a run's steady state never reallocates:
  /// room for `think_events` kThinkDone events and `other_events` of the
  /// other ops.
  void reserve(std::size_t think_events, std::size_t other_events) {
    think_.reserve(think_events);
    other_.reserve(other_events);
  }

  /// Schedule an event `delay` seconds from now (delay >= 0).
  void schedule(double delay, EventOp op, std::uint32_t a = 0,
                std::uint32_t b = 0, double payload = 0.0) {
    MTPERF_REQUIRE(delay >= 0.0, "cannot schedule events in the past");
    // `+ 0.0` turns a -0.0 sum into +0.0 and leaves every other time as it
    // is: -0.0's bit pattern would sort after every positive time.
    const Event ev{now_ + delay + 0.0, next_seq_++, op, a, b, payload};
    (op == EventOp::kThinkDone ? think_ : other_).push(ev);
  }

  /// Process events until the clock reaches `t` (events at exactly `t`
  /// fire).  The clock is left at `t`.
  template <typename Dispatch>
  void run_until(double t, Dispatch&& dispatch) {
    MTPERF_REQUIRE(t >= now_, "cannot run the clock backwards");
    for (;;) {
      Heap* const next = earliest();
      if (next == nullptr || next->front().time > t) break;
      const Event ev = next->pop();
      now_ = ev.time;
      dispatch(ev);
    }
    now_ = t;
  }

  /// Process a single event if one exists; returns false when idle.
  template <typename Dispatch>
  bool step(Dispatch&& dispatch) {
    Heap* const next = earliest();
    if (next == nullptr) return false;
    const Event ev = next->pop();
    now_ = ev.time;
    dispatch(ev);
    return true;
  }

 private:
  /// The (time, seq) order as one integer (see the file comment).
  __extension__ using Key = unsigned __int128;
  static Key key(const Event& ev) noexcept {
    return (static_cast<Key>(std::bit_cast<std::uint64_t>(ev.time)) << 64) |
           ev.seq;
  }
  static bool before(const Event& x, const Event& y) noexcept {
    return key(x) < key(y);
  }

  /// Index-based 4-ary min-heap of events whose root removal is deferred:
  /// pop() leaves a hole that the next push() fills (see the file comment).
  class Heap {
   public:
    std::size_t size() const noexcept { return slots_.size() - hole_; }
    void reserve(std::size_t events) { slots_.reserve(events); }

    /// Close a pending hole; front() and empty() need a settled heap.
    void settle() noexcept {
      if (!hole_) return;
      hole_ = false;
      const Event last = slots_.back();
      slots_.pop_back();
      if (!slots_.empty()) sift_down(0, last);
    }
    bool empty() const noexcept { return slots_.empty(); }
    const Event& front() const noexcept { return slots_.front(); }

    /// Take the front of a settled, non-empty heap, leaving the hole.
    Event pop() noexcept {
      hole_ = true;
      return slots_.front();
    }

    void push(const Event& ev) {
      if (hole_) {
        hole_ = false;
        sift_down(0, ev);
        return;
      }
      slots_.push_back(ev);
      sift_up(slots_.size() - 1, ev);
    }

   private:
    void sift_up(std::size_t i, const Event& ev) noexcept {
      Event* const h = slots_.data();
      const Key k = key(ev);
      while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (k >= key(h[parent])) break;
        h[i] = h[parent];
        i = parent;
      }
      h[i] = ev;
    }

    /// Place `ev` at slot i (vacant or to be overwritten) and sift it down.
    /// The smallest child is picked with selects, not a branch per child.
    void sift_down(std::size_t i, const Event& ev) noexcept {
      Event* const h = slots_.data();
      const std::size_t n = slots_.size();
      const Key k = key(ev);
      for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n) break;
        std::size_t best = first;
        Key best_key = key(h[first]);
        const std::size_t last = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < last; ++c) {
          const Key ck = key(h[c]);
          const bool less = ck < best_key;
          best = less ? c : best;
          best_key = less ? ck : best_key;
        }
        if (best_key >= k) break;
        h[i] = h[best];
        i = best;
      }
      h[i] = ev;
    }

    std::vector<Event> slots_;
    bool hole_ = false;  ///< slots_[0] was popped and not yet refilled
  };

  /// The heap holding the next event, or null when both are empty.
  Heap* earliest() noexcept {
    think_.settle();
    other_.settle();
    if (other_.empty()) return think_.empty() ? nullptr : &think_;
    if (think_.empty() || before(other_.front(), think_.front())) {
      return &other_;
    }
    return &think_;
  }

  Heap think_;  ///< kThinkDone
  Heap other_;  ///< every other op
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace mtperf::sim
