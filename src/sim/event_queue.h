// Deterministic discrete-event queue. Events at the same time fire in the
// order they were scheduled (FIFO tie-breaking via a monotonically
// increasing sequence number), which keeps whole-simulation runs
// bit-reproducible for a given seed.
//
// Events carry a small-buffer-optimized action (EventQueue::Action):
// closures up to kActionInlineBytes are stored inside the event itself,
// so the delivery hot path (one event per transmission) schedules with
// zero heap allocations once the underlying heap vector has warmed up
// (tests/sim/event_queue_alloc_test.cc pins this).
#ifndef SNAPQ_SIM_EVENT_QUEUE_H_
#define SNAPQ_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "common/inline_function.h"
#include "net/node_id.h"

namespace snapq {

/// Priority queue of (time, seq, action) triples ordered by time then seq.
class EventQueue {
 public:
  /// Inline action capacity: sized so the simulator's pooled transmission
  /// closure (two pointers, one per send) and the traced ScheduleAt wrapper
  /// (this + TraceContext + std::function) both stay allocation-free.
  /// Bigger captures still work — they fall back to one heap allocation.
  static constexpr size_t kActionInlineBytes = 64;
  using Action = InlineFunction<kActionInlineBytes>;

  EventQueue();

  /// Schedules `action` at absolute time `t`. Requires t >= now().
  void ScheduleAt(Time t, Action action);

  /// Pre-sizes the heap's backing vector so the next `n` pending events
  /// do not reallocate it.
  void Reserve(size_t n);

  /// Runs the earliest pending event, advancing the clock to its time.
  /// Returns false when the queue is empty.
  bool RunNext();

  /// Runs all events with time <= `t`, then advances the clock to `t`.
  void RunUntil(Time t);

  /// Runs to exhaustion.
  void RunAll();

  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }
  Time now() const { return now_; }

 private:
  struct Event {
    Time time;
    uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// priority_queue keeps its container protected; exposing it lets
  /// Reserve() pre-size the backing vector (capacity growth is the only
  /// allocation the event hot path can perform).
  struct Heap : std::priority_queue<Event, std::vector<Event>, Later> {
    using std::priority_queue<Event, std::vector<Event>, Later>::c;
  };

  Heap heap_;
  uint64_t next_seq_ = 0;
  Time now_ = 0;
};

}  // namespace snapq

#endif  // SNAPQ_SIM_EVENT_QUEUE_H_
