// The event-core's time source and reactor. core::Clock is the one
// monotone simulation clock both backends advance (sim::Engine hops it to
// the next queue entry, the packet substrate's handlers run against it);
// core::Reactor pairs a Clock with an EventQueue of handlers — the
// classic discrete-event loop — and is what flowsim/packet.cpp runs on.
// See docs/ARCHITECTURE.md ("The event-core") for how the two simulators
// share this layer.
#pragma once

#include <cstdint>
#include <functional>

#include "core/event_queue.hpp"

namespace bwshare::core {

/// Monotone simulation time. Advancing backwards is a bug in the caller's
/// event ordering, so it throws instead of silently rewinding.
class Clock {
 public:
  [[nodiscard]] double now() const { return now_; }

  /// Jump to absolute time `t` (>= now).
  void advance_to(double t) {
    BWS_CHECK(t >= now_, "simulation clock cannot run backwards");
    now_ = t;
  }

 private:
  double now_ = 0.0;
};

/// A Clock driving an EventQueue of handlers: schedule callbacks at
/// absolute or relative times, then run() pops them in (time, FIFO) order.
/// schedule_* return the entry's EventHandle so a pending event can be
/// cancel()ed in O(log n); stale handles (already fired, cancelled or
/// cleared) are recognised and reported, never aliased.
class Reactor {
 public:
  using Handler = std::function<void()>;

  [[nodiscard]] double now() const { return clock_.now(); }

  /// Schedule `handler` at absolute time `when` (>= now).
  EventHandle schedule_at(double when, Handler handler);
  /// Schedule `handler` `delay` seconds from now.
  EventHandle schedule_in(double delay, Handler handler);

  /// Drop a pending event. Returns false (and does nothing) if the handle
  /// is stale — the event already fired, was cancelled, or was cleared.
  bool cancel(EventHandle h);

  /// Run until the queue drains or the next event lies beyond `max_time`.
  /// Returns the number of events processed.
  size_t run(double max_time = 1e18);

  /// Drop all pending events (the clock keeps its position).
  void clear() { queue_.clear(); }

  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] size_t pending() const { return queue_.size(); }

 private:
  Clock clock_;
  std::uint64_t next_seq_ = 0;  // FIFO tie-break for simultaneous events
  EventQueue<Handler> queue_;
};

}  // namespace bwshare::core
