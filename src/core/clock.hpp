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
class Reactor {
 public:
  using Handler = std::function<void()>;

  [[nodiscard]] double now() const { return clock_.now(); }

  /// Schedule `handler` at absolute time `when` (>= now).
  void schedule_at(double when, Handler handler);
  /// Schedule `handler` `delay` seconds from now.
  void schedule_in(double delay, Handler handler);

  /// Run until the queue drains, handlers scheduling more events included.
  /// Returns the number of events processed.
  size_t run();

 private:
  Clock clock_;
  std::uint64_t next_seq_ = 0;  // FIFO tie-break for simultaneous events
  EventQueue<Handler> queue_;
};

}  // namespace bwshare::core
