#include "core/clock.hpp"

#include <utility>

namespace bwshare::core {

void Reactor::schedule_at(double when, Handler handler) {
  BWS_CHECK(when >= clock_.now(), "cannot schedule an event in the past");
  queue_.push(when, next_seq_++, std::move(handler));
}

void Reactor::schedule_in(double delay, Handler handler) {
  BWS_CHECK(delay >= 0.0, "delay must be non-negative");
  schedule_at(clock_.now() + delay, std::move(handler));
}

size_t Reactor::run() {
  size_t processed = 0;
  while (!queue_.empty()) {
    clock_.advance_to(queue_.top_time());
    Handler handler = queue_.pop();
    handler();
    ++processed;
  }
  return processed;
}

}  // namespace bwshare::core
