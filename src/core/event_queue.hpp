// The event-core's finish-time priority index: an indexed binary min-heap
// over (time, tie) with stable, generation-tagged slot handles. Both event
// loops in the repo run on it — sim::Engine keys in-flight transfers and
// compute wake-ups by predicted finish time, the packet substrate (via
// core::Reactor) keys scheduled handlers — so O(log n) push/pop and
// O(log n) decrease/increase-key replace the per-event linear scans the
// engine used to do (docs/PERFORMANCE.md, "The event-core").
//
// Determinism contract: the heap order is the strict lexicographic order on
// (time, tie). Callers must make ties unique (the engine uses the comm's
// posting-record id, the reactor a monotone sequence number), which makes
// pop order a pure function of the entry set — independent of insertion
// order, update history, or slot reuse.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace bwshare::core {

/// Opaque ticket for one queued entry. Handles are *stable*: heap
/// reordering never invalidates them, only pop/erase of the entry itself
/// does. They are generation-tagged, so a stale handle (kept after its
/// entry left the queue, even if the slot was since recycled) is detected
/// by contains()/update()/erase() instead of silently aliasing a new entry.
using EventHandle = std::uint64_t;

/// Never a live handle (generations start at 1).
inline constexpr EventHandle kNullEventHandle = 0;

template <typename Payload>
class EventQueue {
 public:
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Insert an entry; O(log n). `tie` breaks equal times (lower pops first)
  /// and should be unique across live entries for full determinism.
  EventHandle push(double time, std::uint64_t tie, Payload payload) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slots_.emplace_back();
      slot = static_cast<std::uint32_t>(slots_.size()) - 1;
    }
    Slot& s = slots_[slot];
    s.time = time;
    s.tie = tie;
    s.payload = std::move(payload);
    s.alive = true;
    ++s.gen;
    s.pos = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(slot);
    sift_up(s.pos);
    return (static_cast<EventHandle>(s.gen) << 32) | slot;
  }

  /// True iff `h` refers to an entry still in the queue.
  [[nodiscard]] bool contains(EventHandle h) const {
    const std::uint32_t slot = static_cast<std::uint32_t>(h & 0xffffffffu);
    const std::uint32_t gen = static_cast<std::uint32_t>(h >> 32);
    return slot < slots_.size() && slots_[slot].alive &&
           slots_[slot].gen == gen;
  }

  /// Re-key a live entry to `time` (decrease *or* increase); O(log n).
  void update(EventHandle h, double time) {
    Slot& s = slots_[checked_slot(h)];
    s.time = time;
    sift_up(s.pos);
    sift_down(s.pos);
  }

  /// Remove a live entry by handle; O(log n).
  void erase(EventHandle h) { remove_at(slots_[checked_slot(h)].pos); }

  [[nodiscard]] double time_of(EventHandle h) const {
    return slots_[checked_slot(h)].time;
  }

  [[nodiscard]] double top_time() const {
    BWS_CHECK(!heap_.empty(), "EventQueue::top_time on an empty queue");
    return slots_[heap_.front()].time;
  }

  /// Payload of the minimum entry (valid until the next mutation).
  [[nodiscard]] const Payload& top() const {
    BWS_CHECK(!heap_.empty(), "EventQueue::top on an empty queue");
    return slots_[heap_.front()].payload;
  }

  /// Remove and return the minimum entry's payload; O(log n).
  Payload pop() {
    BWS_CHECK(!heap_.empty(), "EventQueue::pop on an empty queue");
    Payload out = std::move(slots_[heap_.front()].payload);
    remove_at(0);
    return out;
  }

  /// Test hook: verify the heap invariant and the slot <-> position index.
  [[nodiscard]] bool check_heap() const {
    for (std::uint32_t pos = 0; pos < heap_.size(); ++pos) {
      if (slots_[heap_[pos]].pos != pos) return false;
      if (!slots_[heap_[pos]].alive) return false;
      if (pos > 0 && before(heap_[pos], heap_[(pos - 1) / 2])) return false;
    }
    return true;
  }

 private:
  struct Slot {
    double time = 0.0;
    std::uint64_t tie = 0;
    std::uint32_t gen = 0;  // bumped on every (re)allocation of the slot
    std::uint32_t pos = 0;  // index into heap_ while alive
    bool alive = false;
    Payload payload{};
  };

  [[nodiscard]] std::uint32_t checked_slot(EventHandle h) const {
    BWS_CHECK(contains(h), "stale or invalid EventQueue handle");
    return static_cast<std::uint32_t>(h & 0xffffffffu);
  }

  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const {
    const Slot& sa = slots_[a];
    const Slot& sb = slots_[b];
    if (sa.time != sb.time) return sa.time < sb.time;
    return sa.tie < sb.tie;
  }

  void place(std::uint32_t pos, std::uint32_t slot) {
    heap_[pos] = slot;
    slots_[slot].pos = pos;
  }

  void sift_up(std::uint32_t pos) {
    const std::uint32_t slot = heap_[pos];
    while (pos > 0) {
      const std::uint32_t parent = (pos - 1) / 2;
      if (!before(slot, heap_[parent])) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, slot);
  }

  void sift_down(std::uint32_t pos) {
    const std::uint32_t slot = heap_[pos];
    const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
    while (true) {
      std::uint32_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], slot)) break;
      place(pos, heap_[child]);
      pos = child;
    }
    place(pos, slot);
  }

  void remove_at(std::uint32_t pos) {
    const std::uint32_t slot = heap_[pos];
    const std::uint32_t last = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size()) {
      place(pos, last);
      sift_up(pos);
      sift_down(slots_[last].pos);
    }
    slots_[slot].alive = false;
    slots_[slot].payload = Payload{};
    free_.push_back(slot);
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> heap_;  // heap of slot indices
  std::vector<std::uint32_t> free_;
};

}  // namespace bwshare::core
