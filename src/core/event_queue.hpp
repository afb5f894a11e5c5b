// The event-core's finish-time priority index: an indexed 4-ary min-heap
// over (time, tie) with stable, generation-tagged slot handles. Both event
// loops in the repo run on it — sim::Engine keys in-flight transfers and
// compute wake-ups by predicted finish time, the packet substrate (via
// core::Reactor) keys scheduled handlers — so O(log n) push/pop and
// O(log n) decrease/increase-key replace the per-event linear scans the
// engine used to do (docs/PERFORMANCE.md, "The event-core").
//
// Layout: each heap node carries its (time, tie) key inline next to its
// slot index, so a sift compares nodes of the heap array alone; the slot
// array holds what only handles need (generation, heap position, payload).
// Four children per node halve the depth of a binary heap, and the four
// keys a sift-down compares are adjacent in the node array.
//
// Determinism contract: the heap order is the strict lexicographic order on
// (time, tie). Callers must make ties unique (the engine uses the comm's
// posting-record id, the reactor a monotone sequence number), which makes
// pop order a pure function of the entry set — independent of insertion
// order, update history, or slot reuse.
#pragma once

#include <algorithm>
#include <cstddef>
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
    s.payload = std::move(payload);
    s.alive = true;
    ++s.gen;
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Node{time, tie, slot});
    return (static_cast<EventHandle>(s.gen) << 32) | slot;
  }

  /// True iff `h` refers to an entry still in the queue.
  [[nodiscard]] bool contains(EventHandle h) const {
    const std::uint32_t slot = static_cast<std::uint32_t>(h & 0xffffffffu);
    const std::uint32_t gen = static_cast<std::uint32_t>(h >> 32);
    return slot < slots_.size() && slots_[slot].alive &&
           slots_[slot].gen == gen;
  }

  /// Re-key a live entry to `time` (decrease *or* increase); O(log n). The
  /// entry sifts only in the direction its key moved.
  void update(EventHandle h, double time) {
    const std::size_t pos = slots_[checked_slot(h)].pos;
    Node node = heap_[pos];
    const double old = node.time;
    node.time = time;
    if (time < old)
      sift_up(pos, node);
    else
      sift_down(pos, node);
  }

  /// Remove a live entry by handle; O(log n).
  void erase(EventHandle h) { remove_at(slots_[checked_slot(h)].pos); }

  [[nodiscard]] double time_of(EventHandle h) const {
    return heap_[slots_[checked_slot(h)].pos].time;
  }

  [[nodiscard]] double top_time() const {
    BWS_CHECK(!heap_.empty(), "EventQueue::top_time on an empty queue");
    return heap_.front().time;
  }

  /// Payload of the minimum entry (valid until the next mutation).
  [[nodiscard]] const Payload& top() const {
    BWS_CHECK(!heap_.empty(), "EventQueue::top on an empty queue");
    return slots_[heap_.front().slot].payload;
  }

  /// Remove and return the minimum entry's payload; O(log n).
  Payload pop() {
    BWS_CHECK(!heap_.empty(), "EventQueue::pop on an empty queue");
    Payload out = std::move(slots_[heap_.front().slot].payload);
    remove_at(0);
    return out;
  }

  /// Test hook: verify the 4-ary heap invariant (no node orders before its
  /// parent) and the slot <-> position index.
  [[nodiscard]] bool check_heap() const {
    for (std::size_t pos = 0; pos < heap_.size(); ++pos) {
      const Slot& s = slots_[heap_[pos].slot];
      if (s.pos != pos || !s.alive) return false;
      if (pos > 0 && before(heap_[pos], heap_[parent(pos)])) return false;
    }
    return true;
  }

 private:
  /// One heap entry: the key, inline, and the slot that owns it.
  struct Node {
    double time = 0.0;
    std::uint64_t tie = 0;
    std::uint32_t slot = 0;
  };

  struct Slot {
    std::uint32_t gen = 0;  // bumped on every (re)allocation of the slot
    std::uint32_t pos = 0;  // index into heap_ while alive
    bool alive = false;
    Payload payload{};
  };

  static constexpr std::size_t kArity = 4;

  [[nodiscard]] static std::size_t parent(std::size_t pos) {
    return (pos - 1) / kArity;
  }

  [[nodiscard]] std::uint32_t checked_slot(EventHandle h) const {
    BWS_CHECK(contains(h), "stale or invalid EventQueue handle");
    return static_cast<std::uint32_t>(h & 0xffffffffu);
  }

  [[nodiscard]] static bool before(const Node& a, const Node& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.tie < b.tie;
  }

  void place(std::size_t pos, const Node& node) {
    heap_[pos] = node;
    slots_[node.slot].pos = static_cast<std::uint32_t>(pos);
  }

  /// Move `node` from the hole at `pos` towards the root.
  void sift_up(std::size_t pos, const Node& node) {
    while (pos > 0) {
      const std::size_t up = parent(pos);
      if (!before(node, heap_[up])) break;
      place(pos, heap_[up]);
      pos = up;
    }
    place(pos, node);
  }

  /// Move `node` from the hole at `pos` towards the leaves.
  void sift_down(std::size_t pos, const Node& node) {
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t first = kArity * pos + 1;
      if (first >= n) break;
      const std::size_t end = std::min(first + kArity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c)
        if (before(heap_[c], heap_[best])) best = c;
      if (!before(heap_[best], node)) break;
      place(pos, heap_[best]);
      pos = best;
    }
    place(pos, node);
  }

  /// Fill the hole at `pos` with the last node and sift it the one way its
  /// key points: up if it orders before the hole's parent, else down.
  void remove_at(std::size_t pos) {
    const std::uint32_t slot = heap_[pos].slot;
    const Node last = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size()) {
      if (pos > 0 && before(last, heap_[parent(pos)]))
        sift_up(pos, last);
      else
        sift_down(pos, last);
    }
    slots_[slot].alive = false;
    slots_[slot].payload = Payload{};
    free_.push_back(slot);
  }

  std::vector<Slot> slots_;
  std::vector<Node> heap_;
  std::vector<std::uint32_t> free_;
};

}  // namespace bwshare::core
