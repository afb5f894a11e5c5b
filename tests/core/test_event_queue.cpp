// core::EventQueue — the indexed 4-ary finish-time heap both event loops
// run on. Pins the (time, tie) pop order, O(log n) re-keying through stable
// handles, stale-handle detection across slot recycling, and the heap
// invariant under randomized mutation storms, several heap levels deep and
// with long runs of equal times, checked against a sorted reference model.
#include "core/event_queue.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace bwshare::core {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue<int> q;
  q.push(3.0, 0, 30);
  q.push(1.0, 1, 10);
  q.push(2.0, 2, 20);
  ASSERT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.top_time(), 1.0);
  EXPECT_EQ(q.pop(), 10);
  EXPECT_EQ(q.pop(), 20);
  EXPECT_EQ(q.pop(), 30);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimesBreakTiesByTieKey) {
  EventQueue<int> q;
  // Insertion order deliberately scrambled: pop order must depend only on
  // the (time, tie) keys.
  q.push(1.0, 7, 7);
  q.push(1.0, 2, 2);
  q.push(1.0, 5, 5);
  q.push(1.0, 0, 0);
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.pop());
  EXPECT_EQ(order, (std::vector<int>{0, 2, 5, 7}));
}

TEST(EventQueue, TopExposesMinEntry) {
  EventQueue<int> q;
  q.push(2.0, 4, 42);
  q.push(5.0, 9, 99);
  EXPECT_DOUBLE_EQ(q.top_time(), 2.0);
  EXPECT_EQ(q.top(), 42);
}

TEST(EventQueue, UpdateDecreasesKey) {
  EventQueue<int> q;
  q.push(1.0, 0, 1);
  const EventHandle h = q.push(9.0, 1, 9);
  q.push(2.0, 2, 2);
  q.update(h, 0.5);  // 9 jumps to the front
  EXPECT_EQ(q.pop(), 9);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
}

TEST(EventQueue, UpdateIncreasesKey) {
  EventQueue<int> q;
  const EventHandle h = q.push(1.0, 0, 1);
  q.push(2.0, 1, 2);
  q.push(3.0, 2, 3);
  q.update(h, 10.0);  // 1 sinks to the back
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), 1);
}

TEST(EventQueue, HandlesSurviveReordering) {
  EventQueue<int> q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 16; ++i)
    handles.push_back(q.push(static_cast<double>(i), static_cast<uint64_t>(i), i));
  // Reverse every key through the stable handles; order must fully flip.
  for (int i = 0; i < 16; ++i)
    q.update(handles[static_cast<size_t>(i)], static_cast<double>(16 - i));
  for (int i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(q.time_of(handles[static_cast<size_t>(i)]),
                     static_cast<double>(16 - i));
  }
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.pop());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], 15 - i);
}

TEST(EventQueue, EraseRemovesTheEntry) {
  EventQueue<int> q;
  q.push(1.0, 0, 1);
  const EventHandle h = q.push(2.0, 1, 2);
  q.push(3.0, 2, 3);
  q.erase(h);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_FALSE(q.contains(h));
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 3);
}

TEST(EventQueue, StaleHandlesAreDetectedNotAliased) {
  EventQueue<int> q;
  const EventHandle h = q.push(1.0, 0, 1);
  EXPECT_TRUE(q.contains(h));
  EXPECT_EQ(q.pop(), 1);
  EXPECT_FALSE(q.contains(h));
  // The freed slot is recycled with a fresh generation: the old handle must
  // stay invalid and must not alias the new entry.
  const EventHandle h2 = q.push(5.0, 1, 2);
  EXPECT_NE(h, h2);
  EXPECT_FALSE(q.contains(h));
  EXPECT_TRUE(q.contains(h2));
  EXPECT_THROW(q.update(h, 0.0), Error);
  EXPECT_THROW(q.erase(h), Error);
  EXPECT_THROW((void)q.time_of(h), Error);
  EXPECT_EQ(q.pop(), 2);
}

TEST(EventQueue, NullHandleIsNeverLive) {
  EventQueue<int> q;
  EXPECT_FALSE(q.contains(kNullEventHandle));
  q.push(1.0, 0, 1);
  EXPECT_FALSE(q.contains(kNullEventHandle));
}

TEST(EventQueue, RandomizedMutationsMatchReferenceModel) {
  // Storms of push/update/erase/pop checked against a sorted reference; the
  // heap invariant and slot index are re-verified after every mutation.
  //
  // Each case first grows the queue to `grow_to` live entries (341 fill the
  // 4-ary heap's root and the four levels below it), then runs its storm,
  // then drains. Times are drawn from `distinct_times` values (0 for a
  // continuous draw): the short lists make long runs of equal times, where
  // the tie keys alone decide the order. Tie keys are an odd multiple of
  // the insertion count, a bijection on 64 bits, so they are unique and
  // their order is not insertion order.
  struct Case {
    uint64_t seed;
    size_t grow_to;
    uint64_t distinct_times;
    int steps;
  };
  const Case cases[] = {
      {20260729, 0, 0, 4000},  // small, continuous times
      {11, 400, 0, 6000},      // five levels, continuous times
      {12, 400, 3, 6000},      // five levels, three distinct times
      {13, 1200, 1, 4000},     // six levels, one time: pure tie order
      {14, 700, 16, 6000},     // five to six levels, sixteen times
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "seed " << c.seed);
    EventQueue<int> q;
    Rng rng(c.seed);
    const auto draw_time = [&] {
      return c.distinct_times == 0
                 ? rng.uniform(0.0, 100.0)
                 : static_cast<double>(rng.below(c.distinct_times));
    };
    std::map<EventHandle, std::pair<double, uint64_t>> live;
    std::set<std::tuple<double, uint64_t, EventHandle>> ordered;
    std::map<EventHandle, int> payloads;
    int pushed = 0;
    size_t max_live = 0;
    const auto push = [&] {
      const double t = draw_time();
      const uint64_t tie =
          static_cast<uint64_t>(pushed) * 0x9e3779b97f4a7c15ULL;
      const EventHandle h = q.push(t, tie, pushed);
      live[h] = {t, tie};
      ordered.insert({t, tie, h});
      payloads[h] = pushed;
      ++pushed;
    };
    const auto pop = [&] {
      const auto expect = *ordered.begin();
      ASSERT_EQ(q.top_time(), std::get<0>(expect));
      ASSERT_EQ(q.pop(), payloads[std::get<2>(expect)]);
      ordered.erase(ordered.begin());
      payloads.erase(std::get<2>(expect));
      live.erase(std::get<2>(expect));
    };
    for (int step = 0; step < c.steps; ++step) {
      const double roll = rng.uniform();
      if (live.size() < c.grow_to || roll < 0.40 || live.empty()) {
        push();
      } else if (roll < 0.60) {
        // re-key a random live entry, possibly to its own time
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.below(live.size())));
        const double t = draw_time();
        ordered.erase({it->second.first, it->second.second, it->first});
        q.update(it->first, t);
        it->second.first = t;
        ordered.insert({t, it->second.second, it->first});
      } else if (roll < 0.80) {
        // erase a random live entry
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.below(live.size())));
        q.erase(it->first);
        ordered.erase({it->second.first, it->second.second, it->first});
        payloads.erase(it->first);
        live.erase(it);
      } else {
        pop();
      }
      ASSERT_TRUE(q.check_heap()) << "heap invariant broken at step " << step;
      ASSERT_EQ(q.size(), live.size());
      max_live = std::max(max_live, live.size());
    }
    EXPECT_GE(max_live, c.grow_to);
    // Drain: the full remaining order must match the model.
    while (!ordered.empty()) {
      pop();
      ASSERT_TRUE(q.check_heap());
    }
    EXPECT_TRUE(q.empty());
  }
}

}  // namespace
}  // namespace bwshare::core
