#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace bwshare::util {
namespace {

using Deadline = std::chrono::steady_clock::time_point;

Deadline in_30_seconds() {
  return std::chrono::steady_clock::now() + std::chrono::seconds(30);
}

/// Count one arrival, then spin until `target` indices have arrived; false
/// if `deadline` passes first. Indices that all wait here can only all see
/// true if they run at the same time, each on its own thread.
bool rendezvous(std::atomic<int>& arrived, int target, Deadline deadline) {
  arrived.fetch_add(1);
  while (arrived.load() < target) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ParallelFor, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(hardware_threads(), 1);
}

TEST(ParallelFor, OneThreadRunsOnTheCallerInIndexOrder) {
  std::vector<int> order;
  std::vector<std::thread::id> ran_on;
  parallel_for(1, 6, [&](int i) {
    order.push_back(i);
    ran_on.push_back(std::this_thread::get_id());
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  for (const auto id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ParallelFor, AtMostOneIndexRunsOnTheCallerAtAnyThreadCount) {
  for (const int threads : {0, 2, 8}) {
    parallel_for(threads, 0, [](int) { FAIL() << "must not run"; });
    std::vector<std::thread::id> ran_on;
    parallel_for(threads, 1, [&](int i) {
      EXPECT_EQ(i, 0);
      ran_on.push_back(std::this_thread::get_id());
    });
    ASSERT_EQ(ran_on.size(), 1u);
    EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  }
}

TEST(ParallelFor, RejectsThreadCountsOutsideTheRangeBeforeRunningAnything) {
  // The check comes first, so a typo'd --threads starts no thread at all.
  std::atomic<int> ran{0};
  for (const int threads : {-1, INT_MIN, kMaxThreads + 1, INT_MAX}) {
    for (const int n : {0, 1, 5}) {
      EXPECT_THROW(parallel_for(threads, n, [&ran](int) { ++ran; }), Error)
          << "threads=" << threads << " n=" << n;
    }
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelFor, CoversEachIndexOnceOnAtMostThreadsThreads) {
  for (const int threads : {0, 2, 3, 8}) {
    std::vector<std::atomic<int>> hits(57);
    std::mutex mu;
    std::set<std::thread::id> ids;
    parallel_for(threads, 57, [&](int i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
      const std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "threads=" << threads;
    const int cap = threads == 0 ? hardware_threads() : threads;
    EXPECT_LE(static_cast<int>(ids.size()), cap) << "threads=" << threads;
  }
}

TEST(ParallelFor, EveryIndexRunsAndTheFirstExceptionIsRethrown) {
  // On one thread "first" is the lowest failing index; on several it is
  // whichever failed first, but every index still runs exactly once.
  std::vector<int> ran;
  try {
    parallel_for(1, 6, [&ran](int i) {
      ran.push_back(i);
      if (i == 2 || i == 4) throw Error("index " + std::to_string(i));
    });
    ADD_FAILURE() << "expected an Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("index 2"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3, 4, 5}));

  std::vector<std::atomic<int>> hits(40);
  EXPECT_THROW(parallel_for(4, 40,
                            [&hits](int i) {
                              hits[static_cast<size_t>(i)].fetch_add(1);
                              if (i % 7 == 3) throw Error("failed");
                            }),
               Error);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, NestedCallsComplete) {
  // Each call starts its own threads, so an index may fan out again, down
  // to a one-thread call inside a one-thread call.
  for (const int outer : {1, 3}) {
    for (const int inner : {1, 2}) {
      std::atomic<int> total{0};
      parallel_for(outer, 4, [&](int) {
        parallel_for(inner, 5, [&total](int) { total.fetch_add(1); });
      });
      EXPECT_EQ(total.load(), 20) << "outer=" << outer << " inner=" << inner;
    }
  }
}

TEST(ParallelFor, ZeroThreadsMeansHardwareThreads) {
  // hardware_threads() indices that each wait for all the others finish
  // only if the call ran hardware_threads() threads, caller included.
  const int hw = hardware_threads();
  const Deadline deadline = in_30_seconds();
  std::atomic<int> arrived{0};
  std::atomic<int> met{0};
  std::mutex mu;
  std::set<std::thread::id> ids;
  parallel_for(0, hw, [&](int) {
    if (rendezvous(arrived, hw, deadline)) met.fetch_add(1);
    const std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(met.load(), hw);
  EXPECT_EQ(static_cast<int>(ids.size()), hw);
}

TEST(ParallelFor, RunsOnAsManyThreadsAsTheSmallerOfThreadsAndIndices) {
  // The first min(threads, n) indices meet, so that many threads run at
  // once, and no more exist: kMaxThreads with 3 indices starts two threads.
  for (const auto& [threads, n] : std::vector<std::pair<int, int>>{
           {3, 3}, {4, 9}, {8, 2}, {kMaxThreads, 3}}) {
    const int expect = std::min(threads, n);
    const Deadline deadline = in_30_seconds();
    std::atomic<int> arrived{0};
    std::atomic<int> met{0};
    std::mutex mu;
    std::set<std::thread::id> ids;
    parallel_for(threads, n, [&](int) {
      if (rendezvous(arrived, expect, deadline)) met.fetch_add(1);
      const std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(met.load(), n) << "threads=" << threads << " n=" << n;
    EXPECT_EQ(static_cast<int>(ids.size()), expect)
        << "threads=" << threads << " n=" << n;
  }
}

TEST(ParallelFor, NonPositiveCountsRunNothingAtAnyThreadCount) {
  for (const int threads : {0, 1, 2, kMaxThreads}) {
    for (const int n : {0, -1, INT_MIN}) {
      EXPECT_NO_THROW(parallel_for(threads, n, [](int i) {
        ADD_FAILURE() << "ran index " << i;
      })) << "threads=" << threads << " n=" << n;
    }
  }
}

TEST(ParallelFor, AnExceptionOnAStartedThreadReachesTheCaller) {
  // Both indices meet, so one runs off the calling thread; only that one
  // throws.
  const auto caller = std::this_thread::get_id();
  const Deadline deadline = in_30_seconds();
  std::atomic<int> arrived{0};
  std::atomic<int> met{0};
  try {
    parallel_for(2, 2, [&](int) {
      if (rendezvous(arrived, 2, deadline)) met.fetch_add(1);
      if (std::this_thread::get_id() != caller)
        throw std::runtime_error("from a started thread");
    });
    ADD_FAILURE() << "expected the started thread's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "from a started thread");
  }
  EXPECT_EQ(met.load(), 2);
}

TEST(ParallelFor, TheRethrownExceptionKeepsItsType) {
  // Nothing is wrapped or sliced on the way back: not a std::exception, and
  // not a bwshare::Error either.
  for (const int threads : {1, 3}) {
    try {
      parallel_for(threads, 5, [](int i) {
        if (i == 3) throw std::out_of_range("slot 3");
      });
      ADD_FAILURE() << "expected std::out_of_range, threads=" << threads;
    } catch (const std::out_of_range& e) {
      EXPECT_STREQ(e.what(), "slot 3");
    }
    EXPECT_THROW(parallel_for(threads, 5,
                              [](int i) {
                                if (i == 1) throw 17;
                              }),
                 int)
        << "threads=" << threads;
  }
}

TEST(ParallelFor, ConcurrentCallsWaitOnlyForTheirOwnIndices) {
  // While one call is held up by an index that has not finished, a call
  // made from another thread runs and returns: calls share no queue.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::thread held([&] {
    parallel_for(2, 2, [&](int i) {
      if (i != 0) return;
      started.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!started.load()) std::this_thread::yield();
  std::atomic<int> done{0};
  parallel_for(2, 6, [&done](int) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 6);
  EXPECT_FALSE(release.load());
  release.store(true);
  held.join();
}

TEST(ParallelFor, TheCallerJoinsEveryThreadBeforeRethrowing) {
  // The calling thread's own index throws while the other index is still
  // running; the exception surfaces only after that index has finished.
  const auto caller = std::this_thread::get_id();
  const Deadline deadline = in_30_seconds();
  std::atomic<int> arrived{0};
  std::atomic<bool> met{false};
  std::atomic<bool> other_finished{false};
  const auto body = [&](int) {
    const bool both = rendezvous(arrived, 2, deadline);
    if (std::this_thread::get_id() == caller) throw Error("the caller's index");
    met.store(both);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    other_finished.store(true);
  };
  EXPECT_THROW(parallel_for(2, 2, body), Error);
  EXPECT_TRUE(met.load());
  EXPECT_TRUE(other_finished.load());
}

}  // namespace
}  // namespace bwshare::util
