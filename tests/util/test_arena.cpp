// util::Arena — the chunked bump arena behind the engine's per-flush solve
// scratch (docs/PERFORMANCE.md "Memory layout").
//
// The contract under test: aligned bump allocation, marker/rewind and Frame
// semantics, geometric growth under overflow, and the reset() consolidation
// guarantee — after one reset at the high-water mark, repeating the same
// workload never calls the global allocator again (the property the
// zero-allocation bench columns and tests/sim/test_engine_alloc.cpp rely on).
#include "util/arena.hpp"

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/alloc_counter.hpp"

namespace bwshare::util {
namespace {

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena(256);
  void* a = arena.allocate(3, 1);
  void* b = arena.allocate(5, 8);
  void* c = arena.allocate(1, 64);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 64, 0u);
  // Writes through one pointer must not clobber another allocation.
  std::memset(a, 0xaa, 3);
  std::memset(b, 0xbb, 5);
  std::memset(c, 0xcc, 1);
  EXPECT_EQ(*static_cast<unsigned char*>(a), 0xaa);
  EXPECT_EQ(*static_cast<unsigned char*>(b), 0xbb);
  EXPECT_EQ(*static_cast<unsigned char*>(c), 0xcc);
}

TEST(Arena, ZeroByteAllocationsGetDistinctAddresses) {
  Arena arena;
  void* a = arena.allocate(0, 1);
  void* b = arena.allocate(0, 1);
  EXPECT_NE(a, b);
}

TEST(Arena, MakeSpanValueInitializes) {
  Arena arena;
  // Dirty the storage first so value-init has something to scrub.
  auto dirty = arena.make_span_uninit<uint64_t>(64);
  for (auto& v : dirty) v = ~0ULL;
  arena.rewind(Arena::Marker{});
  const auto ints = arena.make_span<int>(32);
  ASSERT_EQ(ints.size(), 32u);
  for (const int v : ints) EXPECT_EQ(v, 0);
  const auto doubles = arena.make_span<double>(8);
  for (const double v : doubles) EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(arena.make_span<int>(0).empty());
}

TEST(Arena, GrowsPastTheInitialChunk) {
  Arena arena(1024);
  const std::size_t cap0 = arena.capacity();
  std::vector<std::span<uint64_t>> spans;
  for (int i = 0; i < 64; ++i) {
    auto s = arena.make_span<uint64_t>(257);  // > 2 KiB each
    // Every span stays writable while earlier ones hold their contents.
    for (auto& v : s) v = static_cast<uint64_t>(i);
    spans.push_back(s);
  }
  EXPECT_GT(arena.capacity(), cap0);
  for (int i = 0; i < 64; ++i)
    for (const uint64_t v : spans[static_cast<size_t>(i)])
      ASSERT_EQ(v, static_cast<uint64_t>(i));
}

TEST(Arena, RewindFreesEverythingPastTheMark) {
  Arena arena(1024);
  (void)arena.make_span<double>(16);
  const auto m = arena.mark();
  const std::size_t before = arena.in_use();
  (void)arena.make_span<double>(4096);  // forces extra chunks
  EXPECT_GT(arena.in_use(), before);
  arena.rewind(m);
  EXPECT_EQ(arena.in_use(), before);
  // The rewound storage is handed out again.
  void* again = arena.allocate(8, 8);
  arena.rewind(m);
  EXPECT_EQ(arena.allocate(8, 8), again);
}

TEST(Arena, FrameRewindsOnScopeExit) {
  Arena arena;
  (void)arena.make_span<int>(10);
  const std::size_t outer = arena.in_use();
  {
    Arena::Frame frame(arena);
    (void)arena.make_span<int>(1000);
    EXPECT_GT(arena.in_use(), outer);
  }
  EXPECT_EQ(arena.in_use(), outer);
}

TEST(Arena, ResetConsolidationMakesRepeatWorkloadsAllocationFree) {
  Arena arena(1024);
  const auto workload = [&arena] {
    Arena::Frame frame(arena);
    for (int i = 0; i < 16; ++i) (void)arena.make_span<double>(300);
  };
  workload();           // grows chunk by chunk
  arena.reset();        // consolidates to >= high water
  workload();           // warms nothing new: one chunk fits the workload
  const uint64_t a0 = alloc_count();
  for (int rep = 0; rep < 10; ++rep) workload();
  EXPECT_EQ(alloc_count(), a0);
  EXPECT_EQ(arena.in_use(), 0u);
}

TEST(Arena, ResetCoversAllocationsThatWereNeverRewound) {
  // The high-water mark is folded in when in_use() falls, and reset() is one
  // of those points: a workload that never rewinds must still be covered by
  // the consolidated chunk.
  Arena arena(1024);
  const auto workload = [&arena] {
    for (int i = 0; i < 16; ++i) (void)arena.make_span<double>(300);
  };
  workload();  // grows chunk by chunk; nothing is rewound
  arena.reset();
  EXPECT_GE(arena.capacity(), 16 * 300 * sizeof(double));
  const uint64_t a0 = alloc_count();
  workload();
  EXPECT_EQ(alloc_count(), a0);
}

TEST(Arena, ThreadLocalInstancesAreDistinct) {
  Arena* main_arena = &Arena::thread_local_instance();
  EXPECT_EQ(main_arena, &Arena::thread_local_instance());
  Arena* worker_arena = nullptr;
  std::thread([&] { worker_arena = &Arena::thread_local_instance(); }).join();
  EXPECT_NE(worker_arena, nullptr);
  EXPECT_NE(worker_arena, main_arena);
}

}  // namespace
}  // namespace bwshare::util
