#pragma once

// Chunked bump arena for per-flush solve scratch.
//
// The steady-state event loop builds the same transient structures on every
// component solve: induced subgraphs, incidence buckets, the allocation
// problem handed to the max-min solver. An Arena serves those out of a few
// large chunks with pointer-bump allocation, so after warm-up a flush costs
// zero calls into the global allocator.
//
// Contract:
//   - allocate()/make_span() return storage valid until the next rewind()
//     past the corresponding mark (or reset()/destruction).
//   - Types placed in the arena must be trivially destructible; rewind does
//     not run destructors.
//   - Not thread-safe. Use one Arena per thread: thread_local_instance()
//     hands each thread (pool workers included) its own instance.
//   - reset() consolidates all chunks into a single chunk at least as large
//     as the high-water mark, so a warmed arena never grows again for
//     same-shaped workloads.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace bwshare::util {

class Arena {
 public:
  explicit Arena(std::size_t initial_capacity = 4096);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Raw storage, aligned to `align` (must be a power of two). The bump is
  // inline — a solve makes dozens of these per component, so the common case
  // must not pay a call; chunk advance/growth is the out-of-line tail.
  void* allocate(std::size_t bytes, std::size_t align) {
    BWS_ASSERT(align != 0 && (align & (align - 1)) == 0,
               "arena alignment must be a power of two");
    if (bytes == 0) bytes = 1;
    for (;;) {
      Chunk& c = chunks_[active_];
      const std::size_t base = reinterpret_cast<std::size_t>(c.data.get());
      const std::size_t at =
          ((base + c.used + align - 1) & ~(align - 1)) - base;
      if (at + bytes <= c.size) {
        c.used = at + bytes;
        return c.data.get() + at;
      }
      next_chunk(bytes + align);
    }
  }

  // A value-initialized span of n objects of trivially-destructible type T.
  template <typename T>
  std::span<T> make_span(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena storage is rewound without running destructors");
    if (n == 0) return {};
    T* p = static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
    std::uninitialized_value_construct_n(p, n);
    return {p, n};
  }

  // An uninitialized span for callers that overwrite every element.
  template <typename T>
  std::span<T> make_span_uninit(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena storage is rewound without running destructors");
    static_assert(std::is_trivially_default_constructible_v<T>,
                  "make_span_uninit requires a trivial type");
    if (n == 0) return {};
    T* p = static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
    return {p, n};
  }

  // Position bookmark: rewind() frees everything allocated after mark().
  // Storage allocated before the mark stays valid.
  struct Marker {
    std::size_t chunk = 0;
    std::size_t used = 0;
  };
  Marker mark() const;
  void rewind(const Marker& m);

  // RAII frame: rewinds to the construction-time mark on scope exit.
  class Frame {
   public:
    explicit Frame(Arena& arena) : arena_(arena), mark_(arena.mark()) {}
    ~Frame() { arena_.rewind(mark_); }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    Arena& arena_;
    Marker mark_;
  };

  // Drops all allocations and consolidates the chunk list into one chunk of
  // at least high-water capacity. One allocator call at most; afterwards a
  // repeat of the same workload is allocation-free.
  void reset();

  std::size_t capacity() const;  // total bytes owned across chunks
  std::size_t in_use() const;    // bytes handed out since the last full rewind

  // One arena per thread, created on first use. Pool workers each get their
  // own, so concurrent replays never contend on scratch.
  static Arena& thread_local_instance();

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  // Advance to a retained spare that fits `min_bytes`, or grow a new chunk.
  void next_chunk(std::size_t min_bytes);
  void grow(std::size_t min_bytes);

  // Fold the current in_use() into high_water_. Called only where in_use()
  // can fall (rewind, reset), so the bump path never pays the chunk loop.
  void note_high_water();

  // chunks_[0..active_] are live; chunks past active_ are retained spares
  // (kept so rewind() can cheaply reactivate them).
  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace bwshare::util
