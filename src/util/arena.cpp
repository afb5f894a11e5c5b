#include "util/arena.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace bwshare::util {

namespace {
constexpr std::size_t kMinChunk = 1024;
}  // namespace

Arena::Arena(std::size_t initial_capacity) {
  Chunk c;
  c.size = std::max(initial_capacity, kMinChunk);
  c.data = std::make_unique<std::byte[]>(c.size);
  chunks_.push_back(std::move(c));
}

Arena::~Arena() = default;

void Arena::next_chunk(std::size_t min_bytes) {
  // Advance to a retained spare if one fits, otherwise grow.
  if (active_ + 1 < chunks_.size() && chunks_[active_ + 1].size >= min_bytes) {
    ++active_;
    chunks_[active_].used = 0;
  } else {
    grow(min_bytes);
  }
}

void Arena::grow(std::size_t min_bytes) {
  // Geometric growth keyed off total capacity so repeated overflow converges
  // in O(log n) chunks.
  std::size_t want = std::max(min_bytes, capacity());
  Chunk c;
  c.size = std::max(want, kMinChunk);
  c.data = std::make_unique<std::byte[]>(c.size);
  // Drop unusably small spares beyond the active chunk, then append.
  chunks_.resize(active_ + 1);
  chunks_.push_back(std::move(c));
  ++active_;
  chunks_[active_].used = 0;
}

Arena::Marker Arena::mark() const {
  return Marker{active_, chunks_[active_].used};
}

void Arena::note_high_water() {
  const std::size_t used_now = in_use();
  if (used_now > high_water_) high_water_ = used_now;
}

void Arena::rewind(const Marker& m) {
  BWS_ASSERT(m.chunk <= active_, "arena rewind to a future mark");
  note_high_water();
  // Chunks after m.chunk stay owned (as spares) but their contents are freed.
  for (std::size_t i = m.chunk + 1; i <= active_; ++i) chunks_[i].used = 0;
  active_ = m.chunk;
  chunks_[active_].used = m.used;
}

void Arena::reset() {
  note_high_water();
  std::size_t want = std::max(high_water_, chunks_[0].size);
  if (chunks_.size() == 1 && chunks_[0].size >= want) {
    chunks_[0].used = 0;
    active_ = 0;
    return;
  }
  Chunk c;
  c.size = want;
  c.data = std::make_unique<std::byte[]>(c.size);
  chunks_.clear();
  chunks_.push_back(std::move(c));
  active_ = 0;
}

std::size_t Arena::capacity() const {
  std::size_t total = 0;
  for (const Chunk& c : chunks_) total += c.size;
  return total;
}

std::size_t Arena::in_use() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i <= active_; ++i) total += chunks_[i].used;
  return total;
}

Arena& Arena::thread_local_instance() {
  thread_local Arena arena(1 << 16);
  return arena;
}

}  // namespace bwshare::util
