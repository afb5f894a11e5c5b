// Fan-out for independent replays: the eval::Sweep and eval::Campaign
// runners and serve::QueryService batches. One call runs every index on
// the calling thread plus threads started for that call, and joins them
// before it returns. Determinism is the caller's job: every caller writes
// index i's result into its own pre-sized slot and reads the slots in
// index order after the call, so output never depends on which thread ran
// an index or on the thread count.
#pragma once

#include <functional>

namespace bwshare::util {

/// std::thread::hardware_concurrency() clamped to >= 1.
[[nodiscard]] int hardware_threads();

/// Largest thread count parallel_for accepts.
inline constexpr int kMaxThreads = 4096;

/// Run fn(0), ..., fn(n-1) on the calling thread plus min(threads, n) - 1
/// threads started for this call, each taking the next unclaimed index.
///   * `threads` must be in [0, kMaxThreads], checked before any index runs
///     (bwshare::Error otherwise); 0 means hardware_threads().
///   * With threads == 1 or n <= 1, every index runs on the calling thread
///     in index order and no thread is started.
///   * Every index runs even after one throws; the first exception thrown
///     is rethrown once all threads have joined.
///   * Nested calls are safe: each call starts its own threads.
void parallel_for(int threads, int n, const std::function<void(int)>& fn);

}  // namespace bwshare::util
