#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bwshare::util {

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void parallel_for(int threads, int n, const std::function<void(int)>& fn) {
  BWS_CHECK(threads >= 0 && threads <= kMaxThreads,
            strformat("parallel_for: threads must be in [0, %d], got %d",
                      kMaxThreads, threads));
  if (threads == 0) threads = hardware_threads();

  std::atomic<int> next{0};
  std::mutex mu;
  std::exception_ptr first_error;  // guarded by mu
  const auto drain = [&] {
    for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> helpers;
  // n <= 1 first: std::min(threads, INT_MIN) - 1 would overflow.
  const int extra = n <= 1 ? 0 : std::min(threads, n) - 1;
  if (extra > 0) helpers.reserve(static_cast<size_t>(extra));
  for (int k = 0; k < extra; ++k) {
    try {
      helpers.emplace_back(drain);
    } catch (...) {
      // No thread to be had (rlimit, memory): the threads already started
      // and the caller still run every index, and all of them are joined.
      break;
    }
  }
  drain();
  for (auto& helper : helpers) helper.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace bwshare::util
