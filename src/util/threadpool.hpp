// Fixed-size worker pool for CPU-bound fan-out (the eval::Sweep and
// eval::Campaign runners and serve::QueryService). Deliberately minimal:
// submit void() jobs, wait until the queue drains — or scope a batch with a
// TaskGroup and wait for just that batch, which lets several clients share
// one pool without waiting on each other's work. Determinism is the
// caller's job — sweep jobs write results into pre-allocated slots keyed by
// job index and the query service commits its replays in job order, so
// output never depends on completion order or thread count.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bwshare::util {

class ThreadPool {
 public:
  /// Spawn `num_threads` workers; 0 means hardware_threads().
  explicit ThreadPool(int num_threads = 0);
  /// Joins all workers; pending jobs still in the queue are discarded.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a job. Jobs may themselves submit further jobs.
  void submit(std::function<void()> job);

  /// Block until every submitted job has finished. If any job threw, the
  /// first exception is rethrown here (later ones are dropped). The pool
  /// stays usable after wait_idle().
  void wait_idle();

  [[nodiscard]] int num_threads() const {
    return static_cast<int>(workers_.size());
  }

  /// True when the calling thread is one of *this* pool's workers. Used by
  /// TaskGroup::wait to refuse blocking a worker on work only workers can
  /// run (the classic nested-wait deadlock).
  [[nodiscard]] bool on_worker_thread() const;

  /// std::thread::hardware_concurrency() clamped to >= 1.
  [[nodiscard]] static int hardware_threads();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_work_;   // workers wait for jobs
  std::condition_variable cv_idle_;   // wait_idle waits for quiescence
  size_t in_flight_ = 0;              // jobs popped but not finished
  bool stop_ = false;
  std::exception_ptr first_error_;    // guarded by mu_
};

/// A waitable batch of jobs on a shared ThreadPool. Unlike
/// ThreadPool::wait_idle — which waits for *every* job in the pool —
/// TaskGroup::wait blocks only until this group's own tasks finish, so
/// independent clients (e.g. concurrent parallel_for batches) can share a
/// pool without serializing on each other.
///
/// Semantics:
///   * run() may be called from any thread, including from inside a pool
///     worker (a group task may spawn more tasks into its own group);
///   * wait() rethrows the first exception any task of the group threw
///     (later ones are dropped) and leaves the group empty and reusable;
///   * wait() from a pool worker throws bwshare::Error instead of
///     deadlocking: a worker blocked in wait() cannot run the queued tasks
///     it is waiting for (with every worker waiting, nobody runs anything);
///   * the destructor blocks until the group drains, discarding any pending
///     exception — call wait() explicitly to observe errors.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submit one task into the group.
  void run(std::function<void()> task);

  /// Block until every task of this group has finished; rethrow the first
  /// task exception. The group is empty and reusable afterwards. Must not
  /// be called from one of the pool's own workers (throws).
  void wait();

 private:
  ThreadPool& pool_;
  std::mutex mu_;
  std::condition_variable cv_done_;
  size_t pending_ = 0;                // guarded by mu_
  std::exception_ptr first_error_;    // guarded by mu_
};

/// Run fn(0), ..., fn(n-1) across the pool and wait for all of them.
/// Rethrows the first exception any iteration produced. Scoped through a
/// TaskGroup, so only its own iterations are awaited — other work sharing
/// the pool neither delays nor is delayed by this call.
void parallel_for(ThreadPool& pool, int n, const std::function<void(int)>& fn);

}  // namespace bwshare::util
