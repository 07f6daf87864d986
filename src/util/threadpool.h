#ifndef INFUSERKI_UTIL_THREADPOOL_H_
#define INFUSERKI_UTIL_THREADPOOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace infuserki::util {

/// Fixed-size worker pool used to parallelize matmul-shaped loops.
///
/// Thread-safe. Destruction joins all workers after draining the queue.
/// Publishes obs metrics: threadpool/tasks_{scheduled,completed} counters,
/// threadpool/queue_depth{,_max} gauges, and queue-wait / task-run-time
/// histograms (shared across all pool instances in the process).
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware concurrency.
  explicit ThreadPool(size_t num_threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Enqueues a task for asynchronous execution.
  void Schedule(std::function<void()> fn) EXCLUDES(mu_);

  /// Blocks until all scheduled tasks have finished.
  void Wait() EXCLUDES(mu_);

  size_t num_threads() const { return workers_.size(); }

 private:
  struct Task {
    std::function<void()> fn;
    int64_t enqueue_us = 0;  // obs::NowMicros() at Schedule() time
  };

  void WorkerLoop();

  Mutex mu_;
  CondVar work_available_;
  CondVar all_done_;
  std::queue<Task> queue_ GUARDED_BY(mu_);
  std::vector<std::thread> workers_;  // immutable after construction
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  bool shutting_down_ GUARDED_BY(mu_) = false;
};

/// Returns the process-wide shared pool (lazily created, never destroyed,
/// per the static-storage-duration rules). Sized to hardware concurrency
/// unless the INFUSERKI_NUM_THREADS environment variable (read once, at
/// first touch) overrides it — used by the TSan race gate to force real
/// interleaving on single-core hosts and by deployments to pin pool width.
ThreadPool& GlobalThreadPool();

/// True when the calling thread is a pool worker (of any pool), or a
/// caller running its own share of a ParallelFor / ParallelForEach. Used to
/// run nested parallel loops inline instead of deadlocking once every
/// worker blocks in a wait.
bool OnGlobalPoolWorker();

/// Splits [0, n) into at most `pool.num_threads()` contiguous chunks of at
/// least `grain` indices and runs `fn(begin, end)` on each. The calling
/// thread and pool workers claim chunks in order until none is left, so
/// the loop occupies at most `pool.num_threads()` threads, the caller
/// among them. Blocks until all of THESE chunks finish (a private
/// completion group — unlike ThreadPool::Wait it does not wait for
/// unrelated tasks and is safe to call concurrently from several threads).
/// Runs inline when `n` is small, only one thread exists, or the caller is
/// itself a pool worker (nested parallelism).
void ParallelFor(ThreadPool& pool, size_t n, size_t grain,
                 const std::function<void(size_t, size_t)>& fn);

/// ParallelFor on the global pool.
void ParallelFor(size_t n, size_t grain,
                 const std::function<void(size_t, size_t)>& fn);

/// Runs `fn(i)` for every i in [0, n) on the global pool, the calling
/// thread and pool workers claiming indices as ParallelFor claims chunks,
/// and blocks until all of THESE indices finish. Intended for
/// coarse-grained fan-out (e.g. one MCQ evaluation per index) whose bodies
/// may themselves call ParallelFor; those nested loops run inline. Runs
/// inline when parallelism is unavailable.
void ParallelForEach(size_t n, const std::function<void(size_t)>& fn);

}  // namespace infuserki::util

#endif  // INFUSERKI_UTIL_THREADPOOL_H_
