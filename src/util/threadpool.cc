#include "util/threadpool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace infuserki::util {
namespace {

/// Process-wide pool metrics, shared by every ThreadPool instance. Resolved
/// once; the update paths below are relaxed atomics.
struct PoolMetrics {
  obs::Counter* scheduled;
  obs::Counter* completed;
  obs::Gauge* queue_depth;
  obs::Gauge* queue_depth_max;
  obs::Histogram* queue_wait_seconds;
  obs::Histogram* task_seconds;
};

PoolMetrics& Metrics() {
  // Locking contract: resolved once under the magic-static guard; the
  // pointers are immutable afterwards and every metric update is a relaxed
  // atomic on the (lock-free) metric objects themselves.
  static PoolMetrics* metrics = [] {
    obs::Registry& registry = obs::Registry::Get();
    return new PoolMetrics{
        registry.GetCounter("threadpool/tasks_scheduled"),
        registry.GetCounter("threadpool/tasks_completed"),
        registry.GetGauge("threadpool/queue_depth"),
        registry.GetGauge("threadpool/queue_depth_max"),
        registry.GetHistogram("threadpool/queue_wait_seconds"),
        registry.GetHistogram("threadpool/task_seconds")};
  }();
  return *metrics;
}

/// Set for the lifetime of each pool worker thread, and on a caller while
/// it runs its own share of a parallel loop; lets nested parallel loops
/// detect they are already on a worker and run inline rather than
/// scheduling-and-waiting (which would deadlock once every worker blocks
/// in a wait).
thread_local bool t_on_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  Metrics();  // registers the pool metrics even if no task is ever queued
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Schedule(std::function<void()> fn) {
  PoolMetrics& metrics = Metrics();
  size_t depth;
  {
    MutexLock lock(mu_);
    queue_.push(Task{std::move(fn), obs::NowMicros()});
    ++in_flight_;
    depth = queue_.size();
  }
  metrics.scheduled->Increment();
  metrics.queue_depth->Set(static_cast<double>(depth));
  metrics.queue_depth_max->UpdateMax(static_cast<double>(depth));
  work_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) all_done_.Wait(mu_);
}

void ThreadPool::WorkerLoop() {
  t_on_pool_worker = true;
  PoolMetrics& metrics = Metrics();
  for (;;) {
    Task task;
    {
      MutexLock lock(mu_);
      while (!shutting_down_ && queue_.empty()) work_available_.Wait(mu_);
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
      metrics.queue_depth->Set(static_cast<double>(queue_.size()));
    }
    int64_t start_us = obs::NowMicros();
    metrics.queue_wait_seconds->Record(
        static_cast<double>(start_us - task.enqueue_us) * 1e-6);
    task.fn();
    metrics.task_seconds->Record(
        static_cast<double>(obs::NowMicros() - start_us) * 1e-6);
    metrics.completed->Increment();
    {
      MutexLock lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

ThreadPool& GlobalThreadPool() {
  // Locking contract: magic-static first touch; all post-init mutable pool
  // state (queue_, in_flight_, shutting_down_) is GUARDED_BY(ThreadPool::mu_)
  // — compiler-enforced under the tsa preset (DESIGN.md §13) — and workers_
  // is immutable after construction.
  static ThreadPool* pool = [] {
    // INFUSERKI_NUM_THREADS overrides hardware concurrency — lets the TSan
    // race gate force real interleaving on single-core hosts (where the
    // parallel loops would otherwise run inline) and lets deployments pin
    // the pool width.
    size_t num_threads = 0;  // 0 -> hardware concurrency
    const char* env = std::getenv("INFUSERKI_NUM_THREADS");
    if (env != nullptr && env[0] != '\0') {
      char* end = nullptr;
      unsigned long parsed = std::strtoul(env, &end, 10);
      if (end != env && *end == '\0') num_threads = parsed;
    }
    return new ThreadPool(num_threads);
  }();
  return *pool;
}

bool OnGlobalPoolWorker() { return t_on_pool_worker; }

namespace {

/// Runs fn(0), ..., fn(n - 1) and returns once all of them have finished.
/// The calling thread and up to `pool.num_threads() - 1` pool tasks claim
/// indices in order from a shared counter until none is left, so the call
/// occupies at most as many threads as the pool has, and the caller —
/// which would otherwise sit idle in the wait — works instead. The
/// completion group is private to this call: unlike ThreadPool::Wait it
/// never waits for other callers' tasks, nor for its own tasks that start
/// after every index is done.
void RunGroup(ThreadPool& pool, size_t n,
              const std::function<void(size_t)>& fn) {
  struct Group {
    std::atomic<size_t> next{0};
    Mutex mu;
    CondVar done;
    size_t finished GUARDED_BY(mu) = 0;
  };
  // Shared with the tasks: a task may start after this call has returned
  // (and then finds no index left), so the group must outlive this frame.
  auto group = std::make_shared<Group>();
  auto claim_and_run = [group, n, &fn] {
    for (size_t i = group->next++; i < n; i = group->next++) {
      fn(i);
      MutexLock lock(group->mu);
      if (++group->finished == n) group->done.NotifyAll();
    }
  };
  size_t helpers = std::min(n, pool.num_threads()) - 1;
  for (size_t h = 0; h < helpers; ++h) pool.Schedule(claim_and_run);
  // The caller runs its share as a worker would: loops nested in it run
  // inline rather than queueing behind this group's own tasks. It is not a
  // worker otherwise, or the parallel loop would have run inline.
  t_on_pool_worker = true;
  claim_and_run();
  t_on_pool_worker = false;
  MutexLock lock(group->mu);
  while (group->finished != n) group->done.Wait(group->mu);
}

}  // namespace

void ParallelFor(ThreadPool& pool, size_t n, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  size_t num_workers = pool.num_threads();
  if (n <= grain || num_workers <= 1 || t_on_pool_worker) {
    fn(0, n);
    return;
  }
  // One chunk per worker at most. Rounding the chunk size up can leave
  // fewer chunks than that; none is ever empty.
  size_t num_chunks = std::min(num_workers, (n + grain - 1) / grain);
  size_t chunk = (n + num_chunks - 1) / num_chunks;
  num_chunks = (n + chunk - 1) / chunk;
  RunGroup(pool, num_chunks, [chunk, n, &fn](size_t c) {
    size_t begin = c * chunk;
    fn(begin, std::min(begin + chunk, n));
  });
}

void ParallelFor(size_t n, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  ParallelFor(GlobalThreadPool(), n, grain, fn);
}

void ParallelForEach(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  ThreadPool& pool = GlobalThreadPool();
  if (n == 1 || pool.num_threads() <= 1 || t_on_pool_worker) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  RunGroup(pool, n, fn);
}

}  // namespace infuserki::util
