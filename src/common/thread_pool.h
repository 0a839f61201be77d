#ifndef AGORAEO_COMMON_THREAD_POOL_H_
#define AGORAEO_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace agoraeo {

/// Fixed-size worker pool used to parallelise archive synthesis, feature
/// extraction and training minibatch preparation.
///
/// Tasks are void() closures; Wait() blocks until the queue drains and all
/// in-flight tasks finish.  The destructor waits for outstanding work.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (>=1; 0 is clamped to 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.  Must not be called after destruction begins.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has completed.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Pins worker i to CPU i % hardware_concurrency — an opt-in
  /// affinity mode for measured shard-scaling runs where scheduler migration blurs each scan
  /// shard's cache residency.  Returns the number of workers actually
  /// pinned (0 on platforms without pthread affinity).
  size_t PinThreads();

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// Work is divided into contiguous chunks, one batch per worker.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

}  // namespace agoraeo

#endif  // AGORAEO_COMMON_THREAD_POOL_H_
