#ifndef RPG_COMMON_THREAD_POOL_H_
#define RPG_COMMON_THREAD_POOL_H_

/// \file
/// Fixed-size worker pool over a single FIFO task queue.
///
/// Ownership / thread-safety model:
///  - The pool owns its `std::thread` workers; the destructor (or an
///    explicit Shutdown()) drains every task already submitted, then
///    joins. Tasks never outlive the pool.
///  - Submit() is safe to call from any thread, including from inside a
///    running task — even while a Shutdown() is draining, in which case
///    the still-running worker guarantees the new task executes.
///    Submitting from a NON-worker thread after Shutdown() has begun is
///    a programmer error (RPG_CHECK): the workers may already be gone
///    and the task could never run.
///  - Tasks run exactly once, in FIFO order per queue pop; with more than
///    one worker, completion order is unspecified.
///  - Exceptions thrown by a task are captured into the returned
///    std::future and rethrown from future::get() — they never escape a
///    worker thread.
///
/// This is the execution substrate of core::BatchEngine (one worker =
/// one reusable core::QueryScratch per Run); kept deliberately minimal —
/// no priorities, no work stealing — because RePaGer batch queries are
/// coarse-grained and embarrassingly parallel. The serving path does not
/// use it: serve::MicroBatcher runs its own long-lived solver threads.

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace rpg {

/// Resolves a thread-count knob where `<= 0` means "one per hardware
/// thread": `requested` if positive, else
/// std::thread::hardware_concurrency() (1 when unknown).
size_t ResolveThreadCount(int requested);

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (must be >= 1). Workers idle on a
  /// condition variable until tasks arrive.
  explicit ThreadPool(size_t num_threads);

  /// Equivalent to Shutdown(): drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues `fn` and returns a future for its result. The future's
  /// get() rethrows any exception the task threw.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Enqueue([task]() { (*task)(); });
    return future;
  }

  /// Stops accepting new tasks, runs everything already queued, joins the
  /// workers. Idempotent; called by the destructor.
  void Shutdown();

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();
  bool OnWorkerThread() const;

  std::vector<std::thread> workers_;
  // Immutable after construction; lets Enqueue accept worker-thread
  // submits even mid-Shutdown (the submitting worker is alive and will
  // drain them), while rejecting external submits that could be dropped.
  std::vector<std::thread::id> worker_ids_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool shutting_down_ = false;
};

}  // namespace rpg

#endif  // RPG_COMMON_THREAD_POOL_H_
