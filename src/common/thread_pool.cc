#include "common/thread_pool.h"

#include "common/logging.h"

namespace rpg {

size_t ResolveThreadCount(int requested) {
  if (requested > 0) return static_cast<size_t>(requested);
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(size_t num_threads) {
  RPG_CHECK(num_threads > 0) << "thread pool needs at least one worker";
  workers_.reserve(num_threads);
  worker_ids_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
    worker_ids_.push_back(workers_.back().get_id());
  }
}

bool ThreadPool::OnWorkerThread() const {
  std::thread::id self = std::this_thread::get_id();
  for (std::thread::id id : worker_ids_) {
    if (id == self) return true;
  }
  return false;
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A worker submitting mid-drain is fine: that worker is still alive
    // and will loop back to run the task before exiting.
    RPG_CHECK(!shutting_down_ || OnWorkerThread())
        << "Submit from outside the pool after Shutdown";
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      // Drain the queue even when shutting down so Shutdown() == "finish
      // all submitted work".
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace rpg
