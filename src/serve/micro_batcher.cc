#include "serve/micro_batcher.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace rpg::serve {

namespace {
/// EWMA smoothing for per-item service time: ~0.2 weights the last
/// dozen-ish batches, enough to track load shifts without flapping the
/// Retry-After hint on every outlier batch.
constexpr double kEwmaAlpha = 0.2;
}  // namespace

MicroBatcher::MicroBatcher(core::BatchEngine* engine,
                           MicroBatcherOptions options)
    : engine_(engine), options_(options) {
  RPG_CHECK(engine_ != nullptr);
  if (options_.max_batch_size == 0) options_.max_batch_size = 1;
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

MicroBatcher::~MicroBatcher() { Shutdown(); }

void MicroBatcher::SubmitAsync(core::BatchQuery query, Callback callback) {
  Pending p;
  p.query = std::move(query);
  p.callback = std::move(callback);
  p.enqueued = std::chrono::steady_clock::now();
  Status rejected = Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      rejected = Status::FailedPrecondition("MicroBatcher is shut down");
    } else if (options_.max_queue_depth > 0 &&
               pending_.size() >= options_.max_queue_depth) {
      // Overload shed: beyond this point queueing only grows latency
      // for everyone; better to fail fast and let the client retry.
      // The Retry-After hint is the measured time to drain what is
      // already queued, so well-behaved clients come back when a slot
      // is actually likely to exist.
      ++stats_.rejected_overload;
      rejected = Status::Unavailable(
                     "micro-batch queue full (" +
                     std::to_string(options_.max_queue_depth) + " waiting)")
                     .WithRetryAfter(RetryAfterSecondsLocked());
    } else {
      pending_.push_back(std::move(p));
      ++stats_.requests;
      cv_.notify_all();
      return;
    }
  }
  // Rejected: complete inline on the caller (never under mu_).
  p.callback(std::move(rejected));
}

void MicroBatcher::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

MicroBatcherStats MicroBatcher::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  MicroBatcherStats stats = stats_;
  stats.queue_depth = pending_.size();
  stats.ewma_item_seconds = ewma_item_seconds_;
  return stats;
}

int MicroBatcher::RetryAfterSecondsLocked() const {
  const double drain =
      ewma_item_seconds_ * static_cast<double>(pending_.size());
  return static_cast<int>(std::clamp(std::ceil(drain), 1.0, 30.0));
}

void MicroBatcher::DispatchLoop() {
  for (;;) {
    std::deque<Pending> batch;
    std::vector<Callback> expired;
    int expired_retry_after = 1;
    bool flushed_on_size = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return !pending_.empty() || shutdown_; });
      if (pending_.empty() && shutdown_) return;
      // Wait until the batch fills or the oldest request's deadline
      // passes. Shutdown flushes immediately (drain semantics).
      auto deadline = pending_.front().enqueued + options_.flush_window;
      while (pending_.size() < options_.max_batch_size && !shutdown_) {
        if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
      }
      // Queue deadline: entries that waited past queue_deadline are
      // expired, not solved — their callers have given up (or will, by
      // the time the engine would finish). The deque is FIFO, so the
      // expired prefix is exactly the over-age set.
      if (options_.queue_deadline.count() > 0) {
        const auto now = std::chrono::steady_clock::now();
        while (!pending_.empty() &&
               now - pending_.front().enqueued > options_.queue_deadline) {
          expired.push_back(std::move(pending_.front().callback));
          pending_.pop_front();
          ++stats_.deadline_expired;
        }
        if (!expired.empty()) {
          expired_retry_after = RetryAfterSecondsLocked();
        }
      }
      flushed_on_size = pending_.size() >= options_.max_batch_size;
      size_t take = std::min(pending_.size(), options_.max_batch_size);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(pending_.front()));
        pending_.pop_front();
      }
      if (!batch.empty()) {
        ++stats_.batches;
        if (flushed_on_size) {
          ++stats_.flushes_on_size;
        } else {
          ++stats_.flushes_on_deadline;
        }
        stats_.max_batch_size_seen =
            std::max(stats_.max_batch_size_seen, batch.size());
      }
    }
    // Expired completions fire outside mu_, like every other callback.
    for (Callback& callback : expired) {
      callback(Status::DeadlineExceeded(
                   "request expired in micro-batch queue")
                   .WithRetryAfter(expired_retry_after));
    }
    if (!batch.empty()) RunBatch(std::move(batch));
  }
}

void MicroBatcher::RunBatch(std::deque<Pending> batch) {
  std::vector<core::BatchQuery> queries;
  queries.reserve(batch.size());
  const auto dispatched = std::chrono::steady_clock::now();
  for (const Pending& p : batch) {
    // Queue-time span: enqueue (any submitter thread) -> batch assembly
    // (this dispatcher thread); the handoff through mu_ orders the
    // submitter's earlier trace writes before ours.
    if (p.query.trace) {
      p.query.trace->AddSpanBetween(obs::Stage::kBatchQueue, p.enqueued,
                                    dispatched);
    }
    queries.push_back(p.query);
  }
  core::BatchResult result = engine_->Run(queries);
  RPG_CHECK(result.results.size() == batch.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    const double per_item =
        result.wall_seconds / static_cast<double>(batch.size());
    ewma_item_seconds_ = ewma_item_seconds_ == 0
                             ? per_item
                             : kEwmaAlpha * per_item +
                                   (1 - kEwmaAlpha) * ewma_item_seconds_;
  }
  if (options_.on_batch) options_.on_batch(batch.size(), result.wall_seconds);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].callback(std::move(result.results[i]));
  }
}

}  // namespace rpg::serve
