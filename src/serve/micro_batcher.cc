#include "serve/micro_batcher.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"

namespace rpg::serve {

namespace {
/// EWMA smoothing for per-solve service time: ~0.2 weights the last
/// dozen-ish solves, enough to track load shifts without flapping the
/// Retry-After hint on every outlier query.
constexpr double kEwmaAlpha = 0.2;
}  // namespace

MicroBatcher::MicroBatcher(size_t num_solvers, MicroBatcherOptions options,
                           std::function<void(double)> on_solve)
    : options_(options), on_solve_(std::move(on_solve)) {
  num_solvers = std::max<size_t>(num_solvers, 1);
  solvers_.reserve(num_solvers);
  for (size_t i = 0; i < num_solvers; ++i) {
    solvers_.emplace_back([this] { SolverLoop(); });
  }
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
                     "solver queue full (" +
                     std::to_string(options_.max_queue_depth) + " waiting)")
                     .WithRetryAfter(RetryAfterSecondsLocked());
    } else {
      pending_.push_back(std::move(p));
      ++stats_.requests;
      cv_.notify_one();
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
  for (std::thread& solver : solvers_) {
    if (solver.joinable()) solver.join();
  }
}

MicroBatcherStats MicroBatcher::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  MicroBatcherStats stats = stats_;
  stats.queue_depth = pending_.size();
  stats.ewma_item_seconds = ewma_item_seconds_;
  return stats;
}

int MicroBatcher::RetryAfterSecondsLocked() const {
  const double drain = ewma_item_seconds_ *
                       static_cast<double>(pending_.size()) /
                       static_cast<double>(solvers_.size());
  return static_cast<int>(std::clamp(std::ceil(drain), 1.0, 30.0));
}

void MicroBatcher::SolverLoop() {
  core::QueryScratch scratch;
  for (;;) {
    Pending next;
    bool have_next = false;
    std::vector<Callback> expired;
    int expired_retry_after = 1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return !pending_.empty() || shutdown_; });
      // Shutdown drains: solvers exit only once the queue is empty.
      if (pending_.empty()) return;
      // Queue deadline: entries that waited past queue_deadline are
      // expired, not solved — their callers have given up (or will, by
      // the time the solve would finish). The deque is FIFO, so the
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
      if (!pending_.empty()) {
        next = std::move(pending_.front());
        pending_.pop_front();
        have_next = true;
        ++stats_.batches;
      }
    }
    // Expired completions fire outside mu_, like every other callback.
    for (Callback& callback : expired) {
      callback(Status::DeadlineExceeded("request expired in solver queue")
                   .WithRetryAfter(expired_retry_after));
    }
    if (!have_next) continue;

    // Queue-time span: enqueue (any submitter thread) -> dispatch (this
    // solver); the handoff through mu_ orders the submitter's earlier
    // trace writes before ours.
    if (next.query.trace) {
      next.query.trace->AddSpanBetween(obs::Stage::kBatchQueue, next.enqueued,
                                       std::chrono::steady_clock::now());
    }
    Timer solve;
    Result<core::RePagerResult> result =
        core::SolveQuery(next.query, /*fallback=*/nullptr, &scratch);
    const double seconds = solve.ElapsedSeconds();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ewma_item_seconds_ = ewma_item_seconds_ == 0
                               ? seconds
                               : kEwmaAlpha * seconds +
                                     (1 - kEwmaAlpha) * ewma_item_seconds_;
    }
    if (on_solve_) on_solve_(seconds);
    next.callback(std::move(result));
  }
}

}  // namespace rpg::serve
