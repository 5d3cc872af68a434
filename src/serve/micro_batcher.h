#ifndef RPG_SERVE_MICRO_BATCHER_H_
#define RPG_SERVE_MICRO_BATCHER_H_

/// \file
/// Work-conserving admission queue for cache-miss solves. Each
/// reading-path query is an independent solve over one immutable graph,
/// so there is nothing to gain from grouping them: the batcher runs N
/// long-lived solver threads, and each pops the oldest queued query the
/// moment it is free and solves it inline (core::SolveQuery). No solver
/// idles while work is queued, and no query waits for another query's
/// solve to finish.
///
/// Each solver thread owns one core::QueryScratch for its whole life, so
/// per-query working memory is allocation-free after warm-up. A scratch
/// refers to no graph between solves, so solvers move across epoch flips
/// freely: every query carries its own epoch-pinned substrate handle.
///
/// Ownership / thread-safety model:
///  - SubmitAsync() is safe from any thread; its callback runs on the
///    solver thread that solved the query, right after the solve.
///  - The queue is FIFO: with one solver, queries complete in submission
///    order; with N, the N oldest are in service at any time.
///  - Shutdown() (or the destructor) drains everything already queued
///    before joining; no submitted request is dropped. Submitting after
///    Shutdown() returns a FailedPrecondition result.
///  - A query with no substrate handle completes with FailedPrecondition
///    (the batcher has no default RePaGer).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/batch_engine.h"

namespace rpg::serve {

struct MicroBatcherOptions {
  /// Overload bound: a submission arriving when this many requests are
  /// already waiting is rejected inline with Status::Unavailable (load
  /// shedding — the serving edge maps it to 429). The total backlog is
  /// bounded by max_queue_depth + the queries currently being solved.
  /// 0 = unbounded.
  size_t max_queue_depth = 256;
  /// Per-request queue deadline: an entry that has already waited
  /// longer than this when a solver reaches it is completed with
  /// Status::DeadlineExceeded instead of being solved — under sustained
  /// overload, work nobody is waiting for anymore is dropped before it
  /// wastes solver time. The status carries a Retry-After hint from the
  /// measured drain time (see Stats().ewma_item_seconds). 0 = disabled.
  std::chrono::milliseconds queue_deadline{0};
};

/// Point-in-time dispatch counters.
struct MicroBatcherStats {
  uint64_t requests = 0;
  /// Dispatches to a solver; each dispatch is one query, so this counts
  /// the queries that reached a solver (requests minus expired/queued).
  uint64_t batches = 0;
  /// Submissions shed with Unavailable because the queue was full.
  uint64_t rejected_overload = 0;
  /// Queued requests expired with DeadlineExceeded (waited past
  /// queue_deadline before a solver got to them).
  uint64_t deadline_expired = 0;
  /// Requests waiting right now (the overload gauge; excludes the
  /// queries currently being solved).
  size_t queue_depth = 0;
  /// EWMA of one solve's wall time on one solver (seconds).
  /// ceil(this × queue_depth / solvers), clamped to [1, 30] s, is the
  /// Retry-After hint attached to shed/expired statuses.
  double ewma_item_seconds = 0;
};

class MicroBatcher {
 public:
  /// Starts `num_solvers` solver threads (at least one). `on_solve`, if
  /// set, is called on the solver thread after every solve with that
  /// solve's wall seconds, before the query's callback — the
  /// ServeEngine's metrics tap.
  explicit MicroBatcher(size_t num_solvers, MicroBatcherOptions options = {},
                        std::function<void(double)> on_solve = {});
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Completion callback for SubmitAsync: invoked exactly once, on the
  /// solver thread after the query's solve (or expiry), or inline with
  /// Unavailable / FailedPrecondition when shed or after Shutdown().
  /// Keep it cheap — the solver takes no new query until it returns.
  using Callback = std::function<void(Result<core::RePagerResult>)>;

  /// Enqueues one query; `callback` receives its result (errors land in
  /// the Result, not as exceptions). No submitting thread blocks on the
  /// solve: this is what lets epoll poller threads hand off compute
  /// without pinning themselves (docs/serving.md). When the queue is at
  /// max_queue_depth the callback fires inline with Status::Unavailable
  /// instead of queueing (overload shed).
  void SubmitAsync(core::BatchQuery query, Callback callback);

  /// Drains queued requests, then stops the solvers. Idempotent.
  void Shutdown();

  MicroBatcherStats Stats() const;

  size_t num_solvers() const { return solvers_.size(); }

 private:
  struct Pending {
    core::BatchQuery query;
    Callback callback;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// One solver thread: pop, solve with its own scratch, complete.
  void SolverLoop();
  /// Retry-After hint for a status completed right now: measured drain
  /// time (EWMA per-solve time × current queue depth / solvers) in whole
  /// seconds, clamped to [1, 30]. Requires mu_.
  int RetryAfterSecondsLocked() const;

  MicroBatcherOptions options_;
  std::function<void(double)> on_solve_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> pending_;
  bool shutdown_ = false;
  MicroBatcherStats stats_;
  /// EWMA of per-solve wall time (seconds); 0 until the first solve
  /// completes. Guarded by mu_.
  double ewma_item_seconds_ = 0;

  std::vector<std::thread> solvers_;
};

}  // namespace rpg::serve

#endif  // RPG_SERVE_MICRO_BATCHER_H_
