#ifndef RPG_CORE_SOLVER_POOL_H_
#define RPG_CORE_SOLVER_POOL_H_

/// \file
/// The one executor for RePaGer queries. The paper's serving scenario is
/// many independent survey queries against one immutable citation graph,
/// so there is nothing to gain from grouping them: the pool runs N
/// long-lived solver threads, and each pops the oldest queued query the
/// moment it is free and solves it inline. No solver idles while work is
/// queued, and no query waits for another query's solve to finish.
///
/// Every query names its substrate: BatchQuery::repager is the RePaGer
/// it is solved on. Two callers share the pool:
///  - serve::ServeEngine submits each cache miss with its epoch's handle
///    (bounded queue);
///  - core::BatchEngine submits an offline batch, giving each query
///    without a handle one to the engine's own RePaGer, and blocks until
///    every slot is filled (unbounded queue).
///
/// Each solver thread owns one QueryScratch for its whole life, so
/// per-query working memory is allocation-free after warm-up. A scratch
/// refers to no graph between solves, so solvers move across epoch flips
/// freely: a query's own substrate handle keeps that substrate alive.
///
/// Ownership / thread-safety model:
///  - SubmitAsync() is safe from any thread; its callback runs on the
///    solver thread that solved the query, right after the solve.
///  - The queue is FIFO: with one solver, queries complete in submission
///    order; with N, the N oldest are in service at any time.
///  - Shutdown() (or the destructor) drains everything already queued
///    before joining; no submitted request is dropped. Submitting after
///    Shutdown() returns a FailedPrecondition result.
///  - A query without a substrate handle is rejected inline with
///    FailedPrecondition.
///  - Per-query results are bit-identical to RePaGer::Generate.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/repager.h"

namespace rpg::core {

/// Resolves a thread-count knob where `<= 0` means "one per hardware
/// thread": `requested` if positive, else
/// std::thread::hardware_concurrency() (1 when unknown).
size_t ResolveThreadCount(int requested);

/// One query: the free-text query plus its pipeline options.
struct BatchQuery {
  std::string query;
  RePagerOptions options;
  /// Optional request trace (shared with the serving layer). The solver
  /// records a `solve` span and splices the pipeline's stage spans into
  /// it. The shared_ptr keeps the context alive even if the originating
  /// request was already answered (e.g. a reactor-side deadline 503).
  std::shared_ptr<obs::TraceContext> trace;
  /// The substrate this query is solved on; SolverPool rejects a query
  /// without one. Owning, so epoch-based serving works (serve::Epoch):
  /// the serving layer pins the request's epoch with an
  /// aliasing shared_ptr, so the substrate the solver reads stays alive
  /// until this query's result is delivered even if the serving tier
  /// swapped to a newer epoch while it was queued.
  std::shared_ptr<const RePaGer> repager;
};

struct SolverPoolOptions {
  /// Overload bound: a submission arriving when this many requests are
  /// already waiting is rejected inline with Status::Unavailable (load
  /// shedding — the serving edge maps it to 429). The total backlog is
  /// bounded by max_queue_depth + the queries currently being solved.
  /// 0 = unbounded.
  size_t max_queue_depth = 256;
};

/// Point-in-time dispatch counters.
struct SolverPoolStats {
  uint64_t requests = 0;
  /// Dispatches to a solver; each dispatch is one query, so this counts
  /// the queries that reached a solver (requests minus queued).
  uint64_t batches = 0;
  /// Submissions shed with Unavailable because the queue was full.
  uint64_t rejected_overload = 0;
  /// Requests waiting right now (the overload gauge; excludes the
  /// queries currently being solved).
  size_t queue_depth = 0;
  /// EWMA of one solve's wall time on one solver (seconds).
  /// ceil(this × queue_depth / solvers), clamped to [1, 30] s, is the
  /// Retry-After hint attached to shed statuses.
  double ewma_item_seconds = 0;
};

class SolverPool {
 public:
  /// Starts `num_solvers` solver threads (at least one). `on_solve`, if
  /// set, is called on the solver thread after every solve with that
  /// solve's wall seconds, before the query's callback — the
  /// ServeEngine's metrics tap.
  explicit SolverPool(size_t num_solvers, SolverPoolOptions options = {},
                      std::function<void(double)> on_solve = {});
  ~SolverPool();

  SolverPool(const SolverPool&) = delete;
  SolverPool& operator=(const SolverPool&) = delete;

  /// Completion callback for SubmitAsync: invoked exactly once, on the
  /// solver thread after the query's solve, or inline with Unavailable
  /// when shed and with FailedPrecondition for a query without a
  /// substrate handle or after Shutdown().
  /// Keep it cheap — the solver takes no new query until it returns.
  using Callback = std::function<void(Result<RePagerResult>)>;

  /// Enqueues one query; `callback` receives its result (errors land in
  /// the Result, not as exceptions). No submitting thread blocks on the
  /// solve: this is what lets epoll poller threads hand off compute
  /// without pinning themselves (docs/serving.md). When the queue is at
  /// max_queue_depth the callback fires inline with Status::Unavailable
  /// instead of queueing (overload shed).
  void SubmitAsync(BatchQuery query, Callback callback);

  /// Drains queued requests, then stops the solvers. Idempotent.
  void Shutdown();

  SolverPoolStats Stats() const;

  size_t num_solvers() const { return solvers_.size(); }

 private:
  struct Pending {
    BatchQuery query;
    Callback callback;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// One solver thread: pop, solve with its own scratch, complete.
  void SolverLoop();
  /// Retry-After hint for a status completed right now: measured drain
  /// time (EWMA per-solve time × current queue depth / solvers) in whole
  /// seconds, clamped to [1, 30]. Requires mu_.
  int RetryAfterSecondsLocked() const;

  SolverPoolOptions options_;
  std::function<void(double)> on_solve_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> pending_;
  bool shutdown_ = false;
  SolverPoolStats stats_;
  /// EWMA of per-solve wall time (seconds); 0 until the first solve
  /// completes. Guarded by mu_.
  double ewma_item_seconds_ = 0;

  std::vector<std::thread> solvers_;
};

}  // namespace rpg::core

#endif  // RPG_CORE_SOLVER_POOL_H_
