#ifndef RPG_SERVE_MICRO_BATCHER_H_
#define RPG_SERVE_MICRO_BATCHER_H_

/// \file
/// Micro-batching admission queue in front of core::BatchEngine.
/// Cache-miss requests that arrive within a small window are grouped
/// into one batch and executed together on the engine's worker pool, so
/// a burst of concurrent requests pays one scheduling round instead of
/// N, and per-worker QueryScratch reuse kicks in across the batch.
///
/// Flush policy: a batch is dispatched when it reaches
/// `max_batch_size`, or when the oldest queued request has waited
/// `flush_window` (default 2 ms), whichever comes first. A request
/// arriving at an idle batcher therefore sees at most `flush_window` of
/// added latency — negligible next to a multi-ms pipeline solve — and
/// under load batches fill before the deadline, so the window adds no
/// latency at all.
///
/// Ownership / thread-safety model:
///  - SubmitAsync() is safe from any thread; its callback runs on the
///    dispatcher thread after the batch completes.
///  - One internal dispatcher thread collects and executes batches (the
///    parallelism lives inside BatchEngine, not here).
///  - Shutdown() (or the destructor) drains everything already queued
///    before joining; no submitted request is dropped. Submitting after
///    Shutdown() returns a FailedPrecondition result.
///  - The BatchEngine is owned by the caller and must outlive the
///    batcher; the batcher is its only user while serving (BatchEngine
///    forbids concurrent Run() calls).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

#include "core/batch_engine.h"

namespace rpg::serve {

struct MicroBatcherOptions {
  /// Dispatch as soon as this many requests are queued (>= 1).
  size_t max_batch_size = 16;
  /// Dispatch when the oldest queued request has waited this long.
  std::chrono::microseconds flush_window{2000};
  /// Overload bound: a submission arriving when this many requests are
  /// already waiting is rejected inline with Status::Unavailable (load
  /// shedding — the serving edge maps it to 429). The total backlog is
  /// bounded by max_queue_depth + the batch currently executing.
  /// 0 = unbounded (the pre-overload-control behavior).
  size_t max_queue_depth = 256;
  /// Per-request queue deadline: an entry that has already waited
  /// longer than this when the dispatcher assembles a batch is
  /// completed with Status::DeadlineExceeded instead of being solved —
  /// under sustained overload, work nobody is waiting for anymore is
  /// dropped before it wastes engine time. The status carries a
  /// Retry-After hint from the measured drain time (see Stats().
  /// ewma_item_seconds). 0 = disabled.
  std::chrono::milliseconds queue_deadline{0};
  /// Called on the dispatcher thread after every batch with (batch size,
  /// engine wall seconds) — the ServeEngine's metrics tap. May be empty.
  std::function<void(size_t, double)> on_batch;
};

/// Point-in-time dispatch counters.
struct MicroBatcherStats {
  uint64_t requests = 0;
  uint64_t batches = 0;
  uint64_t flushes_on_size = 0;
  uint64_t flushes_on_deadline = 0;
  size_t max_batch_size_seen = 0;
  /// Submissions shed with Unavailable because the queue was full.
  uint64_t rejected_overload = 0;
  /// Queued requests expired with DeadlineExceeded (waited past
  /// queue_deadline before the dispatcher got to them).
  uint64_t deadline_expired = 0;
  /// Requests waiting right now (the overload gauge; excludes the batch
  /// currently executing on the engine).
  size_t queue_depth = 0;
  /// EWMA of per-item engine service time (seconds). queue_depth ×
  /// this, clamped to [1, 30] s, is the Retry-After hint attached to
  /// shed/expired statuses.
  double ewma_item_seconds = 0;
};

class MicroBatcher {
 public:
  /// `engine` must outlive the batcher. Starts the dispatcher thread.
  explicit MicroBatcher(core::BatchEngine* engine,
                        MicroBatcherOptions options = {});
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Completion callback for SubmitAsync: invoked exactly once on the
  /// dispatcher thread after the batch containing the query completes
  /// (or inline with FailedPrecondition after Shutdown()). Keep it
  /// cheap — it runs between batches.
  using Callback = std::function<void(Result<core::RePagerResult>)>;

  /// Enqueues one query; `callback` receives the engine's per-query
  /// result (errors land in the Result, not as exceptions). No thread
  /// blocks on the solve: the completion is delivered where the batch
  /// finished. This is what lets epoll poller threads hand off
  /// compute without pinning themselves (docs/serving.md). When the
  /// queue is at max_queue_depth the callback fires inline with
  /// Status::Unavailable instead of queueing (overload shed).
  void SubmitAsync(core::BatchQuery query, Callback callback);

  /// Drains queued requests, then stops the dispatcher. Idempotent.
  void Shutdown();

  MicroBatcherStats Stats() const;

 private:
  struct Pending {
    core::BatchQuery query;
    Callback callback;
    std::chrono::steady_clock::time_point enqueued;
  };

  void DispatchLoop();
  /// Runs one batch on the engine and invokes its callbacks.
  void RunBatch(std::deque<Pending> batch);
  /// Retry-After hint for a status completed right now: measured drain
  /// time (EWMA per-item service time × current queue depth) in whole
  /// seconds, clamped to [1, 30]. Requires mu_.
  int RetryAfterSecondsLocked() const;

  core::BatchEngine* engine_;
  MicroBatcherOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> pending_;
  bool shutdown_ = false;
  MicroBatcherStats stats_;
  /// EWMA of per-item engine wall time (seconds); 0 until the first
  /// batch completes. Guarded by mu_.
  double ewma_item_seconds_ = 0;

  std::thread dispatcher_;
};

}  // namespace rpg::serve

#endif  // RPG_SERVE_MICRO_BATCHER_H_
