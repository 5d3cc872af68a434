#ifndef RPG_SERVE_SERVE_ENGINE_H_
#define RPG_SERVE_SERVE_ENGINE_H_

/// \file
/// The serving facade: result cache with in-flight request coalescing
/// + work-conserving solver threads + live metrics, over an
/// atomically swappable serving epoch (serve::Epoch).
/// ui::RePagerService is a thin route layer on top of this class; see
/// docs/serving.md for the request lifecycle, the epoch lifecycle, and
/// tuning knobs.
///
/// Request lifecycle for Generate / GenerateAsync(query, num_seeds,
/// year_cutoff):
///   0. acquire the current epoch ONCE (one shared_ptr copy) — every
///      later step of this request reads that epoch, never the member
///   1. canonical key  = CanonicalQueryKey(...) — case/whitespace
///      normalized, defaults resolved
///   2. QueryCache::Lookup with the epoch id — a positive hit returns
///      the shared immutable reply in microseconds; a negative hit
///      returns the remembered error Status without touching the
///      pipeline; a stamp from another epoch is lazily evicted
///   3. QueryCache::JoinOrClaim, under the same lock as the cache — an
///      identical same-epoch query already being computed is joined,
///      not recomputed (single-flight); an entry published since the
///      miss is served as a hit; otherwise this request owns the solve
///   4. core::SolverPool::SubmitAsync — queued FIFO and solved by the next
///      free solver thread, one query per dispatch; the BatchQuery
///      carries the epoch's substrate handle, so the solver works on
///      the request's epoch even if a flip happened meanwhile
///   5. a completed result is rendered once, on the solver thread, into
///      its reply (RenderResult, serve/path_json.h) and dropped, and
///      QueryCache::Publish stores the reply stamped with the epoch
///      (deterministic errors as negative entries) and hands back the
///      joined waiters, which run on that thread. The cache counts
///      hits and misses and the pool counts sheds; the MetricsRegistry
///      holds only what neither counts (requests, coalesced waiters,
///      errors, latencies, epoch flips)
///
/// Replies are byte-identical to RenderResult of a serial
/// RePaGer::Generate on the same epoch in every path (cache hit,
/// coalesced, solved) — asserted by tests/serve/serve_engine_test.cc and
/// tests/epoch/epoch_test.cc.
///
/// Ownership / thread-safety model:
///  - The serving substrate is an EpochHandle
///    (shared_ptr<const Epoch>): the engine holds the current one,
///    every in-flight request holds its own, and SwapEpoch replaces the
///    engine's under a mutex. The old epoch frees itself when its last
///    in-flight solve completes — RCU by refcount, no drain barrier. A
///    response carries only the epoch's id.
///  - Generate()/GenerateAsync()/SwapEpoch() are safe from any number
///    of threads. Cached replies are shared_ptr<const ...>: never
///    mutated, freely shared across responses.
///  - GenerateAsync never blocks on the solve: the callback fires inline
///    for cache hits and errors, and from the solver thread that
///    computed a miss. This is the API the epoll reactor
///    (ui::HttpServer) serves from — poller threads submit and return
///    to their event loop.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/timer.h"
#include "core/repager.h"
#include "core/solver_pool.h"
#include "serve/epoch.h"
#include "serve/metrics.h"
#include "serve/query_cache.h"

namespace rpg::serve {

struct ServeEngineOptions {
  /// Solver threads (core::SolverPool); <= 0 means hardware_concurrency.
  int num_threads = 0;
  /// `cache.max_bytes = 0` turns the result cache off: nothing fits, so
  /// every request computes.
  QueryCacheOptions cache;
  core::SolverPoolOptions pool;
};

/// One served response. `result` is immutable and shared with the cache.
struct ServeResponse {
  CachedResult result;
  /// Id of the epoch this request was answered on (the one its reply was
  /// rendered from).
  uint64_t epoch_id = 0;
  /// True when the result came straight from the cache.
  bool cache_hit = false;
  /// True when this request joined an identical in-flight computation.
  bool coalesced = false;
  /// End-to-end seconds inside the engine (queueing + solve, or the
  /// cache lookup time on a hit).
  double e2e_seconds = 0.0;
};

class ServeEngine {
 public:
  /// Completion callback for GenerateAsync. Invoked exactly once: inline
  /// on the calling thread for cache hits / negative hits / inline
  /// errors, or on the solver thread after a computed miss. Must not
  /// block.
  using GenerateCallback = std::function<void(Result<ServeResponse>)>;

  /// Serves from `epoch` until SwapEpoch.
  explicit ServeEngine(EpochHandle epoch, ServeEngineOptions options = {});
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Serves one request, blocking until the response is ready (a thin
  /// wrapper over GenerateAsync). `num_seeds <= 0` / `year_cutoff <= 0`
  /// mean the pipeline defaults (same canonicalization as the cache
  /// key). Pipeline errors (no hits, empty query, ...) come back as the
  /// Result's status.
  Result<ServeResponse> Generate(const std::string& query, int num_seeds,
                                 int year_cutoff);

  /// Non-blocking flavour (the reactor's entry point): hand off the
  /// request, get the response via `callback`. A non-null `trace`
  /// additionally records serving-side spans — cache_lookup,
  /// singleflight_wait, batch_queue, solve + the pipeline's stage spans
  /// — along the request's causal chain, and gets the canonical query
  /// key stamped onto it.
  void GenerateAsync(const std::string& query, int num_seeds,
                     int year_cutoff,
                     std::shared_ptr<obs::TraceContext> trace,
                     GenerateCallback callback);

  /// Installs `next` as the serving epoch (RCU flip). New requests
  /// acquire it immediately; in-flight requests finish on the epoch they
  /// started with, and the old epoch frees itself when the last of them
  /// completes. Cache entries from older epochs are NOT cleared — their
  /// stale stamps are evicted lazily on lookup (QueryCache). Safe from
  /// any thread, including concurrently with serving traffic.
  void SwapEpoch(EpochHandle next);

  /// Loads the snapshot at `path` (LoadEpochFromSnapshot) as the epoch
  /// after the current one and installs it with SwapEpoch. Reloads
  /// queue: each holds one mutex from choosing its id to its swap, so
  /// concurrent reloads publish distinct, increasing ids in the order
  /// they acquire it. Fail-closed: on error nothing is swapped. Blocks
  /// for the whole load.
  Result<EpochHandle> ReloadFromSnapshot(const std::string& path);

  /// The epoch new requests would be served on right now (one
  /// shared_ptr copy; never null).
  EpochHandle CurrentEpoch() const;

  /// Number of SwapEpoch calls since construction (the registry's
  /// epoch_flips_total counter).
  uint64_t epoch_flips() const;

  /// Drops every cached entry; returns the number of entries dropped.
  size_t ClearCache();

  /// Live stats document for GET /api/stats:
  ///   {"epoch":{...},"cache":{...},"batcher":{...},"stages":{...},
  ///    "metrics":{counters,gauges,histograms}}
  /// Cache counters come from QueryCache::Stats and shed counts from
  /// the solver pool's `batcher.rejected_overload`; the registry holds
  /// neither. The per-stage latency summaries are the
  /// `metrics.histograms.stage_<name>_ms` / `pipeline_total_ms` entries;
  /// "stages" holds only what they cannot show, `attributed_fraction`:
  /// the share of pipeline time covered by stage spans.
  std::string StatsJson() const;

  /// Prometheus twin of StatsJson for GET /metrics: every registry
  /// instrument under the `rpg_` prefix, plus rpg_cache_hits,
  /// rpg_cache_misses and rpg_negative_hits from QueryCache::Stats and
  /// rpg_shed_total from the solver pool's rejected_overload.
  std::string MetricsText() const;

  const QueryCache& cache() const { return cache_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  size_t num_threads() const { return pool_.num_solvers(); }

 private:
  /// Final per-request bookkeeping (e2e histogram, error counter,
  /// in-flight gauge) + callback invocation. `epoch_id` is the id of the
  /// epoch the request was served on; it rides out on the ServeResponse.
  void FinishRequest(const GenerateCallback& callback, const Timer& e2e,
                     uint64_t epoch_id, const Result<CachedResult>& outcome,
                     bool cache_hit, bool coalesced);

  /// Feeds a freshly computed result's stage spans into the per-stage
  /// latency histograms. No-op when the result carries no spans (tracing
  /// switched off).
  void ObserveStages(const core::RePagerResult& result);

  ServeEngineOptions options_;
  QueryCache cache_;
  // Declared before pool_: the pool's on_solve closure holds pointers
  // into the registry, so the registry must be built first (and torn
  // down last).
  MetricsRegistry metrics_;
  core::SolverPool pool_;

  /// The serving epoch. Requests copy the handle once under the mutex
  /// (an uncontended lock + shared_ptr copy, nanoseconds) and never
  /// touch the member again; SwapEpoch replaces it. A mutex-guarded
  /// shared_ptr is the portable TSan-clean equivalent of
  /// std::atomic<std::shared_ptr> here, and this is nowhere near the
  /// per-request hot path's dominant cost.
  mutable std::mutex epoch_mu_;
  EpochHandle epoch_;
  /// Serializes ReloadFromSnapshot (never held by request paths).
  std::mutex reload_mu_;

  // Hot-path instruments, resolved once. (solve_ms is observed by the
  // pool's on_solve closure, not through a member.)
  Counter* requests_total_;
  Counter* coalesced_hits_;
  Counter* errors_total_;
  Gauge* inflight_requests_;
  /// Epoch instruments (also scraped via GET /metrics): the current
  /// epoch id, total SwapEpoch flips, and the Unix time of the last
  /// flip. The id gauge and the flip counter change under epoch_mu_, so
  /// a reader holding it sees one consistent pair. (Stale-eviction
  /// counters live in the cache section of /api/stats — QueryCacheStats
  /// — split by epoch.)
  Gauge* epoch_id_gauge_;
  Counter* epoch_flips_total_;
  Gauge* epoch_last_reload_unix_seconds_;
  MetricHistogram* e2e_ms_;
  MetricHistogram* hit_ms_;
  /// Per-pipeline-stage latency histograms ("stage_<name>_ms"), indexed
  /// by obs::Stage value; observed once per computed (non-cached) result.
  MetricHistogram* stage_ms_[obs::kNumPipelineStages];
  /// Wall time of the whole pipeline per computed result
  /// ("pipeline_total_ms") — the denominator for attributed_fraction.
  MetricHistogram* pipeline_total_ms_;
};

}  // namespace rpg::serve

#endif  // RPG_SERVE_SERVE_ENGINE_H_
