#ifndef RPG_CORE_BATCH_ENGINE_H_
#define RPG_CORE_BATCH_ENGINE_H_

/// \file
/// Batched parallel query engine for RePaGer. The paper's serving
/// scenario is many independent survey queries against one immutable
/// citation graph — embarrassingly parallel — so BatchEngine fans a batch
/// of queries across a fixed-size ThreadPool, each worker reusing one
/// core::QueryScratch so per-query allocations drop to near zero after
/// warm-up (the dominant cost now that the NEWST solver is fast; see
/// ROADMAP "Perf — Steiner hot path").
///
/// Ownership / thread-safety model:
///  - The RePaGer (and, through it, the CitationGraph, SearchEngine and
///    WeightModel) is shared, immutable, and read concurrently by all
///    workers. The engine-level default must outlive the BatchEngine;
///    a per-query BatchQuery::repager is an owning shared_ptr (an epoch
///    handle alias) and keeps its substrate alive by itself.
///  - Each pool worker owns one QueryScratch for the duration of a
///    Run(); scratches are never shared between threads.
///  - Run() may be called repeatedly (the pool persists across batches)
///    but not concurrently from multiple threads on the same BatchEngine.
///  - Per-query results are bit-identical to calling
///    RePaGer::Generate() serially — verified by
///    tests/core/batch_engine_test.cc.

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/repager.h"
#include "steiner/stats.h"

namespace rpg::core {

/// One query in a batch: the free-text query plus its pipeline options.
struct BatchQuery {
  std::string query;
  RePagerOptions options;
  /// Optional request trace (shared with the serving layer). The worker
  /// that executes this query records a `solve` span and splices the
  /// pipeline's stage spans into it. The shared_ptr keeps the context
  /// alive even if the originating request was already answered (e.g. a
  /// reactor-side deadline 503).
  std::shared_ptr<obs::TraceContext> trace;
  /// Optional owning substrate handle, overriding the engine-level
  /// RePaGer for this one query. This is how epoch-based serving works
  /// (serve::Epoch): the serving layer pins the request's epoch with an
  /// aliasing shared_ptr, so the substrate the worker reads stays alive
  /// until this query's result is delivered even if the serving tier
  /// swapped to a newer epoch mid-batch. Null means "use the engine's
  /// constructor-supplied RePaGer" (the pre-epoch behaviour).
  std::shared_ptr<const RePaGer> repager;
};

/// Result of a batch run. `results[i]` corresponds to `queries[i]` —
/// per-query failures (empty query, no hits, ...) land in their slot
/// without affecting the rest of the batch.
struct BatchResult {
  std::vector<Result<RePagerResult>> results;
  /// Number of queries that produced a RePagerResult.
  size_t num_ok = 0;
  /// Wall-clock seconds for the whole batch (the throughput number).
  double wall_seconds = 0.0;
  /// Sum of per-query total_seconds over successful queries — compare
  /// against wall_seconds to see the parallel speedup.
  double sum_query_seconds = 0.0;
  /// NEWST work counters summed over successful queries.
  steiner::SteinerStats steiner_stats;
};

struct BatchEngineOptions {
  /// Worker threads; <= 0 means std::thread::hardware_concurrency().
  int num_threads = 0;
};

/// Runs batches of independent RePaGer queries on a worker pool.
class BatchEngine {
 public:
  /// `repager` is the default substrate for queries that carry no
  /// per-query handle; it must outlive the engine. It may be null when
  /// every BatchQuery supplies its own `repager` (the epoch-serving
  /// configuration) — a query with neither fails with
  /// FailedPrecondition instead of crashing. Spawns the pool
  /// immediately.
  explicit BatchEngine(const RePaGer* repager, BatchEngineOptions options = {});

  /// Executes all queries and blocks until the batch is complete.
  /// Query order in the result matches the input; scheduling order
  /// across workers is unspecified (results are order-independent).
  BatchResult Run(const std::vector<BatchQuery>& queries);

  size_t num_threads() const { return pool_.num_threads(); }

 private:
  const RePaGer* repager_;
  ThreadPool pool_;
};

}  // namespace rpg::core

#endif  // RPG_CORE_BATCH_ENGINE_H_
