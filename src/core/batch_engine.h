#ifndef RPG_CORE_BATCH_ENGINE_H_
#define RPG_CORE_BATCH_ENGINE_H_

/// \file
/// Per-query solve step and batched parallel query engine for RePaGer.
/// The paper's serving scenario is many independent survey queries
/// against one immutable citation graph — embarrassingly parallel.
///
/// SolveQuery is the one place a BatchQuery becomes a result: substrate
/// choice (epoch handle or fallback), the `solve` trace span and the
/// splicing of the pipeline's stage spans. Two callers share it:
///  - serve::MicroBatcher's solver threads, one query at a time, each
///    thread reusing one core::QueryScratch for its whole life (the
///    serving path);
///  - BatchEngine::Run, which fans a batch of queries across a
///    fixed-size ThreadPool and blocks until all are done (offline
///    batches: benches, perfbench's parallel-efficiency probe). Each
///    worker reuses one QueryScratch for the duration of a Run().
/// Scratch reuse makes per-query allocations drop to near zero after
/// warm-up (see ROADMAP "Perf — Steiner hot path").
///
/// Ownership / thread-safety model:
///  - The RePaGer (and, through it, the CitationGraph, SearchEngine and
///    WeightModel) is shared, immutable, and read concurrently by all
///    workers. The engine-level default must outlive the BatchEngine;
///    a per-query BatchQuery::repager is an owning shared_ptr (an epoch
///    handle alias) and keeps its substrate alive by itself.
///  - Scratches are never shared between threads, and a scratch refers
///    to no graph between calls, so it may outlive the epoch it last
///    solved on.
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
  /// Optional request trace (shared with the serving layer). The thread
  /// that solves this query records a `solve` span and splices the
  /// pipeline's stage spans into it (SolveQuery). The shared_ptr keeps
  /// the context alive even if the originating request was already
  /// answered (e.g. a reactor-side deadline 503).
  std::shared_ptr<obs::TraceContext> trace;
  /// Optional owning substrate handle, overriding the engine-level
  /// RePaGer for this one query. This is how epoch-based serving works
  /// (serve::Epoch): the serving layer pins the request's epoch with an
  /// aliasing shared_ptr, so the substrate the worker reads stays alive
  /// until this query's result is delivered even if the serving tier
  /// swapped to a newer epoch while it was queued. Null means "use the
  /// fallback RePaGer" (BatchEngine's constructor-supplied default).
  std::shared_ptr<const RePaGer> repager;
};

/// Solves one query on the calling thread with `scratch`: the query's
/// own substrate handle if it has one, else `fallback`; neither gives
/// FailedPrecondition. With a trace attached, records the `solve` span,
/// splices the pipeline's stage spans onto it and attaches the NEWST
/// counters. Results are bit-identical to RePaGer::Generate.
Result<RePagerResult> SolveQuery(const BatchQuery& query,
                                 const RePaGer* fallback,
                                 QueryScratch* scratch);

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
