#ifndef RPG_CORE_BATCH_ENGINE_H_
#define RPG_CORE_BATCH_ENGINE_H_

/// \file
/// Blocking batch front end over core::SolverPool for offline batches:
/// benches, perfbench's references and parallel-efficiency probe, and
/// the differential tests. Run submits every query to the engine's
/// pool, writes each result into its own slot, and returns once all
/// slots are filled.
///
/// Ownership / thread-safety model:
///  - The RePaGer (and, through it, the CitationGraph, SearchEngine and
///    WeightModel) is shared, immutable, and read concurrently by all
///    solvers. The engine's own RePaGer must outlive the BatchEngine;
///    Run gives every query without a BatchQuery::repager a
///    non-owning handle to it. A per-query handle is an owning
///    shared_ptr (an epoch handle alias) and keeps its substrate alive
///    by itself.
///  - The pool's queue is unbounded, so Run never sheds a query.
///  - Run() may be called repeatedly and from several threads; each call
///    waits only for its own queries.
///  - Per-query results are bit-identical to calling
///    RePaGer::Generate() serially — verified by
///    tests/core/batch_engine_test.cc.

#include <memory>
#include <vector>

#include "core/solver_pool.h"
#include "steiner/stats.h"

namespace rpg::core {

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
  /// Solver threads; <= 0 means std::thread::hardware_concurrency().
  int num_threads = 0;
};

/// Runs batches of independent RePaGer queries on a SolverPool.
class BatchEngine {
 public:
  /// `repager` is the substrate for queries that carry no per-query
  /// handle; it must outlive the engine. It may be null when every
  /// BatchQuery supplies its own `repager` — a query with neither fails
  /// with FailedPrecondition instead of crashing. Starts the pool's
  /// solver threads immediately.
  explicit BatchEngine(const RePaGer* repager, BatchEngineOptions options = {});

  /// Executes all queries and blocks until the batch is complete.
  /// Query order in the result matches the input; scheduling order
  /// across solvers is unspecified (results are order-independent).
  BatchResult Run(const std::vector<BatchQuery>& queries);

  size_t num_threads() const { return pool_.num_solvers(); }

 private:
  /// Non-owning handle to the constructor's `repager` (null when it is).
  std::shared_ptr<const RePaGer> repager_;
  SolverPool pool_;
};

}  // namespace rpg::core

#endif  // RPG_CORE_BATCH_ENGINE_H_
