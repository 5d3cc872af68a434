#include "core/batch_engine.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>

#include "common/logging.h"
#include "common/timer.h"

namespace rpg::core {

Result<RePagerResult> SolveQuery(const BatchQuery& query,
                                 const RePaGer* fallback,
                                 QueryScratch* scratch) {
  // Request trace: the calling thread is the only one touching the
  // query's context during the solve (the query was handed over through
  // a mutex-guarded queue, which orders the submitter's earlier span
  // writes before ours).
  obs::TraceContext* trace = query.trace.get();
  uint64_t solve_start = trace ? trace->NowNs() : 0;
  // Epoch pinning: a query-carried handle wins over the fallback, and
  // holding `query.repager` keeps that epoch's whole substrate alive for
  // the duration of the solve.
  const RePaGer* repager = query.repager ? query.repager.get() : fallback;
  Result<RePagerResult> r =
      repager == nullptr
          ? Result<RePagerResult>(Status::FailedPrecondition(
                "no RePaGer: the engine default is null and the query "
                "carries no substrate handle"))
          : repager->Generate(query.query, query.options, scratch);
  if (trace) {
    trace->AddSpan(obs::Stage::kSolve, solve_start,
                   trace->NowNs() - solve_start, r.ok() ? 1 : 0);
    if (r.ok()) {
      // The pipeline spans are clocked from Generate's own start;
      // rebasing them onto the solve span's start lines the whole
      // request trace up on one axis.
      trace->AppendRebased(r->stages, solve_start);
      trace->AttachSteinerStats(r->steiner_stats);
    }
  }
  return r;
}

BatchEngine::BatchEngine(const RePaGer* repager, BatchEngineOptions options)
    : repager_(repager), pool_(ResolveThreadCount(options.num_threads)) {}

BatchResult BatchEngine::Run(const std::vector<BatchQuery>& queries) {
  Timer wall;
  BatchResult batch;
  batch.results.assign(queries.size(),
                       Status::Internal("query not executed"));

  // Dynamic scheduling: workers pull the next unclaimed query index.
  // Queries vary a lot in sub-graph size, so static striping would leave
  // workers idle at the tail.
  std::atomic<size_t> next{0};
  const size_t workers = std::min(pool_.num_threads(), queries.size());
  std::vector<std::future<void>> done;
  done.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    done.push_back(pool_.Submit([this, &queries, &batch, &next] {
      QueryScratch scratch;
      for (size_t i = next.fetch_add(1); i < queries.size();
           i = next.fetch_add(1)) {
        // Distinct slots: no synchronization needed on the writes.
        batch.results[i] = SolveQuery(queries[i], repager_, &scratch);
      }
    }));
  }
  // Wait for every worker before (re)throwing: an early rethrow would
  // unwind and destroy `batch`/`next` while other workers still write
  // through them.
  std::exception_ptr first_error;
  for (std::future<void>& f : done) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  for (const Result<RePagerResult>& r : batch.results) {
    if (!r.ok()) continue;
    ++batch.num_ok;
    batch.sum_query_seconds += r->total_seconds;
    batch.steiner_stats.Add(r->steiner_stats);
  }
  batch.wall_seconds = wall.ElapsedSeconds();
  return batch;
}

}  // namespace rpg::core
