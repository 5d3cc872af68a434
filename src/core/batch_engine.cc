#include "core/batch_engine.h"

#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/timer.h"

namespace rpg::core {

BatchEngine::BatchEngine(const RePaGer* repager, BatchEngineOptions options)
    : repager_(repager, [](const RePaGer*) {}),
      pool_(ResolveThreadCount(options.num_threads), {.max_queue_depth = 0}) {}

BatchResult BatchEngine::Run(const std::vector<BatchQuery>& queries) {
  Timer wall;
  BatchResult batch;
  batch.results.assign(queries.size(),
                       Status::Internal("query not executed"));

  // Countdown over the batch. Each callback writes its own slot, then
  // decrements under mu; the last one notifies while still holding mu,
  // so this frame (and cv) outlives every callback's use of it.
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = queries.size();
  for (size_t i = 0; i < queries.size(); ++i) {
    BatchQuery query = queries[i];
    if (query.repager == nullptr) query.repager = repager_;
    pool_.SubmitAsync(std::move(query), [&, i](Result<RePagerResult> r) {
      batch.results[i] = std::move(r);
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return remaining == 0; });
  }

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
