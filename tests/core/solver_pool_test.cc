#include "core/solver_pool.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "eval/workbench.h"

namespace rpg::core {
namespace {

/// A small workbench shared by every case (built once, intentionally
/// leaked — the corpus build dominates test time).
const eval::Workbench& SharedWorkbench() {
  static const eval::Workbench* wb = [] {
    eval::WorkbenchOptions options;
    options.corpus.hierarchy.areas_per_domain = 2;
    options.corpus.hierarchy.topics_per_area = 2;
    options.corpus.papers_per_topic = 50;
    options.corpus.papers_per_area = 15;
    options.corpus.papers_per_domain = 10;
    options.corpus.num_surveys = 40;
    options.corpus.seed = 55;
    return eval::Workbench::Create(options).value().release();
  }();
  return *wb;
}

/// The shared workbench's substrate as a query handle: every query
/// carries its own, as in serving. The workbench is never freed, so the
/// handle owns nothing.
std::shared_ptr<const RePaGer> WorkbenchHandle() {
  return {&SharedWorkbench().repager(), [](const RePaGer*) {}};
}

BatchQuery MakeQuery(size_t bank_index) {
  const auto& entry = SharedWorkbench().bank().Get(bank_index);
  BatchQuery q;
  q.query = entry.query;
  q.options.year_cutoff = entry.year;
  q.repager = WorkbenchHandle();
  return q;
}

/// A one-shot gate: Wait blocks until Open, or gives up after `timeout`.
class Latch {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  bool Wait(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// SubmitAsync with the completion delivered through a future, for tests
/// that block on their results.
std::future<Result<RePagerResult>> SubmitForFuture(SolverPool& pool,
                                                   BatchQuery query) {
  auto promise = std::make_shared<std::promise<Result<RePagerResult>>>();
  std::future<Result<RePagerResult>> future = promise->get_future();
  pool.SubmitAsync(std::move(query), [promise](Result<RePagerResult> result) {
    promise->set_value(std::move(result));
  });
  return future;
}

TEST(SolverPoolTest, SingleRequestDispatchesImmediately) {
  SolverPool pool(2);
  auto future = SubmitForFuture(pool, MakeQuery(0));
  Result<RePagerResult> result = future.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->path.empty());
  SolverPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.batches, 1u);  // one dispatch, one query
  EXPECT_EQ(pool.num_solvers(), 2u);
}

TEST(SolverPoolTest, SlowQueryDoesNotBlockOthers) {
  // The first query's callback holds its solver until the second
  // query's callback opens the latch. With work-conserving dispatch the
  // other solver takes the second query while the first is still held;
  // behind a batch barrier the second callback could never run and the
  // first would time out.
  Latch second_done;
  std::promise<bool> first_released;
  SolverPool pool(2);  // joins its solvers before the latch goes
  pool.SubmitAsync(MakeQuery(0), [&](Result<RePagerResult> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    first_released.set_value(second_done.Wait(std::chrono::seconds(30)));
  });
  pool.SubmitAsync(MakeQuery(1), [&](Result<RePagerResult> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    second_done.Open();
  });
  EXPECT_TRUE(first_released.get_future().get());
}

TEST(SolverPoolTest, QueryWithoutSubstrateFailsPrecondition) {
  SolverPool pool(1);
  BatchQuery q = MakeQuery(0);
  q.repager = nullptr;
  Result<RePagerResult> r = SubmitForFuture(pool, q).get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
      << r.status().ToString();
}

TEST(SolverPoolTest, ResultsMatchSerialGenerateBitForBit) {
  const eval::Workbench& wb = SharedWorkbench();
  SolverPool pool(2);
  std::vector<BatchQuery> queries;
  for (size_t i = 0; i < 4; ++i) queries.push_back(MakeQuery(i));
  std::vector<std::future<Result<RePagerResult>>> futures;
  for (const auto& q : queries) {
    futures.push_back(SubmitForFuture(pool, q));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<RePagerResult> batched = futures[i].get();
    auto serial = wb.repager().Generate(queries[i].query, queries[i].options);
    ASSERT_EQ(batched.ok(), serial.ok());
    if (!batched.ok()) continue;
    EXPECT_EQ(batched->path.nodes(), serial->path.nodes());
    EXPECT_EQ(batched->path.edges(), serial->path.edges());
    EXPECT_EQ(batched->initial_seeds, serial->initial_seeds);
    EXPECT_EQ(batched->terminals, serial->terminals);
    EXPECT_EQ(batched->subgraph_nodes, serial->subgraph_nodes);
    EXPECT_EQ(batched->subgraph_edges, serial->subgraph_edges);
  }
}

TEST(SolverPoolTest, PerQueryErrorsLandInTheirSlot) {
  SolverPool pool(2);
  auto bad = SubmitForFuture(pool, {.query = "zzzz qqqq wwww",
                                    .options = {},
                                    .repager = WorkbenchHandle()});
  auto good = SubmitForFuture(pool, MakeQuery(0));
  EXPECT_FALSE(bad.get().ok());
  EXPECT_TRUE(good.get().ok());
}

TEST(SolverPoolTest, QueueBoundShedsWithUnavailable) {
  SolverPoolOptions options;
  options.max_queue_depth = 1;
  // One solve at a time -> backlog builds.
  SolverPool pool(1, options);
  // A burst far past the bound: the solver absorbs at most one
  // executing + one queued; the rest must shed inline with Unavailable,
  // not queue without limit.
  constexpr int kBurst = 6;
  std::vector<std::future<Result<RePagerResult>>> futures;
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(SubmitForFuture(pool, MakeQuery(0)));
  }
  int ok = 0, shed = 0;
  for (auto& f : futures) {
    Result<RePagerResult> r = f.get();
    if (r.ok()) {
      ++ok;
    } else {
      EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(ok, 1);    // at least the first submission computes
  EXPECT_GE(shed, 1);  // and the burst's tail was shed
  SolverPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.rejected_overload, static_cast<uint64_t>(shed));
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(ok));
  EXPECT_EQ(stats.queue_depth, 0u);  // everything drained or shed
}

TEST(SolverPoolTest, UnboundedQueueNeverSheds) {
  SolverPoolOptions options;
  options.max_queue_depth = 0;  // explicit opt-out
  SolverPool pool(1, options);
  std::vector<std::future<Result<RePagerResult>>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(SubmitForFuture(pool, MakeQuery(0)));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(pool.Stats().rejected_overload, 0u);
}

TEST(SolverPoolTest, ServiceTimeEwmaTracksSolves) {
  SolverPool pool(2);
  EXPECT_EQ(pool.Stats().ewma_item_seconds, 0.0);  // no samples yet
  auto r = SubmitForFuture(pool, MakeQuery(0)).get();
  ASSERT_TRUE(r.ok());
  // One real solve has been measured; the EWMA is seeded with it.
  EXPECT_GT(pool.Stats().ewma_item_seconds, 0.0);
  EXPECT_LT(pool.Stats().ewma_item_seconds, 60.0);  // sanity
}

TEST(SolverPoolTest, ShutdownDrainsQueuedRequests) {
  auto pool = std::make_unique<SolverPool>(2);
  std::vector<std::future<Result<RePagerResult>>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(SubmitForFuture(*pool, MakeQuery(0)));
  }
  pool->Shutdown();  // must not drop the queued work
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  // Submitting after shutdown fails cleanly instead of hanging.
  auto late = SubmitForFuture(*pool, MakeQuery(0));
  EXPECT_FALSE(late.get().ok());
}

TEST(SolverPoolTest, ShutdownDrainsEverySolver) {
  // A backlog deeper than the solver count, cut off by Shutdown while
  // every solver is busy: each queued callback fires exactly once, and
  // none with the after-shutdown FailedPrecondition.
  constexpr size_t kSolvers = 3;
  constexpr int kQueries = 12;
  auto pool = std::make_unique<SolverPool>(kSolvers);
  std::mutex mu;
  std::vector<int> fired(kQueries, 0);
  int failed_precondition = 0;
  for (int i = 0; i < kQueries; ++i) {
    pool->SubmitAsync(MakeQuery(static_cast<size_t>(i) % 4),
                      [&, i](Result<RePagerResult> r) {
                        std::lock_guard<std::mutex> lock(mu);
                        ++fired[i];
                        if (!r.ok() && r.status().code() ==
                                           StatusCode::kFailedPrecondition) {
                          ++failed_precondition;
                        }
                      });
  }
  pool->Shutdown();
  std::lock_guard<std::mutex> lock(mu);
  for (int i = 0; i < kQueries; ++i) EXPECT_EQ(fired[i], 1) << i;
  EXPECT_EQ(failed_precondition, 0);
  SolverPoolStats stats = pool->Stats();
  EXPECT_EQ(stats.batches, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats.queue_depth, 0u);
}

}  // namespace
}  // namespace rpg::core
