#include "serve/micro_batcher.h"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "serve_test_util.h"

namespace rpg::serve {
namespace {

core::BatchQuery MakeQuery(size_t bank_index) {
  const auto& entry = SharedWorkbench().bank().Get(bank_index);
  core::BatchQuery q;
  q.query = entry.query;
  q.options.year_cutoff = entry.year;
  return q;
}

/// SubmitAsync with the completion delivered through a future, for tests
/// that block on their results.
std::future<Result<core::RePagerResult>> SubmitForFuture(
    MicroBatcher& batcher, core::BatchQuery query) {
  auto promise = std::make_shared<std::promise<Result<core::RePagerResult>>>();
  std::future<Result<core::RePagerResult>> future = promise->get_future();
  batcher.SubmitAsync(std::move(query),
                      [promise](Result<core::RePagerResult> result) {
                        promise->set_value(std::move(result));
                      });
  return future;
}

TEST(MicroBatcherTest, SingleRequestFlushesOnDeadline) {
  core::BatchEngine engine(&SharedWorkbench().repager(), {.num_threads = 2});
  MicroBatcherOptions options;
  options.max_batch_size = 64;  // never reached
  options.flush_window = std::chrono::microseconds(2000);
  MicroBatcher batcher(&engine, options);
  auto future = SubmitForFuture(batcher, MakeQuery(0));
  Result<core::RePagerResult> result = future.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->ranked.empty());
  MicroBatcherStats stats = batcher.Stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.flushes_on_deadline, 1u);
  EXPECT_EQ(stats.flushes_on_size, 0u);
}

TEST(MicroBatcherTest, FlushOnSizeGroupsConcurrentArrivals) {
  core::BatchEngine engine(&SharedWorkbench().repager(), {.num_threads = 2});
  MicroBatcherOptions options;
  options.max_batch_size = 3;
  // A long window, so only the size trigger can flush the full batch.
  options.flush_window = std::chrono::microseconds(30'000'000);
  MicroBatcher batcher(&engine, options);
  std::vector<std::future<Result<core::RePagerResult>>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(SubmitForFuture(batcher, MakeQuery(0)));
  }
  for (auto& f : futures) {
    Result<core::RePagerResult> r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  MicroBatcherStats stats = batcher.Stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_GE(stats.flushes_on_size, 1u);
  EXPECT_EQ(stats.max_batch_size_seen, 3u);
}

TEST(MicroBatcherTest, ResultsMatchSerialGenerateBitForBit) {
  const eval::Workbench& wb = SharedWorkbench();
  core::BatchEngine engine(&wb.repager(), {.num_threads = 2});
  MicroBatcher batcher(&engine, {});
  std::vector<core::BatchQuery> queries;
  for (size_t i = 0; i < 4; ++i) queries.push_back(MakeQuery(i));
  std::vector<std::future<Result<core::RePagerResult>>> futures;
  for (const auto& q : queries) {
    futures.push_back(SubmitForFuture(batcher, q));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<core::RePagerResult> batched = futures[i].get();
    auto serial = wb.repager().Generate(queries[i].query, queries[i].options);
    ASSERT_EQ(batched.ok(), serial.ok());
    if (!batched.ok()) continue;
    EXPECT_EQ(batched->ranked, serial->ranked);
    EXPECT_EQ(batched->path.nodes(), serial->path.nodes());
    EXPECT_EQ(batched->path.edges(), serial->path.edges());
    EXPECT_EQ(batched->initial_seeds, serial->initial_seeds);
    EXPECT_EQ(batched->terminals, serial->terminals);
  }
}

TEST(MicroBatcherTest, PerQueryErrorsLandInTheirSlot) {
  core::BatchEngine engine(&SharedWorkbench().repager(), {.num_threads = 2});
  MicroBatcher batcher(&engine, {});
  auto bad =
      SubmitForFuture(batcher, {.query = "zzzz qqqq wwww", .options = {}});
  auto good = SubmitForFuture(batcher, MakeQuery(0));
  EXPECT_FALSE(bad.get().ok());
  EXPECT_TRUE(good.get().ok());
}

TEST(MicroBatcherTest, QueueBoundShedsWithUnavailable) {
  core::BatchEngine engine(&SharedWorkbench().repager(), {.num_threads = 1});
  MicroBatcherOptions options;
  options.max_batch_size = 1;  // one solve at a time -> backlog builds
  options.max_queue_depth = 1;
  MicroBatcher batcher(&engine, options);
  // A burst far past the bound: the dispatcher absorbs at most one
  // executing + one queued; the rest must shed inline with Unavailable,
  // not queue without limit.
  constexpr int kBurst = 6;
  std::vector<std::future<Result<core::RePagerResult>>> futures;
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(SubmitForFuture(batcher, MakeQuery(0)));
  }
  int ok = 0, shed = 0;
  for (auto& f : futures) {
    Result<core::RePagerResult> r = f.get();
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
  MicroBatcherStats stats = batcher.Stats();
  EXPECT_EQ(stats.rejected_overload, static_cast<uint64_t>(shed));
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(ok));
  EXPECT_EQ(stats.queue_depth, 0u);  // everything drained or shed
}

TEST(MicroBatcherTest, UnboundedQueueNeverSheds) {
  core::BatchEngine engine(&SharedWorkbench().repager(), {.num_threads = 1});
  MicroBatcherOptions options;
  options.max_batch_size = 1;
  options.max_queue_depth = 0;  // explicit opt-out
  MicroBatcher batcher(&engine, options);
  std::vector<std::future<Result<core::RePagerResult>>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(SubmitForFuture(batcher, MakeQuery(0)));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(batcher.Stats().rejected_overload, 0u);
}

TEST(MicroBatcherTest, QueueDeadlineExpiresStaleEntries) {
  core::BatchEngine engine(&SharedWorkbench().repager(), {.num_threads = 1});
  MicroBatcherOptions options;
  options.max_batch_size = 1;
  options.queue_deadline = std::chrono::milliseconds(50);
  // The on_batch tap runs on the dispatcher thread: sleeping in it
  // wedges dispatch long enough for everything still queued to age past
  // the deadline — deterministic, no timing races against solve speed.
  options.on_batch = [](size_t, double) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  };
  MicroBatcher batcher(&engine, options);
  constexpr int kBurst = 4;
  std::vector<std::future<Result<core::RePagerResult>>> futures;
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(SubmitForFuture(batcher, MakeQuery(0)));
  }
  int ok = 0, expired = 0;
  for (auto& f : futures) {
    Result<core::RePagerResult> r = f.get();
    if (r.ok()) {
      ++ok;
    } else {
      EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
      // The expiry carries a measured Retry-After hint in its clamp.
      EXPECT_GE(r.status().retry_after_seconds(), 1);
      EXPECT_LE(r.status().retry_after_seconds(), 30);
      ++expired;
    }
  }
  // The first batch (picked up before the wedge) computes; everything
  // that sat out the 250 ms sleep is past the 50 ms deadline.
  EXPECT_GE(ok, 1);
  EXPECT_GE(expired, 1);
  EXPECT_EQ(ok + expired, kBurst);
  MicroBatcherStats stats = batcher.Stats();
  EXPECT_EQ(stats.deadline_expired, static_cast<uint64_t>(expired));
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(MicroBatcherTest, QueueDeadlineDisabledByDefault) {
  core::BatchEngine engine(&SharedWorkbench().repager(), {.num_threads = 1});
  MicroBatcherOptions options;
  options.max_batch_size = 1;
  // Same wedge as above, but with queue_deadline at its 0 default every
  // entry waits out the stall and still computes.
  options.on_batch = [](size_t, double) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  };
  MicroBatcher batcher(&engine, options);
  std::vector<std::future<Result<core::RePagerResult>>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(SubmitForFuture(batcher, MakeQuery(0)));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(batcher.Stats().deadline_expired, 0u);
}

TEST(MicroBatcherTest, ServiceTimeEwmaTracksBatches) {
  core::BatchEngine engine(&SharedWorkbench().repager(), {.num_threads = 2});
  MicroBatcher batcher(&engine, {});
  EXPECT_EQ(batcher.Stats().ewma_item_seconds, 0.0);  // no samples yet
  auto r = SubmitForFuture(batcher, MakeQuery(0)).get();
  ASSERT_TRUE(r.ok());
  // One real solve has been measured; the EWMA is seeded with it.
  EXPECT_GT(batcher.Stats().ewma_item_seconds, 0.0);
  EXPECT_LT(batcher.Stats().ewma_item_seconds, 60.0);  // sanity
}

TEST(MicroBatcherTest, ShutdownDrainsQueuedRequests) {
  core::BatchEngine engine(&SharedWorkbench().repager(), {.num_threads = 2});
  MicroBatcherOptions options;
  options.flush_window = std::chrono::microseconds(30'000'000);
  auto batcher = std::make_unique<MicroBatcher>(&engine, options);
  std::vector<std::future<Result<core::RePagerResult>>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(SubmitForFuture(*batcher, MakeQuery(0)));
  }
  batcher->Shutdown();  // must not drop the queued work
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  // Submitting after shutdown fails cleanly instead of hanging.
  auto late = SubmitForFuture(*batcher, MakeQuery(0));
  EXPECT_FALSE(late.get().ok());
}

}  // namespace
}  // namespace rpg::serve
