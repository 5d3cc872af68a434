#include "serve/query_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/repager.h"

namespace rpg::serve {
namespace {

CachedResult MakeResult(size_t fragment_size) {
  auto result = std::make_shared<RenderedResult>();
  result->path_json.assign(fragment_size, 'x');
  result->subgraph_nodes = fragment_size;
  return result;
}

/// What a cache charges for `result` stored under `key`.
size_t ChargedBytes(const std::string& key, const CachedResult& result) {
  QueryCache cache;
  cache.Publish(key, 0, result);
  return cache.Stats().bytes;
}

// -------------------------------------------------------- canonical key

TEST(CanonicalQueryKeyTest, NormalizesCaseAndWhitespace) {
  std::string base = CanonicalQueryKey("graph neural networks", 30, 2020);
  EXPECT_EQ(CanonicalQueryKey("Graph  Neural   Networks", 30, 2020), base);
  EXPECT_EQ(CanonicalQueryKey("  graph neural networks  ", 30, 2020), base);
  EXPECT_EQ(CanonicalQueryKey("graph\tneural\nnetworks", 30, 2020), base);
}

TEST(CanonicalQueryKeyTest, DefaultsShareKeyWithExplicitDefaults) {
  core::RePagerOptions defaults;
  EXPECT_EQ(CanonicalQueryKey("q", 0, 0),
            CanonicalQueryKey("q", defaults.num_initial_seeds,
                              defaults.year_cutoff));
  EXPECT_EQ(CanonicalQueryKey("q", -1, -5), CanonicalQueryKey("q", 0, 0));
}

TEST(CanonicalQueryKeyTest, DistinctParametersDistinctKeys) {
  EXPECT_NE(CanonicalQueryKey("q", 10, 2020), CanonicalQueryKey("q", 20, 2020));
  EXPECT_NE(CanonicalQueryKey("q", 10, 2020), CanonicalQueryKey("q", 10, 2021));
  EXPECT_NE(CanonicalQueryKey("a b", 10, 2020),
            CanonicalQueryKey("ab", 10, 2020));
  // The field separator cannot be forged from query text: whitespace is
  // collapsed to single spaces, so "q 30" != ("q", seeds=30).
  EXPECT_NE(CanonicalQueryKey("q 30", 10, 2020),
            CanonicalQueryKey("q", 30, 2020));
}

// --------------------------------------------------------------- basics

TEST(QueryCacheTest, MissThenHit) {
  QueryCache cache;
  EXPECT_FALSE(cache.Lookup("k").has_value());
  CachedResult r = MakeResult(4);
  cache.Publish("k", 0, r);
  auto hit = cache.Lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->negative());
  EXPECT_EQ(hit->result.get(), r.get());  // shared, not copied
  QueryCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(QueryCacheTest, InsertReplacesExisting) {
  QueryCacheOptions options;
  QueryCache cache(options);
  cache.Publish("k", 0, MakeResult(4));
  CachedResult replacement = MakeResult(8);
  cache.Publish("k", 0, replacement);
  EXPECT_EQ(cache.Stats().entries, 1u);
  EXPECT_EQ(cache.Lookup("k")->result.get(), replacement.get());
}

TEST(QueryCacheTest, ClearDropsEntriesKeepsCounters) {
  QueryCache cache;
  cache.Publish("a", 0, MakeResult(4));
  cache.Publish("b", 0, MakeResult(4));
  cache.Lookup("a");
  cache.Clear();
  QueryCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_FALSE(cache.Lookup("a").has_value());
}

// ------------------------------------------------------ negative caching

TEST(QueryCacheTest, NegativeEntryRemembersStatus) {
  QueryCacheOptions options;
  QueryCache cache(options);
  cache.Publish("bad", 0, Status::NotFound("no hits for query"));
  auto hit = cache.Lookup("bad");
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->negative());
  EXPECT_EQ(hit->result, nullptr);
  EXPECT_TRUE(hit->status.IsNotFound());
  EXPECT_EQ(hit->status.message(), "no hits for query");
  QueryCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.negative_insertions, 1u);
  EXPECT_EQ(stats.negative_hits, 1u);
  EXPECT_EQ(stats.negative_entries, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 0u);  // positive hits stay separate
  EXPECT_GT(stats.bytes, 0u);
}

TEST(QueryCacheTest, OkStatusNeverCachedAsNegative) {
  QueryCache cache;
  // An OK outcome without a result is stored neither way.
  cache.Publish("k", 0, CachedResult());
  EXPECT_FALSE(cache.Lookup("k").has_value());
}

TEST(QueryCacheTest, PositiveInsertReplacesNegativeEntry) {
  QueryCacheOptions options;
  QueryCache cache(options);
  cache.Publish("k", 0, Status::NotFound("transiently hopeless"));
  CachedResult r = MakeResult(4);
  cache.Publish("k", 0, r);
  auto hit = cache.Lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->negative());
  EXPECT_EQ(hit->result.get(), r.get());
  QueryCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.negative_entries, 0u);  // replaced, count adjusted
}

TEST(QueryCacheTest, NegativeEntriesShareLruAndEvict) {
  QueryCacheOptions options;
  options.max_entries = 2;
  QueryCache cache(options);
  cache.Publish("n1", 0, Status::NotFound("x"));
  cache.Publish("p1", 0, MakeResult(1));
  cache.Publish("p2", 0, MakeResult(1));  // evicts n1 (LRU tail)
  QueryCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.negative_entries, 0u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_FALSE(cache.Lookup("n1").has_value());
}

// ------------------------------------------------- capacity + eviction

TEST(QueryCacheTest, EntryCapacityEvictsLru) {
  QueryCacheOptions options;
  options.max_entries = 3;
  QueryCache cache(options);
  cache.Publish("a", 0, MakeResult(1));
  cache.Publish("b", 0, MakeResult(1));
  cache.Publish("c", 0, MakeResult(1));
  cache.Lookup("a");  // refresh a: LRU order is now b < c < a
  cache.Publish("d", 0, MakeResult(1));
  EXPECT_EQ(cache.Stats().entries, 3u);
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_FALSE(cache.Lookup("b").has_value());  // b was least recent
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
  EXPECT_TRUE(cache.Lookup("d").has_value());
}

TEST(QueryCacheTest, ByteCapacityAccountingAndEviction) {
  // Same-length keys, so every entry is charged the same.
  const size_t unit = ChargedBytes("a", MakeResult(16));
  QueryCacheOptions options;
  options.max_entries = 100;  // bytes bind first
  options.max_bytes = unit * 3 + unit / 2;  // fits 3, not 4
  QueryCache cache(options);
  cache.Publish("a", 0, MakeResult(16));
  cache.Publish("b", 0, MakeResult(16));
  cache.Publish("c", 0, MakeResult(16));
  QueryCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.bytes, 3 * unit);
  cache.Publish("d", 0, MakeResult(16));
  stats = cache.Stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, options.max_bytes);
  EXPECT_FALSE(cache.Lookup("a").has_value());
}

TEST(QueryCacheTest, EntryBytesIncludeRenderedReply) {
  // The stored reply fragment is most of a real entry's footprint (about
  // 7.8 KB of the 8.8 KB mean over the default workbench's queries), so
  // the byte budget must see it.
  auto bare = std::make_shared<RenderedResult>();
  bare->subgraph_nodes = 16;
  auto rendered = std::make_shared<RenderedResult>(*bare);
  rendered->path_json.assign(8192, 'x');
  const size_t bare_bytes = ChargedBytes("a", bare);
  const size_t entry_bytes = ChargedBytes("b", rendered);
  // The only difference between the two is the fragment's storage.
  EXPECT_EQ(entry_bytes - bare_bytes,
            rendered->path_json.capacity() - bare->path_json.capacity());
  EXPECT_GE(entry_bytes, 8192u + sizeof(RenderedResult));

  // A budget that fits the bare reply, but not the reply plus its
  // fragment, refuses the rendered entry.
  QueryCacheOptions options;
  options.max_bytes = bare_bytes + 4096;
  QueryCache tight(options);
  tight.Publish("a", 0, CachedResult(bare));
  tight.Publish("b", 0, CachedResult(rendered));
  EXPECT_TRUE(tight.Lookup("a").has_value());
  EXPECT_FALSE(tight.Lookup("b").has_value());
  EXPECT_EQ(tight.Stats().entries, 1u);
  EXPECT_EQ(tight.Stats().bytes, bare_bytes);
}

TEST(QueryCacheTest, PositiveEntryIsChargedItsKey) {
  // Positive and negative entries are charged by one formula: the key
  // counts for both. Two entries of one reply differ by their key
  // lengths alone.
  CachedResult result = MakeResult(64);
  const std::string short_key = CanonicalQueryKey("gnn", 30, 2020);
  const std::string long_key = CanonicalQueryKey("graph neural networks", 30,
                                                 2020);
  EXPECT_EQ(ChargedBytes(long_key, result) - ChargedBytes(short_key, result),
            long_key.size() - short_key.size());
}

TEST(QueryCacheTest, OversizedEntryNotCached) {
  CachedResult big = MakeResult(100000);
  QueryCacheOptions options;
  options.max_bytes = 1024;
  QueryCache cache(options);
  cache.Publish("big", 0, big);
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_FALSE(cache.Lookup("big").has_value());
}

TEST(QueryCacheTest, ZeroByteBudgetCachesNothing) {
  QueryCacheOptions options;
  options.max_bytes = 0;
  QueryCache cache(options);
  cache.Publish("p", 0, MakeResult(1));
  cache.Publish("n", 0, Status::NotFound("x"));
  EXPECT_FALSE(cache.Lookup("p").has_value());
  EXPECT_FALSE(cache.Lookup("n").has_value());
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Stats().bytes, 0u);
}

TEST(QueryCacheTest, EntryUpToWholeByteBudgetIsCached) {
  // The budget is one pool, not split per lock: an entry of half the
  // budget (four times max_bytes / 8) is cached.
  CachedResult result = MakeResult(64);
  QueryCacheOptions options;
  options.max_bytes = 2 * ChargedBytes("k", result);
  QueryCache cache(options);
  cache.Publish("k", 0, result);
  EXPECT_TRUE(cache.Lookup("k").has_value());
  EXPECT_EQ(cache.Stats().entries, 1u);
}

// ------------------------------------------------- single-flight admission

/// A waiter that appends `id` to `order` when it runs.
QueryCache::Waiter Record(std::vector<int>* order, int id) {
  return [order, id](const Result<CachedResult>&) { order->push_back(id); };
}

TEST(QueryCacheTest, ClaimOwnsJoinsSameEpochOwnsOtherEpoch) {
  QueryCache cache;
  std::vector<int> order;
  CachedValue value;
  EXPECT_EQ(cache.JoinOrClaim("k", 1, Record(&order, 0), &value),
            QueryCache::Admission::kOwner);
  EXPECT_EQ(cache.JoinOrClaim("k", 1, Record(&order, 1), &value),
            QueryCache::Admission::kJoined);
  // The flight is epoch-qualified: the same key on another epoch gets
  // its own computation, never the other epoch's result.
  EXPECT_EQ(cache.JoinOrClaim("k", 2, Record(&order, 2), &value),
            QueryCache::Admission::kOwner);
  EXPECT_EQ(cache.JoinOrClaim("other", 1, Record(&order, 3), &value),
            QueryCache::Admission::kOwner);
  EXPECT_TRUE(order.empty());  // no waiter runs at admission
}

TEST(QueryCacheTest, PublishReturnsWaitersInJoinOrderAndRetiresFlight) {
  QueryCache cache;
  std::vector<int> order;
  CachedValue value;
  ASSERT_EQ(cache.JoinOrClaim("k", 1, Record(&order, 0), &value),
            QueryCache::Admission::kOwner);
  for (int id = 1; id <= 3; ++id) {
    ASSERT_EQ(cache.JoinOrClaim("k", 1, Record(&order, id), &value),
              QueryCache::Admission::kJoined);
  }
  ASSERT_EQ(cache.JoinOrClaim("k", 2, Record(&order, 9), &value),
            QueryCache::Admission::kOwner);
  CachedResult result = MakeResult(4);
  std::vector<QueryCache::Waiter> waiters = cache.Publish("k", 1, result);
  ASSERT_EQ(waiters.size(), 3u);
  for (const QueryCache::Waiter& waiter : waiters) waiter(result);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  // Retired: a second publish finds no waiters, and epoch 2's flight is
  // still there.
  EXPECT_TRUE(cache.Publish("k", 1, result).empty());
  EXPECT_EQ(cache.JoinOrClaim("k", 2, Record(&order, 10), &value),
            QueryCache::Admission::kJoined);
  EXPECT_EQ(cache.Publish("k", 2, MakeResult(4)).size(), 1u);
}

TEST(QueryCacheTest, DeterministicErrorCachedTransientErrorNot) {
  QueryCache cache;
  std::vector<int> order;
  CachedValue value;
  ASSERT_EQ(cache.JoinOrClaim("bad", 0, Record(&order, 0), &value),
            QueryCache::Admission::kOwner);
  EXPECT_TRUE(cache.Publish("bad", 0, Status::NotFound("no hits")).empty());
  EXPECT_EQ(cache.JoinOrClaim("bad", 0, Record(&order, 1), &value),
            QueryCache::Admission::kCached);
  EXPECT_TRUE(value.negative());
  EXPECT_TRUE(value.status.IsNotFound());
  EXPECT_EQ(value.status.message(), "no hits");

  ASSERT_EQ(cache.JoinOrClaim("shed", 0, Record(&order, 2), &value),
            QueryCache::Admission::kOwner);
  ASSERT_EQ(cache.JoinOrClaim("shed", 0, Record(&order, 3), &value),
            QueryCache::Admission::kJoined);
  // A shed solve is transient: its waiters still get it, but nothing is
  // stored and the next request computes again.
  EXPECT_EQ(cache.Publish("shed", 0, Status::Unavailable("queue full")).size(),
            1u);
  EXPECT_EQ(cache.JoinOrClaim("shed", 0, Record(&order, 4), &value),
            QueryCache::Admission::kOwner);
  QueryCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.negative_entries, 1u);
  EXPECT_EQ(stats.negative_insertions, 1u);
  EXPECT_EQ(stats.insertions, 0u);
}

TEST(QueryCacheTest, CachedAdmissionCountsNothingEvictsStaleStamp) {
  QueryCache cache;
  std::vector<int> order;
  CachedValue value;
  CachedResult result = MakeResult(4);
  cache.Publish("k", 1, result);
  EXPECT_EQ(cache.JoinOrClaim("k", 1, Record(&order, 0), &value),
            QueryCache::Admission::kCached);
  EXPECT_EQ(value.result.get(), result.get());
  QueryCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_TRUE(stats.by_epoch.empty());

  // An entry stamped by another epoch is evicted on admission and the
  // request owns a fresh computation.
  EXPECT_EQ(cache.JoinOrClaim("k", 2, Record(&order, 1), &value),
            QueryCache::Admission::kOwner);
  stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.stale_evictions, 1u);
  EXPECT_EQ(stats.hits + stats.misses, 0u);
  ASSERT_EQ(stats.by_epoch.size(), 1u);
  EXPECT_EQ(stats.by_epoch[0].epoch, 1u);
  EXPECT_EQ(stats.by_epoch[0].stale_evictions, 1u);
}

TEST(QueryCacheTest, ClearReturnsDroppedCountLeavesFlights) {
  QueryCache cache;
  std::vector<int> order;
  CachedValue value;
  cache.Publish("a", 0, MakeResult(1));
  cache.Publish("b", 0, Status::NotFound("x"));
  ASSERT_EQ(cache.JoinOrClaim("k", 0, Record(&order, 0), &value),
            QueryCache::Admission::kOwner);
  ASSERT_EQ(cache.JoinOrClaim("k", 0, Record(&order, 1), &value),
            QueryCache::Admission::kJoined);
  EXPECT_EQ(cache.Clear(), 2u);
  EXPECT_EQ(cache.Clear(), 0u);
  // The computation in flight survives the clear: a duplicate still
  // joins it, and its publish hands back both waiters.
  EXPECT_EQ(cache.JoinOrClaim("k", 0, Record(&order, 2), &value),
            QueryCache::Admission::kJoined);
  EXPECT_EQ(cache.Publish("k", 0, MakeResult(1)).size(), 2u);
  EXPECT_EQ(cache.Stats().entries, 1u);
}

// ---------------------------------------------------------- concurrency

TEST(QueryCacheTest, ConcurrentMixedTraffic) {
  QueryCacheOptions options;
  options.max_entries = 64;
  QueryCache cache(options);
  constexpr int kThreads = 8, kOps = 500;
  // One slot per (thread, op): set when that op's waiter joined a
  // flight, counted up each time it runs.
  std::vector<std::atomic<int>> joined(kThreads * kOps);
  std::vector<std::atomic<int>> ran(kThreads * kOps);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto run = [](const std::vector<QueryCache::Waiter>& waiters,
                    const CachedResult& result) {
        for (const QueryCache::Waiter& waiter : waiters) waiter(result);
      };
      for (int i = 0; i < kOps; ++i) {
        std::string key = "k" + std::to_string((t * 7 + i) % 100);
        if (i % 3 == 0) {
          CachedResult result = MakeResult(8);
          run(cache.Publish(key, 0, result), result);
          continue;
        }
        auto hit = cache.Lookup(key);
        if (hit) {
          EXPECT_EQ(hit->result->path_json.size(), 8u);
          continue;
        }
        const int slot = t * kOps + i;
        CachedValue value;
        switch (cache.JoinOrClaim(
            key, 0,
            [&ran, slot](const Result<CachedResult>& outcome) {
              EXPECT_TRUE(outcome.ok());
              ++ran[slot];
            },
            &value)) {
          case QueryCache::Admission::kCached:
            EXPECT_EQ(value.result->path_json.size(), 8u);
            break;
          case QueryCache::Admission::kJoined:
            ++joined[slot];
            break;
          case QueryCache::Admission::kOwner: {
            std::this_thread::yield();  // a window for duplicates to join
            CachedResult result = MakeResult(8);
            run(cache.Publish(key, 0, result), result);
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  QueryCacheStats stats = cache.Stats();
  EXPECT_LE(stats.entries, 64u);
  // Per thread: 167 publishes (i % 3 == 0), 333 lookups; admission
  // counts neither a hit nor a miss.
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * (kOps * 2 / 3));
  // Every owner published, so every joined waiter ran, exactly once.
  for (int slot = 0; slot < kThreads * kOps; ++slot) {
    EXPECT_EQ(ran[slot].load(), joined[slot].load()) << "slot " << slot;
  }
}

}  // namespace
}  // namespace rpg::serve
