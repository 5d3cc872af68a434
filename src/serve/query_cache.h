#ifndef RPG_SERVE_QUERY_CACHE_H_
#define RPG_SERVE_QUERY_CACHE_H_

/// \file
/// LRU cache over rendered RePaGer replies plus the in-flight table that
/// makes concurrent identical misses share one computation (single-
/// flight): the first line of defence in the serving layer
/// (docs/serving.md). Survey-generation traffic is highly repetitive —
/// popular topics dominate — over an immutable citation graph, so a
/// rendered reply never goes stale and can be shared verbatim between
/// requests.
///
/// Negative caching: deterministic failures ("no hits", "empty query":
/// NotFound and InvalidArgument) are just as repeatable as successes
/// over the immutable corpus, so Publish also remembers such an error
/// Status under the same canonical key. A negative entry costs a few
/// hundred bytes and spares a full KHop+NEWST attempt per repeat of a
/// hopeless query. Transient failures (shed, shutdown) are not stored.
/// Negative hits/insertions/entries are counted separately so
/// `/api/stats` can tell them apart.
///
/// Epoch stamping: "immutable" is per-epoch since the serving tier
/// learned to swap substrates (serve::Epoch). Every entry carries the
/// epoch id it was computed under; Lookup passes the requester's epoch
/// and a stamp mismatch is a miss that ALSO erases the stale entry on
/// the spot (lazy eviction). A flip therefore invalidates the whole
/// cache logically in O(1) — no global clear, no flip-time scan — and
/// the stale population pays for itself one lookup at a time while new
/// entries repopulate. `stale_evictions` plus per-epoch hit/miss splits
/// let /api/stats show a flip's cache cost directly.
///
/// Single-flight: after a counted miss, JoinOrClaim admits the request
/// atomically with every other call. The first requester of an (epoch,
/// key) pair owns the computation; later ones register a waiter on it;
/// one that arrives after the owner published reads the entry instead.
/// The flight is epoch-qualified, so a post-flip request never joins a
/// pre-flip computation (their results may differ). The owner's Publish
/// stores the outcome, retires the flight and hands back its waiters.
///
/// Ownership / thread-safety model:
///  - Entries are std::shared_ptr<const RenderedResult>: the cache and
///    any number of in-flight responses share one immutable reply;
///    eviction only drops the cache's reference.
///  - One mutex guards the LRU list, the index, the in-flight table and
///    the counters; all public methods are safe from any thread. No
///    waiter or other caller code runs under it.
///  - Capacity is bounded both by entries and by (estimated) bytes;
///    either limit evicts from the global LRU tail. An entry larger than
///    `max_bytes` is not cached, so a byte budget of 0 caches nothing:
///    this is how the serving layer turns the cache off.

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "obs/trace.h"
#include "steiner/stats.h"

namespace rpg::serve {

/// What an /api/path reply (serve/path_json.h) reads of one computed
/// result: the head's counts and compute time, the debug object's spans
/// and Steiner counters, and the path part of the body, rendered once
/// on the solver thread from the epoch that computed it (RenderResult).
struct RenderedResult {
  size_t subgraph_nodes = 0;
  size_t subgraph_edges = 0;
  double total_seconds = 0.0;
  obs::SpanSet stages;
  steiner::SteinerStats steiner_stats;
  std::string path_json;
};

/// A cached, immutable, shareable reply.
using CachedResult = std::shared_ptr<const RenderedResult>;

/// One cached outcome: a shared result (positive entry) or the error
/// Status the same query produced last time (negative entry).
struct CachedValue {
  CachedResult result;           ///< nullptr for negative entries
  Status status = Status::OK();  ///< non-OK for negative entries
  bool negative() const { return result == nullptr; }
};

/// Canonical cache key for a serving request: the query text lowercased
/// with whitespace runs collapsed (the tokenizer is case-insensitive, so
/// "Graph  Neural" and "graph neural" produce bit-identical results —
/// asserted by tests/serve/query_cache_test.cc), joined with the resolved
/// num_seeds and year_cutoff. `num_seeds <= 0` and `year_cutoff <= 0`
/// mean "use the RePagerOptions default", so explicit and implicit
/// defaults share an entry.
std::string CanonicalQueryKey(const std::string& query, int num_seeds,
                              int year_cutoff);

struct QueryCacheOptions {
  /// Byte budget. 0 caches nothing.
  size_t max_bytes = 64ull << 20;
  /// Entry budget. 0 caches nothing.
  size_t max_entries = 4096;
};

/// Hit/miss/stale counters for one epoch id (the per-epoch split of the
/// global counters below). `stale_evictions` is keyed by the EVICTED
/// entry's epoch (whose result went stale), hits/misses by the
/// requesting epoch.
struct EpochCacheStats {
  uint64_t epoch = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t stale_evictions = 0;
};

/// Point-in-time counters. `hits` counts positive hits only; negative
/// hits/insertions have their own counters. `entries`/`bytes` include
/// negative entries; `negative_entries` says how many of them are
/// negative. A stale eviction (epoch-mismatched entry dropped) counts as
/// a stale_eviction, never as an `evictions` (capacity) event; on Lookup
/// it is also a miss.
struct QueryCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t negative_hits = 0;
  uint64_t negative_insertions = 0;
  uint64_t stale_evictions = 0;
  size_t entries = 0;
  size_t negative_entries = 0;
  size_t bytes = 0;
  /// Per-epoch split, ascending by epoch id. Bounded: the cache keeps
  /// the counters of the most recent few epochs only.
  std::vector<EpochCacheStats> by_epoch;
};

class QueryCache {
 public:
  /// Completion of a joined request: runs once with its flight's
  /// outcome, on the thread that published it, outside the cache's lock.
  using Waiter = std::function<void(const Result<CachedResult>&)>;

  /// JoinOrClaim's verdict for a request that missed.
  enum class Admission {
    kCached,  ///< an entry of the request's epoch was published meanwhile
    kJoined,  ///< the waiter is registered on an in-flight computation
    kOwner,   ///< the caller computes, then must call Publish
  };

  explicit QueryCache(QueryCacheOptions options = {});

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// Returns the cached outcome (positive or negative) and refreshes its
  /// LRU position, or nullopt on miss. Counts a hit or a miss. An entry
  /// whose stamp differs from `epoch_id` is stale: it is erased
  /// immediately (lazy eviction, counted in stale_evictions) and the
  /// lookup is a miss.
  std::optional<CachedValue> Lookup(const std::string& key,
                                    uint64_t epoch_id = 0);

  /// Single-flight admission for a request whose Lookup missed. Returns
  /// kCached with `*value` set when an entry stamped `epoch_id` was
  /// published since the miss (counted as neither hit nor miss; a stale
  /// stamp is still evicted); kJoined after registering `waiter` on the
  /// in-flight computation of (`epoch_id`, `key`); otherwise kOwner,
  /// after opening that computation's flight. `waiter` is dropped unless
  /// the result is kJoined.
  Admission JoinOrClaim(const std::string& key, uint64_t epoch_id,
                        Waiter waiter, CachedValue* value);

  /// Stores `outcome` under `key` stamped `epoch_id` — a positive entry,
  /// a negative one for NotFound/InvalidArgument, nothing for other
  /// errors or a null result — then evicts from the LRU tail until both
  /// capacity limits hold. Retires the (`epoch_id`, `key`) flight, if
  /// any, and returns its waiters in join order; the caller runs them.
  std::vector<Waiter> Publish(const std::string& key, uint64_t epoch_id,
                              const Result<CachedResult>& outcome);

  /// Drops every entry and returns how many it dropped. Counters and
  /// in-flight computations are kept.
  size_t Clear();

  QueryCacheStats Stats() const;

 private:
  struct Entry {
    std::string key;
    CachedResult result;           // nullptr for negative entries
    Status status = Status::OK();  // non-OK for negative entries
    size_t bytes = 0;
    uint64_t epoch_id = 0;  // stamp of the epoch the result was computed on
  };
  using LruList = std::list<Entry>;

  /// The per-epoch counters of `epoch_id`, created on first use.
  EpochCacheStats& Epoch(uint64_t epoch_id);
  /// The entry of `key` stamped `epoch_id`, moved to the LRU front, or
  /// lru_.end(). An entry with another stamp is erased on the way and
  /// counted as a stale eviction.
  LruList::iterator FindCurrent(const std::string& key, uint64_t epoch_id);
  void Insert(const std::string& key, CachedResult result, Status status,
              uint64_t epoch_id);
  void Erase(LruList::iterator entry);

  const size_t max_bytes_;
  const size_t max_entries_;

  mutable std::mutex mu_;
  LruList lru_;  // front = most recent
  std::unordered_map<std::string, LruList::iterator> index_;
  /// In-flight computations, keyed by epoch id + canonical key; each
  /// holds the waiters registered on it, in join order.
  std::unordered_map<std::string, std::vector<Waiter>> flights_;
  /// Live counters; Stats() fills in `entries` and `by_epoch`.
  QueryCacheStats stats_;
  /// Per-epoch counter split, keyed by epoch id. Epoch ids are
  /// monotonic, so bounding the map means dropping the oldest epochs.
  std::map<uint64_t, EpochCacheStats> by_epoch_;
};

}  // namespace rpg::serve

#endif  // RPG_SERVE_QUERY_CACHE_H_
