#include "serve/query_cache.h"

#include <algorithm>
#include <list>
#include <map>
#include <mutex>
#include <unordered_map>

#include "common/string_util.h"

namespace rpg::serve {

namespace {

/// FNV-1a over the key; fast, stable across runs, and good enough to
/// spread keys over a handful of shards.
size_t HashKey(const std::string& key) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return static_cast<size_t>(h);
}

size_t RoundUpPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::string CanonicalQueryKey(const std::string& query, int num_seeds,
                              int year_cutoff) {
  core::RePagerOptions defaults;
  if (num_seeds <= 0) num_seeds = defaults.num_initial_seeds;
  if (year_cutoff <= 0) year_cutoff = defaults.year_cutoff;
  std::string normalized =
      Join(SplitWhitespace(ToLower(query)), " ");
  // '\x1f' (unit separator) cannot appear in the tokenized words, so the
  // three fields cannot alias each other.
  return normalized + '\x1f' + std::to_string(num_seeds) + '\x1f' +
         std::to_string(year_cutoff);
}

size_t EstimateResultBytes(const RenderedResult& result) {
  size_t bytes = sizeof(RenderedResult) + result.path_json.capacity();
  bytes += result.ranked.capacity() * sizeof(graph::PaperId);
  bytes += result.initial_seeds.capacity() * sizeof(graph::PaperId);
  bytes += result.terminals.capacity() * sizeof(graph::PaperId);
  bytes += result.path.nodes().capacity() * sizeof(graph::PaperId);
  bytes += result.path.edges().capacity() *
           sizeof(std::pair<graph::PaperId, graph::PaperId>);
  return bytes;
}

struct QueryCache::Shard {
  struct Entry {
    std::string key;
    CachedResult result;           // nullptr for negative entries
    Status status = Status::OK();  // non-OK for negative entries
    size_t bytes = 0;
    uint64_t epoch_id = 0;  // stamp of the epoch the result was computed on
  };
  using LruList = std::list<Entry>;

  struct PerEpoch {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t stale_evictions = 0;
  };

  mutable std::mutex mu;
  LruList lru;  // front = most recent
  std::unordered_map<std::string, LruList::iterator> index;
  size_t bytes = 0;
  size_t negative_entries = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t negative_hits = 0;
  uint64_t negative_insertions = 0;
  uint64_t stale_evictions = 0;
  /// Per-epoch counter split, keyed by epoch id. Epoch ids are
  /// monotonic, so bounding the map means dropping the oldest epochs.
  std::map<uint64_t, PerEpoch> by_epoch;

  PerEpoch& Epoch(uint64_t epoch_id) {
    auto it = by_epoch.try_emplace(epoch_id).first;
    // Keep the split bounded: a long-lived process flipping daily must
    // not grow stats without limit. 8 epochs is plenty for dashboards.
    while (by_epoch.size() > 8 && by_epoch.begin() != it) {
      by_epoch.erase(by_epoch.begin());
    }
    return it->second;
  }
};

QueryCache::QueryCache(QueryCacheOptions options)
    : shard_count_(RoundUpPowerOfTwo(
          options.num_shards == 0 ? 1 : options.num_shards)) {
  shards_ = std::make_unique<Shard[]>(shard_count_);
  shard_max_bytes_ = options.max_bytes / shard_count_;
  shard_max_entries_ =
      options.max_entries == 0
          ? 0
          : std::max<size_t>(1, options.max_entries / shard_count_);
}

QueryCache::~QueryCache() = default;

size_t QueryCache::num_shards() const { return shard_count_; }

std::optional<CachedValue> QueryCache::Lookup(const std::string& key,
                                              uint64_t epoch_id, bool count) {
  Shard& shard = shards_[HashKey(key) & (shard_count_ - 1)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    if (count) {
      ++shard.misses;
      ++shard.Epoch(epoch_id).misses;
    }
    return std::nullopt;
  }
  if (it->second->epoch_id != epoch_id) {
    // Stale stamp: the entry was computed on a different epoch. Evict it
    // now (this is the lazy half of flip invalidation — SwapEpoch never
    // scans the cache) and treat the lookup as a miss. The eviction is
    // counted even when `count` is false: the entry is really gone.
    ++shard.stale_evictions;
    ++shard.Epoch(it->second->epoch_id).stale_evictions;
    shard.bytes -= it->second->bytes;
    if (it->second->result == nullptr) --shard.negative_entries;
    shard.lru.erase(it->second);
    shard.index.erase(it);
    if (count) {
      ++shard.misses;
      ++shard.Epoch(epoch_id).misses;
    }
    return std::nullopt;
  }
  if (count) {
    if (it->second->result == nullptr) {
      ++shard.negative_hits;
    } else {
      ++shard.hits;
      ++shard.Epoch(epoch_id).hits;
    }
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return CachedValue{it->second->result, it->second->status};
}

void QueryCache::Insert(const std::string& key, CachedResult result,
                        uint64_t epoch_id) {
  if (result == nullptr) return;
  size_t bytes = EstimateResultBytes(*result);
  InsertEntry(key, std::move(result), Status::OK(), bytes, epoch_id);
}

void QueryCache::InsertNegative(const std::string& key, const Status& status,
                                uint64_t epoch_id) {
  if (status.ok()) return;
  // A negative entry is just its key and message; sizeof(Entry) covers
  // the list node payload.
  size_t bytes = sizeof(Shard::Entry) + key.size() + status.message().size();
  InsertEntry(key, nullptr, status, bytes, epoch_id);
}

void QueryCache::InsertEntry(const std::string& key, CachedResult result,
                             Status status, size_t bytes, uint64_t epoch_id) {
  Shard& shard = shards_[HashKey(key) & (shard_count_ - 1)];
  std::lock_guard<std::mutex> lock(shard.mu);
  // Oversized entries would immediately evict themselves (plus the whole
  // shard); refuse them instead. With a zero budget that is every entry.
  if (bytes > shard_max_bytes_) return;
  if (auto it = shard.index.find(key); it != shard.index.end()) {
    shard.bytes -= it->second->bytes;
    if (it->second->result == nullptr) --shard.negative_entries;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  const bool negative = result == nullptr;
  shard.lru.push_front(
      {key, std::move(result), std::move(status), bytes, epoch_id});
  shard.index[key] = shard.lru.begin();
  shard.bytes += bytes;
  if (negative) {
    ++shard.negative_entries;
    ++shard.negative_insertions;
  } else {
    ++shard.insertions;
  }
  while (shard.bytes > shard_max_bytes_ ||
         shard.lru.size() > shard_max_entries_) {
    const auto& tail = shard.lru.back();
    shard.bytes -= tail.bytes;
    if (tail.result == nullptr) --shard.negative_entries;
    shard.index.erase(tail.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void QueryCache::Clear() {
  for (size_t i = 0; i < shard_count_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
    shard.negative_entries = 0;
  }
}

QueryCacheStats QueryCache::Stats() const {
  QueryCacheStats stats;
  for (size_t i = 0; i < shard_count_; ++i) {
    const Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.insertions += shard.insertions;
    stats.evictions += shard.evictions;
    stats.negative_hits += shard.negative_hits;
    stats.negative_insertions += shard.negative_insertions;
    stats.stale_evictions += shard.stale_evictions;
    stats.entries += shard.lru.size();
    stats.negative_entries += shard.negative_entries;
    stats.bytes += shard.bytes;
    for (const auto& [epoch, pe] : shard.by_epoch) {
      auto it = std::find_if(
          stats.by_epoch.begin(), stats.by_epoch.end(),
          [epoch](const EpochCacheStats& e) { return e.epoch == epoch; });
      if (it == stats.by_epoch.end()) {
        stats.by_epoch.push_back({epoch, 0, 0, 0});
        it = std::prev(stats.by_epoch.end());
      }
      it->hits += pe.hits;
      it->misses += pe.misses;
      it->stale_evictions += pe.stale_evictions;
    }
  }
  std::sort(stats.by_epoch.begin(), stats.by_epoch.end(),
            [](const EpochCacheStats& a, const EpochCacheStats& b) {
              return a.epoch < b.epoch;
            });
  return stats;
}

}  // namespace rpg::serve
