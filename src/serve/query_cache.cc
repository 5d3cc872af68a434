#include "serve/query_cache.h"

#include "common/string_util.h"
#include "core/repager.h"

namespace rpg::serve {

namespace {

/// Deterministic pipeline failures (no hits for the query, bad
/// arguments) are cacheable: the immutable corpus guarantees the same
/// query fails the same way tomorrow. Transient statuses (shed,
/// shutdown, internal) must retry.
bool IsCacheableError(const Status& status) {
  return status.IsNotFound() || status.IsInvalidArgument();
}

/// The in-flight table's key: a computation belongs to one epoch.
std::string FlightKey(const std::string& key, uint64_t epoch_id) {
  return std::to_string(epoch_id) + '\x1f' + key;
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

QueryCache::QueryCache(QueryCacheOptions options)
    : max_bytes_(options.max_bytes), max_entries_(options.max_entries) {}

EpochCacheStats& QueryCache::Epoch(uint64_t epoch_id) {
  auto it = by_epoch_.try_emplace(epoch_id, EpochCacheStats{epoch_id}).first;
  // Keep the split bounded: a long-lived process flipping daily must
  // not grow stats without limit. 8 epochs is plenty for dashboards.
  while (by_epoch_.size() > 8 && by_epoch_.begin() != it) {
    by_epoch_.erase(by_epoch_.begin());
  }
  return it->second;
}

QueryCache::LruList::iterator QueryCache::FindCurrent(const std::string& key,
                                                      uint64_t epoch_id) {
  auto it = index_.find(key);
  if (it == index_.end()) return lru_.end();
  LruList::iterator entry = it->second;
  if (entry->epoch_id != epoch_id) {
    // Stale stamp: the entry was computed on a different epoch. Evict it
    // now (this is the lazy half of flip invalidation — SwapEpoch never
    // scans the cache).
    ++stats_.stale_evictions;
    ++Epoch(entry->epoch_id).stale_evictions;
    Erase(entry);
    return lru_.end();
  }
  lru_.splice(lru_.begin(), lru_, entry);
  return entry;
}

std::optional<CachedValue> QueryCache::Lookup(const std::string& key,
                                              uint64_t epoch_id) {
  std::lock_guard<std::mutex> lock(mu_);
  LruList::iterator entry = FindCurrent(key, epoch_id);
  if (entry == lru_.end()) {
    ++stats_.misses;
    ++Epoch(epoch_id).misses;
    return std::nullopt;
  }
  if (entry->result == nullptr) {
    ++stats_.negative_hits;
  } else {
    ++stats_.hits;
    ++Epoch(epoch_id).hits;
  }
  return CachedValue{entry->result, entry->status};
}

QueryCache::Admission QueryCache::JoinOrClaim(const std::string& key,
                                              uint64_t epoch_id, Waiter waiter,
                                              CachedValue* value) {
  std::lock_guard<std::mutex> lock(mu_);
  // An owner may have published between the caller's miss and now.
  if (LruList::iterator entry = FindCurrent(key, epoch_id);
      entry != lru_.end()) {
    *value = CachedValue{entry->result, entry->status};
    return Admission::kCached;
  }
  auto [flight, claimed] = flights_.try_emplace(FlightKey(key, epoch_id));
  if (claimed) return Admission::kOwner;
  flight->second.push_back(std::move(waiter));
  return Admission::kJoined;
}

std::vector<QueryCache::Waiter> QueryCache::Publish(
    const std::string& key, uint64_t epoch_id,
    const Result<CachedResult>& outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  // Storing and retiring under one lock: a request admitted after this
  // sees the entry, one admitted before it is among the waiters. If a
  // flip landed during the computation, the stamp is already stale and
  // the first post-flip lookup evicts it.
  if (outcome.ok()) {
    if (outcome.value() != nullptr) {
      Insert(key, outcome.value(), Status::OK(), epoch_id);
    }
  } else if (IsCacheableError(outcome.status())) {
    Insert(key, nullptr, outcome.status(), epoch_id);
  }
  std::vector<Waiter> waiters;
  if (auto flight = flights_.find(FlightKey(key, epoch_id));
      flight != flights_.end()) {
    waiters = std::move(flight->second);
    flights_.erase(flight);
  }
  return waiters;
}

void QueryCache::Insert(const std::string& key, CachedResult result,
                        Status status, uint64_t epoch_id) {
  // One charge for every entry: its list node and key, plus the reply
  // (struct and fragment) or the error message.
  const size_t bytes =
      sizeof(Entry) + key.size() +
      (result ? sizeof(RenderedResult) + result->path_json.capacity()
              : status.message().size());
  // Oversized entries would immediately evict themselves (plus the whole
  // cache); refuse them instead. With a zero budget that is every entry.
  if (bytes > max_bytes_) return;
  if (auto it = index_.find(key); it != index_.end()) Erase(it->second);
  const bool negative = result == nullptr;
  lru_.push_front({key, std::move(result), std::move(status), bytes, epoch_id});
  index_[key] = lru_.begin();
  stats_.bytes += bytes;
  if (negative) {
    ++stats_.negative_entries;
    ++stats_.negative_insertions;
  } else {
    ++stats_.insertions;
  }
  while (stats_.bytes > max_bytes_ || lru_.size() > max_entries_) {
    Erase(std::prev(lru_.end()));
    ++stats_.evictions;
  }
}

void QueryCache::Erase(LruList::iterator entry) {
  stats_.bytes -= entry->bytes;
  if (entry->result == nullptr) --stats_.negative_entries;
  index_.erase(entry->key);
  lru_.erase(entry);
}

size_t QueryCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t dropped = lru_.size();
  lru_.clear();
  index_.clear();
  stats_.bytes = 0;
  stats_.negative_entries = 0;
  return dropped;
}

QueryCacheStats QueryCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  QueryCacheStats stats = stats_;
  stats.entries = lru_.size();
  for (const auto& [epoch, counts] : by_epoch_) {
    stats.by_epoch.push_back(counts);
  }
  return stats;
}

}  // namespace rpg::serve
