#include "serve/serve_engine.h"

#include <future>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "common/logging.h"
#include "obs/prometheus.h"
#include "serve/path_json.h"

namespace rpg::serve {

ServeEngine::ServeEngine(EpochHandle epoch, ServeEngineOptions options)
    : options_(options),
      cache_(options.cache),
      // Solver queries carry their own epoch-pinned substrate handle.
      pool_(core::ResolveThreadCount(options.num_threads), options.pool,
            [solve_ms = metrics_.GetHistogram("solve_ms",
                                              LatencyBucketEdgesMs())](
                double seconds) { solve_ms->Observe(seconds * 1e3); }),
      epoch_(std::move(epoch)),
      requests_total_(metrics_.GetCounter("requests_total")),
      coalesced_hits_(metrics_.GetCounter("coalesced_hits")),
      errors_total_(metrics_.GetCounter("errors_total")),
      inflight_requests_(metrics_.GetGauge("inflight_requests")),
      epoch_id_gauge_(metrics_.GetGauge("epoch_id")),
      epoch_flips_total_(metrics_.GetCounter("epoch_flips_total")),
      epoch_last_reload_unix_seconds_(
          metrics_.GetGauge("epoch_last_reload_unix_seconds")),
      e2e_ms_(metrics_.GetHistogram("e2e_ms", LatencyBucketEdgesMs())),
      hit_ms_(metrics_.GetHistogram("cache_hit_ms", LatencyBucketEdgesMs())),
      pipeline_total_ms_(
          metrics_.GetHistogram("pipeline_total_ms", LatencyBucketEdgesMs())) {
  RPG_CHECK(epoch_ != nullptr);
  epoch_id_gauge_->Set(static_cast<int64_t>(epoch_->id()));
  for (size_t i = 0; i < obs::kNumPipelineStages; ++i) {
    stage_ms_[i] = metrics_.GetHistogram(
        std::string("stage_") + obs::StageName(obs::kPipelineStages[i]) + "_ms",
        LatencyBucketEdgesMs());
  }
}

ServeEngine::~ServeEngine() { pool_.Shutdown(); }

Result<ServeResponse> ServeEngine::Generate(const std::string& query,
                                            int num_seeds, int year_cutoff) {
  std::promise<Result<ServeResponse>> promise;
  std::future<Result<ServeResponse>> future = promise.get_future();
  GenerateAsync(query, num_seeds, year_cutoff, /*trace=*/nullptr,
                [&promise](Result<ServeResponse> response) {
                  promise.set_value(std::move(response));
                });
  return future.get();
}

void ServeEngine::GenerateAsync(const std::string& query, int num_seeds,
                                int year_cutoff,
                                std::shared_ptr<obs::TraceContext> trace,
                                GenerateCallback callback) {
  Timer e2e;
  requests_total_->Increment();
  inflight_requests_->Add(1);
  // The RCU read: acquire the serving epoch exactly once. Everything
  // below — cache stamp, flight, substrate handle, response — uses
  // this copy, so a concurrent SwapEpoch cannot split the request
  // across two generations.
  EpochHandle epoch = CurrentEpoch();
  const uint64_t eid = epoch->id();
  const std::string key = CanonicalQueryKey(query, num_seeds, year_cutoff);
  if (trace) trace->set_query_key(key);

  uint64_t lookup_start = trace ? trace->NowNs() : 0;
  std::optional<CachedValue> hit = cache_.Lookup(key, eid);
  if (trace) {
    trace->AddSpan(obs::Stage::kCacheLookup, lookup_start,
                   trace->NowNs() - lookup_start, hit ? 1 : 0);
  }
  if (hit) {
    if (hit->negative()) {
      FinishRequest(callback, e2e, eid, Result<CachedResult>(hit->status),
                    /*cache_hit=*/true, /*coalesced=*/false);
      return;
    }
    hit_ms_->Observe(e2e.ElapsedSeconds() * 1e3);
    FinishRequest(callback, e2e, eid,
                  Result<CachedResult>(std::move(hit->result)),
                  /*cache_hit=*/true, /*coalesced=*/false);
    return;
  }

  // Single-flight admission: exactly one requester per (epoch,
  // canonical key) computes; everyone else registers a waiter on its
  // flight. The waiter fires on whichever thread publishes the outcome
  // (the owner's continuation) — that thread is the tail of this
  // request's causal chain, so writing the wait span there is race-free.
  uint64_t wait_start = trace ? trace->NowNs() : 0;
  CachedValue cached;
  switch (cache_.JoinOrClaim(
      key, eid,
      [this, callback, e2e, eid, trace,
       wait_start](const Result<CachedResult>& outcome) {
        coalesced_hits_->Increment();
        if (trace) {
          trace->AddSpan(obs::Stage::kSingleFlightWait, wait_start,
                         trace->NowNs() - wait_start, outcome.ok() ? 1 : 0);
        }
        FinishRequest(callback, e2e, eid, outcome, /*cache_hit=*/false,
                      /*coalesced=*/true);
      },
      &cached)) {
    case QueryCache::Admission::kJoined:
      return;
    case QueryCache::Admission::kCached:
      // An owner published between our miss and our admission.
      FinishRequest(callback, e2e, eid,
                    cached.negative()
                        ? Result<CachedResult>(cached.status)
                        : Result<CachedResult>(std::move(cached.result)),
                    /*cache_hit=*/true, /*coalesced=*/false);
      return;
    case QueryCache::Admission::kOwner:
      break;
  }

  core::BatchQuery bq;
  bq.query = query;
  if (num_seeds > 0) bq.options.num_initial_seeds = num_seeds;
  if (year_cutoff > 0) bq.options.year_cutoff = year_cutoff;
  bq.trace = std::move(trace);
  // Pin the substrate: the solver works on THIS request's epoch no
  // matter how many flips happen while the query sits in the queue, and
  // the aliasing handle keeps the epoch alive through the solve.
  bq.repager = Epoch::RepagerHandle(epoch);
  // No thread blocks here: the continuation runs on the solver thread
  // right after this query's solve.
  pool_.SubmitAsync(
      std::move(bq),
      [this, key, eid, epoch = std::move(epoch),
       callback = std::move(callback),
       e2e](Result<core::RePagerResult> computed) {
        // Render the reply once per computed result, for the cache entry,
        // this requester and every coalesced waiter to share. The result
        // itself (path, seeds, terminals) dies with the block.
        CachedResult rendered;
        if (computed.ok()) {
          const core::RePagerResult result = std::move(computed).value();
          ObserveStages(result);
          rendered = RenderResult(result, *epoch);
        }
        const Result<CachedResult> outcome =
            rendered != nullptr ? Result<CachedResult>(std::move(rendered))
                                : Result<CachedResult>(computed.status());
        // The entry is stamped with the epoch it was computed on; the
        // waiters run here, outside the cache's lock.
        for (const QueryCache::Waiter& waiter :
             cache_.Publish(key, eid, outcome)) {
          waiter(outcome);
        }
        FinishRequest(callback, e2e, eid, outcome, /*cache_hit=*/false,
                      /*coalesced=*/false);
      });
}

void ServeEngine::ObserveStages(const core::RePagerResult& result) {
  const obs::SpanSet& stages = result.stages;
  if (stages.count == 0) return;
  for (uint32_t i = 0; i < stages.count; ++i) {
    const obs::SpanRecord& s = stages.spans[i];
    const auto idx = static_cast<size_t>(s.stage);
    if (idx < obs::kNumPipelineStages) {
      stage_ms_[idx]->Observe(static_cast<double>(s.dur_ns) / 1e6);
    }
  }
  pipeline_total_ms_->Observe(result.total_seconds * 1e3);
}

void ServeEngine::FinishRequest(const GenerateCallback& callback,
                                const Timer& e2e, uint64_t epoch_id,
                                const Result<CachedResult>& outcome,
                                bool cache_hit, bool coalesced) {
  double seconds = e2e.ElapsedSeconds();
  e2e_ms_->Observe(seconds * 1e3);
  inflight_requests_->Add(-1);
  if (!outcome.ok()) {
    errors_total_->Increment();
    callback(outcome.status());
    return;
  }
  ServeResponse response;
  response.result = outcome.value();
  response.epoch_id = epoch_id;
  response.cache_hit = cache_hit;
  response.coalesced = coalesced;
  response.e2e_seconds = seconds;
  callback(std::move(response));
}

EpochHandle ServeEngine::CurrentEpoch() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epoch_;
}

uint64_t ServeEngine::epoch_flips() const {
  return epoch_flips_total_->value();
}

void ServeEngine::SwapEpoch(EpochHandle next) {
  RPG_CHECK(next != nullptr);
  EpochHandle previous;
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    previous = std::move(epoch_);  // destroyed outside the lock
    epoch_ = std::move(next);
    epoch_flips_total_->Increment();
    epoch_id_gauge_->Set(static_cast<int64_t>(epoch_->id()));
    epoch_last_reload_unix_seconds_->Set(epoch_->info().loaded_unix_ms /
                                         1000);
  }
  RPG_LOG << "epoch flip -> id " << CurrentEpoch()->id()
          << " (in-flight requests drain on their own epoch)";
  // `previous` drops here. If this was the last reference the old
  // substrate frees now; otherwise the last in-flight solve on it frees
  // it once its continuation is done. Either way: never under epoch_mu_.
}

Result<EpochHandle> ServeEngine::ReloadFromSnapshot(const std::string& path) {
  // Held across choosing the id, the load and the swap: two overlapping
  // reloads would otherwise both publish CurrentEpoch()->id() + 1, and
  // the cache and single-flight keys would take one epoch for the other.
  std::lock_guard<std::mutex> lock(reload_mu_);
  RPG_ASSIGN_OR_RETURN(EpochHandle next,
                       LoadEpochFromSnapshot(path, CurrentEpoch()->id() + 1));
  SwapEpoch(next);
  return next;
}

size_t ServeEngine::ClearCache() { return cache_.Clear(); }

std::string ServeEngine::StatsJson() const {
  QueryCacheStats cs = cache_.Stats();
  core::SolverPoolStats bs = pool_.Stats();
  EpochHandle epoch;
  uint64_t flips = 0;
  {
    // SwapEpoch replaces the epoch and counts the flip under this lock.
    std::lock_guard<std::mutex> lock(epoch_mu_);
    epoch = epoch_;
    flips = epoch_flips_total_->value();
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("epoch").BeginObject();
  w.Key("id").UInt(epoch->id());
  w.Key("flips").UInt(flips);
  // The last flip installed the current epoch, so its load time is the
  // last reload's.
  w.Key("last_reload_unix_ms")
      .Int(flips > 0 ? epoch->info().loaded_unix_ms : 0);
  w.Key("source").String(epoch->info().source);
  w.Key("loaded_unix_ms").Int(epoch->info().loaded_unix_ms);
  w.Key("load_seconds").Double(epoch->info().load_seconds);
  w.Key("num_papers").UInt(epoch->info().num_papers);
  w.Key("num_edges").UInt(epoch->info().num_edges);
  w.EndObject();
  w.Key("cache").BeginObject();
  w.Key("enabled").Bool(options_.cache.max_bytes > 0 &&
                        options_.cache.max_entries > 0);
  w.Key("entries").UInt(cs.entries);
  w.Key("bytes").UInt(cs.bytes);
  w.Key("hits").UInt(cs.hits);
  w.Key("misses").UInt(cs.misses);
  w.Key("insertions").UInt(cs.insertions);
  w.Key("evictions").UInt(cs.evictions);
  w.Key("negative_entries").UInt(cs.negative_entries);
  w.Key("negative_hits").UInt(cs.negative_hits);
  w.Key("negative_insertions").UInt(cs.negative_insertions);
  w.Key("stale_evictions").UInt(cs.stale_evictions);
  // Hit/miss/stale split by epoch id: after a flip this shows the old
  // epoch's entries draining (stale_evictions) while the new epoch's
  // hit rate recovers — the lazy-invalidation story in one section.
  w.Key("by_epoch").BeginArray();
  for (const EpochCacheStats& e : cs.by_epoch) {
    w.BeginObject();
    w.Key("epoch").UInt(e.epoch);
    w.Key("hits").UInt(e.hits);
    w.Key("misses").UInt(e.misses);
    w.Key("stale_evictions").UInt(e.stale_evictions);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  // The solver pool's section keeps its pre-SolverPool name, "batcher":
  // perfbench reads requests, batches and rejected_overload from it.
  w.Key("batcher").BeginObject();
  w.Key("requests").UInt(bs.requests);
  w.Key("batches").UInt(bs.batches);
  w.Key("queue_depth").UInt(bs.queue_depth);
  w.Key("max_queue_depth").UInt(options_.pool.max_queue_depth);
  w.Key("rejected_overload").UInt(bs.rejected_overload);
  w.Key("ewma_item_seconds").Double(bs.ewma_item_seconds);
  w.Key("threads").UInt(pool_.num_solvers());
  w.EndObject();
  // attributed_fraction = stage-span time / pipeline wall time over
  // computed (non-cached) results: how much of the solve the spans
  // account for (gated >= 0.9 by the bench suite). The summaries it is
  // derived from are under metrics.histograms.
  double stage_sum_ms = 0.0;
  for (const MetricHistogram* stage : stage_ms_) {
    stage_sum_ms += stage->Snapshot().sum();
  }
  const double pipeline_ms = pipeline_total_ms_->Snapshot().sum();
  w.Key("stages").BeginObject();
  w.Key("attributed_fraction")
      .Double(pipeline_ms > 0 ? stage_sum_ms / pipeline_ms : 0.0);
  w.EndObject();
  w.Key("metrics").Raw(metrics_.ToJson());
  w.EndObject();
  return w.str();
}

std::string ServeEngine::MetricsText() const {
  const QueryCacheStats cs = cache_.Stats();
  const core::SolverPoolStats bs = pool_.Stats();
  std::string out = metrics_.ToPrometheus("rpg");
  obs::AppendCounter("rpg_cache_hits", cs.hits, &out);
  obs::AppendCounter("rpg_cache_misses", cs.misses, &out);
  obs::AppendCounter("rpg_negative_hits", cs.negative_hits, &out);
  obs::AppendCounter("rpg_shed_total", bs.rejected_overload, &out);
  return out;
}

}  // namespace rpg::serve
