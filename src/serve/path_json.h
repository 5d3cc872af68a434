#ifndef RPG_SERVE_PATH_JSON_H_
#define RPG_SERVE_PATH_JSON_H_

/// \file
/// The whole /api/path response body format, in one place. A reply is
///
///   {"query":..,"subgraph_nodes":..,"subgraph_edges":..,"seconds":..,
///    "serve_seconds":..,"cache_hit":..,
///    "nodes":[..],"edges":[..],"reading_order":[..]
///    [,"debug":{..}]}
///
/// The path part ("nodes" through "reading_order": the §V node panel,
/// read-first edges and navigation order) is a pure function of the
/// result and the epoch that computed it. RenderResult renders it once,
/// on the solver thread, into a RenderedResult that keeps beside it only
/// the result fields a reply reads, so the cache entry, the miss
/// requester and every coalesced waiter share one copy. RenderPathJson
/// then builds each reply by writing the six per-request head fields,
/// appending those stored bytes, and appending the optional debug
/// object: a cache hit is a byte splice, not a re-render.

#include <string>

#include "core/repager.h"
#include "obs/trace.h"
#include "serve/epoch.h"
#include "serve/query_cache.h"
#include "serve/serve_engine.h"

namespace rpg::serve {

/// The reply's view of a computed result: its counts, compute time,
/// stage spans and Steiner counters, and its path fragment rendered from
/// `epoch` (titles, years and importances of the epoch it was computed
/// on).
CachedResult RenderResult(const core::RePagerResult& result,
                          const Epoch& epoch);

/// The full /api/path body for one served response. `query` is the raw
/// request text, echoed as-is. `debug` appends the "debug" object (the
/// result's stage breakdown and Steiner counters, plus the request's
/// spans when `trace` is non-null).
std::string RenderPathJson(const std::string& query,
                           const ServeResponse& response, bool debug,
                           const obs::TraceContext* trace);

}  // namespace rpg::serve

#endif  // RPG_SERVE_PATH_JSON_H_
