#ifndef RPG_UI_REPAGER_SERVICE_H_
#define RPG_UI_REPAGER_SERVICE_H_

#include <string>

#include "common/status.h"
#include "serve/serve_engine.h"
#include "ui/http_server.h"

namespace rpg::ui {

/// Strict bounded parse for numeric query parameters: ASCII digits only
/// (no sign, whitespace, or trailing garbage) and the value must land in
/// [min, max]. Exposed for unit tests and the fuzz harnesses.
bool ParseBoundedInt(const std::string& s, int min, int max, int* out);

/// The HTTP status for a failed request: InvalidArgument -> 400,
/// NotFound and IoError -> 404, Unavailable (overload shed) -> 429, and
/// every other code, a server-side failure, -> 500. Shared by /api/path
/// and /api/admin/reload; exposed for unit tests.
int HttpStatusFor(const Status& status);

/// The RePaGer web application backend (§V). A thin route layer: every
/// query is served by serve::ServeEngine (result cache ->
/// single-flight -> solver threads; see docs/serving.md), so repeated
/// queries come back from the cache in microseconds and concurrent
/// misses are solved in parallel. Routes:
///
///   GET  /                      the single-page UI (embedded HTML)
///   GET  /api/path?q=<query>[&seeds=N][&year=Y][&debug=1]
///                               reading path as JSON: nodes (title, year,
///                               importance), reading-order edges, the
///                               flattened navigation-bar order, the
///                               seed/expanded marking used by the panel's
///                               node-weight legend, and cache_hit.
///                               debug=1 appends a "debug" object with the
///                               per-stage latency breakdown, Steiner work
///                               counters, and the raw request-trace spans
///                               (docs/observability.md)
///   GET  /api/stats             live serving metrics (http reactor
///                               gauges, cache hit/miss incl. negative
///                               entries, solver-pool queue, latency
///                               percentiles, per-stage attribution) as
///                               JSON
///   GET  /metrics               the same instruments in Prometheus text
///                               exposition format (version 0.0.4), for
///                               scraping (includes rpg_epoch_id,
///                               rpg_epoch_flips_total,
///                               rpg_epoch_last_reload_unix_seconds)
///   POST /api/cache/clear       drops the query cache; returns the
///                               number of entries dropped
///   POST /api/admin/reload      body: a snapshot path. Loads + fully
///                               checksums the snapshot, then flips the
///                               serving epoch
///                               (ServeEngine::ReloadFromSnapshot;
///                               concurrent reloads queue). Fail-closed:
///                               any load/verify error returns 400/404
///                               naming the offending layer and leaves
///                               the serving epoch untouched. In-flight
///                               requests finish on the old epoch.
///
/// HandleAsync is the reactor entry point: cheap routes complete inline
/// on the poller thread; /api/path hands compute to
/// ServeEngine::GenerateAsync and completes from the solver thread, so
/// poller threads never block on a solve. Handle is the
/// blocking wrapper kept for tests and the serve_ui self-test.
class RePagerService {
 public:
  /// Replies splice the path bytes the engine rendered from the
  /// computing epoch's substrate (serve/path_json.h), so the service
  /// needs nothing beyond the engine and reloads require no re-wiring
  /// here. The engine must outlive the service.
  explicit RePagerService(serve::ServeEngine* engine);

  /// Optional: lets /api/stats report the HTTP reactor's own gauges
  /// (open connections, accepted, protocol errors). The server must
  /// outlive the service's last Handle call. Typically called right
  /// after constructing the HttpServer whose handler is this service.
  void AttachServer(const HttpServer* server) { server_ = server; }

  /// The asynchronous HttpServer handler: `done` is invoked exactly
  /// once, inline for cheap routes, later (from the compute side) for
  /// /api/path misses.
  void HandleAsync(const HttpRequest& request, HttpServer::Done done) const;

  /// Blocking wrapper over HandleAsync (tests, self-checks).
  HttpResponse Handle(const HttpRequest& request) const;

  /// Serves /api/path for a query (exposed for tests).
  Result<std::string> PathJson(const std::string& query, int num_seeds,
                               int year_cutoff) const;

 private:
  /// Maps a pipeline error to the /api/path error response.
  static HttpResponse ErrorResponse(const Status& status);

  /// POST /api/admin/reload: body is a snapshot path.
  /// ServeEngine::ReloadFromSnapshot loads and checksums it, then swaps;
  /// concurrent reloads queue on its mutex and get distinct ids. Runs
  /// inline on the calling (poller) thread, so every connection on that
  /// poller waits for the whole load and checksum pass (and for any
  /// reload queued ahead of it). Other pollers keep serving. A reload
  /// is a rare operator action, so that stall is accepted rather than
  /// giving admin requests a completion path of their own.
  HttpResponse HandleReload(const HttpRequest& request) const;

  /// The /api/stats document: engine stats + the reactor's http section.
  std::string StatsJson() const;

  /// The GET /metrics body: ServeEngine::MetricsText (prefix "rpg_")
  /// plus the reactor's counters/gauges (prefix "rpg_http_") when a
  /// server is attached.
  std::string MetricsText() const;

  serve::ServeEngine* engine_;
  const HttpServer* server_ = nullptr;
};

/// The embedded single-page UI: input panel, navigation bar, and an SVG
/// rendering of the generated reading path (panels a-e of Fig. 7).
const char* RePagerIndexHtml();

}  // namespace rpg::ui

#endif  // RPG_UI_REPAGER_SERVICE_H_
