#include "ui/repager_service.h"

#include <cstdint>
#include <future>
#include <string_view>

#include "common/json_writer.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/prometheus.h"
#include "serve/epoch.h"
#include "serve/path_json.h"

namespace rpg::ui {

/// Strict bounded parse for numeric query parameters: ASCII digits
/// only (no sign, whitespace, or trailing garbage), value within
/// [min, max]. The old atoi turned "abc" into 0 (silently falling back
/// to defaults) and accepted negatives and absurd magnitudes.
bool ParseBoundedInt(const std::string& s, int min, int max, int* out) {
  if (s.empty() || s.size() > 9) return false;
  int value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  if (value < min || value > max) return false;
  *out = value;
  return true;
}

int HttpStatusFor(const Status& status) {
  if (status.IsInvalidArgument()) return 400;
  if (status.IsNotFound() || status.IsIoError()) return 404;
  if (status.IsUnavailable()) return 429;
  return 500;
}

namespace {

/// Parameter bounds for /api/path. Seeds beyond 1000 would dwarf the
/// corpus; years outside [1000, 2100] cannot match any paper (years are
/// uint16 publication years).
constexpr int kMinSeeds = 1, kMaxSeeds = 1000;
constexpr int kMinYear = 1000, kMaxYear = 2100;

/// The reactor's counters, named once for both stats surfaces: key
/// `<name>` of /api/stats' "http" section and series `rpg_http_<name>`
/// of /metrics. The connection levels are gauges, the rest counters.
struct HttpStatField {
  const char* name;
  uint64_t HttpServerStats::*value;
  bool gauge;
};

constexpr HttpStatField kHttpStatFields[] = {
    {"open_connections", &HttpServerStats::open_connections, true},
    {"max_connections", &HttpServerStats::max_connections, true},
    {"connections_accepted", &HttpServerStats::connections_accepted, false},
    {"requests_handled", &HttpServerStats::requests_handled, false},
    {"responses_sent", &HttpServerStats::responses_sent, false},
    {"protocol_errors", &HttpServerStats::protocol_errors, false},
    {"connections_shed", &HttpServerStats::connections_shed, false},
    {"idle_closes", &HttpServerStats::idle_closes, false},
    {"timeout_closes", &HttpServerStats::timeout_closes, false},
    {"deadline_closes", &HttpServerStats::deadline_closes, false},
};

HttpResponse BadParameter(const std::string& name, const std::string& value) {
  JsonWriter w;
  w.BeginObject();
  w.Key("error").String("invalid " + name + " parameter: \"" + value + "\"");
  w.EndObject();
  return {400, "application/json", w.str()};
}

}  // namespace

RePagerService::RePagerService(serve::ServeEngine* engine)
    : engine_(engine) {
  RPG_CHECK(engine_ != nullptr);
}

Result<std::string> RePagerService::PathJson(const std::string& query,
                                             int num_seeds,
                                             int year_cutoff) const {
  RPG_ASSIGN_OR_RETURN(serve::ServeResponse response,
                       engine_->Generate(query, num_seeds, year_cutoff));
  return serve::RenderPathJson(query, response, /*debug=*/false,
                               /*trace=*/nullptr);
}

HttpResponse RePagerService::ErrorResponse(const Status& status) {
  JsonWriter w;
  w.BeginObject();
  w.Key("error").String(status.ToString());
  w.EndObject();
  HttpResponse response{HttpStatusFor(status), "application/json", w.str()};
  // Overload shed (solver queue full) is the retryable case: the 429
  // carries the solver pool's measured drain time as the Retry-After
  // hint (1 when the status carries none).
  if (response.status == 429) {
    int retry_after = status.retry_after_seconds();
    response.headers["Retry-After"] =
        std::to_string(retry_after > 0 ? retry_after : 1);
  }
  return response;
}

HttpResponse RePagerService::HandleReload(const HttpRequest& request) const {
  const std::string path(Trim(request.body));
  if (path.empty()) {
    return {400, "application/json",
            "{\"error\":\"reload body must be a snapshot path\"}"};
  }
  auto epoch_or = engine_->ReloadFromSnapshot(path);
  if (!epoch_or.ok()) {
    // Fail-closed: nothing was swapped; the serving epoch is untouched.
    // Corrupt sections surface as InvalidArgument naming the layer
    // (snapshot format validation ladder) -> 400; a missing/unreadable
    // file -> 404; anything else is a server-side 500.
    const Status& status = epoch_or.status();
    JsonWriter w;
    w.BeginObject();
    w.Key("reloaded").Bool(false);
    w.Key("error").String(status.ToString());
    w.EndObject();
    return {HttpStatusFor(status), "application/json", w.str()};
  }
  serve::EpochHandle epoch = std::move(epoch_or).value();
  JsonWriter w;
  w.BeginObject();
  w.Key("reloaded").Bool(true);
  w.Key("epoch").UInt(epoch->id());
  w.Key("source").String(epoch->info().source);
  w.Key("num_papers").UInt(epoch->info().num_papers);
  w.Key("num_edges").UInt(epoch->info().num_edges);
  w.Key("load_seconds").Double(epoch->info().load_seconds);
  w.EndObject();
  return {200, "application/json", w.str()};
}

std::string RePagerService::StatsJson() const {
  std::string engine_json = engine_->StatsJson();
  if (server_ == nullptr) return engine_json;
  const HttpServerStats http = server_->Stats();
  JsonWriter w;
  w.BeginObject();
  w.Key("http").BeginObject();
  for (const HttpStatField& field : kHttpStatFields) {
    w.Key(field.name).UInt(http.*field.value);
  }
  w.EndObject();
  // The engine's own {"epoch":...,"metrics":...} members follow.
  w.RawMembers(
      std::string_view(engine_json).substr(1, engine_json.size() - 2));
  w.EndObject();
  return w.Release();
}

std::string RePagerService::MetricsText() const {
  std::string out = engine_->MetricsText();
  if (server_ == nullptr) return out;
  const HttpServerStats http = server_->Stats();
  for (const HttpStatField& field : kHttpStatFields) {
    const std::string name = std::string("rpg_http_") + field.name;
    if (field.gauge) {
      obs::AppendGauge(name, static_cast<double>(http.*field.value), &out);
    } else {
      obs::AppendCounter(name, http.*field.value, &out);
    }
  }
  return out;
}

void RePagerService::HandleAsync(const HttpRequest& request,
                                 HttpServer::Done done) const {
  if (request.method == "POST") {
    if (request.path == "/api/cache/clear") {
      size_t dropped = engine_->ClearCache();
      JsonWriter w;
      w.BeginObject();
      w.Key("cleared").Bool(true);
      w.Key("entries_dropped").UInt(dropped);
      w.EndObject();
      done({200, "application/json", w.str()});
      return;
    }
    if (request.path == "/api/admin/reload") {
      done(HandleReload(request));
      return;
    }
    done({request.path == "/api/path" || request.path == "/" ? 405 : 404,
          "text/plain",
          "POST only supported on /api/cache/clear and /api/admin/reload"});
    return;
  }
  if (request.method != "GET") {
    done({405, "text/plain", "only GET and POST are supported"});
    return;
  }
  if (request.path == "/" || request.path == "/index.html") {
    done({200, "text/html; charset=utf-8", RePagerIndexHtml()});
    return;
  }
  if (request.path == "/api/stats") {
    done({200, "application/json", StatsJson()});
    return;
  }
  if (request.path == "/metrics") {
    done({200, "text/plain; version=0.0.4; charset=utf-8", MetricsText()});
    return;
  }
  if (request.path == "/api/path") {
    auto q = request.query.find("q");
    if (q == request.query.end() || q->second.empty()) {
      done({400, "application/json",
            "{\"error\":\"missing query parameter q\"}"});
      return;
    }
    // Absent parameters mean pipeline defaults (0); present ones must
    // parse strictly and land in range, or the request is a 400 before
    // any engine state is touched.
    int num_seeds = 0, year = 0;
    if (auto it = request.query.find("seeds"); it != request.query.end()) {
      if (!ParseBoundedInt(it->second, kMinSeeds, kMaxSeeds, &num_seeds)) {
        done(BadParameter("seeds", it->second));
        return;
      }
    }
    if (auto it = request.query.find("year"); it != request.query.end()) {
      if (!ParseBoundedInt(it->second, kMinYear, kMaxYear, &year)) {
        done(BadParameter("year", it->second));
        return;
      }
    }
    bool debug = false;
    if (auto it = request.query.find("debug"); it != request.query.end()) {
      debug = it->second == "1" || it->second == "true";
    }
    // The compute handoff: cache hits complete inline (microseconds);
    // misses complete from the solver thread. Either way
    // the calling poller thread returns to its event loop immediately.
    // The continuation deliberately does NOT capture `this`: a compute
    // finishing after server.Stop() may outlive the service object, so
    // it may only touch the response, which carries its rendered reply,
    // and the post-Stop-safe `done`. The trace shared_ptr rides along; by
    // completion time every serving-layer span is in it.
    engine_->GenerateAsync(
        q->second, num_seeds, year, request.trace,
        [query = q->second, debug, trace = request.trace,
         done = std::move(done)](Result<serve::ServeResponse> response) {
          if (!response.ok()) {
            done(ErrorResponse(response.status()));
            return;
          }
          done({200, "application/json",
                serve::RenderPathJson(query, response.value(), debug,
                                      trace.get())});
        });
    return;
  }
  done({404, "text/plain", "not found"});
}

HttpResponse RePagerService::Handle(const HttpRequest& request) const {
  // Every route except a cold /api/path completes inline; a cold
  // /api/path blocks here on the compute, which is exactly what the
  // synchronous callers (tests, self-checks) want.
  std::promise<HttpResponse> promise;
  std::future<HttpResponse> future = promise.get_future();
  HandleAsync(request, [&promise](HttpResponse response) {
    promise.set_value(std::move(response));
  });
  return future.get();
}

const char* RePagerIndexHtml() {
  return R"HTML(<!doctype html>
<html><head><meta charset="utf-8"><title>RePaGer - Reading Path Generation</title>
<style>
 body { font-family: sans-serif; margin: 2em; max-width: 70em; }
 #q { width: 30em; padding: .4em; }
 .nav li.seed { color: #444; }
 .nav li.added { color: #1a7f37; font-weight: bold; }
 #meta { color: #666; margin: .6em 0; }
</style></head>
<body>
<h1>RePaGer</h1>
<p>Enter a research topic to generate a reading path (papers marked in
green were surfaced by citation analysis, not by keyword search).</p>
<input id="q" placeholder="e.g. pretrained language model">
<button onclick="go()">Generate</button>
<div id="meta"></div>
<ol id="list" class="nav"></ol>
<script>
async function go() {
  const q = document.getElementById('q').value;
  if (!q) return;
  const r = await fetch('/api/path?q=' + encodeURIComponent(q));
  const data = await r.json();
  const meta = document.getElementById('meta');
  const list = document.getElementById('list');
  list.innerHTML = '';
  if (data.error) { meta.textContent = data.error; return; }
  meta.textContent = data.nodes.length + ' papers, sub-graph ' +
      data.subgraph_nodes + ' nodes / ' + data.subgraph_edges +
      ' edges, ' + data.seconds.toFixed(2) + 's' +
      (data.cache_hit ? ' (cached)' : '');
  const byId = {};
  data.nodes.forEach(n => byId[n.id] = n);
  data.reading_order.forEach(id => {
    const n = byId[id];
    const li = document.createElement('li');
    li.className = n.from_engine ? 'seed' : 'added';
    li.textContent = n.title + ' (' + n.year + ')';
    list.appendChild(li);
  });
}
</script>
</body></html>
)HTML";
}

}  // namespace rpg::ui
