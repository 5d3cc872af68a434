// RePaGer web UI (§V) behind the production serving layer: builds the
// substrates into a serving Epoch, wires a serve::ServeEngine (query
// cache with single-flight -> solver threads; see docs/serving.md),
// and serves the single-page interface plus the JSON API. The engine
// serves from a swappable epoch: POST /api/admin/reload
// (or --watch-snapshot) flips to a new snapshot with zero downtime —
// in-flight requests finish on the old epoch.
//
// Usage: serve_ui [port] [--threads=N] [--cache-mb=M] [--pollers=P]
//                 [--max-conns=C] [--idle-timeout-ms=T]
//                 [--queue-depth=D] [--snapshot=FILE] [--watch-snapshot]
//                 [--watch-snapshot-ms=I]
//   --snapshot=FILE      boot from an mmap'd snapshot (snapshot_build)
//                        instead of generating the corpus — the serving
//                        substrate loads in milliseconds instead of the
//                        multi-second rebuild
//   --watch-snapshot     poll the snapshot file's mtime and hot-reload
//                        it into a new serving epoch when it changes
//                        (requires --snapshot)
//   --watch-snapshot-ms=I  poll interval in milliseconds (default 2000)
//   --threads=N          solver threads (default: hardware)
//   --cache-mb=M         query-cache budget in MiB (0 disables the cache)
//   --pollers=P          epoll reactor threads (default 2)
//   --max-conns=C        connection cap; 503-shed past it (0 = unlimited)
//   --idle-timeout-ms=T  idle/slow-loris reap deadline (0 disables)
//   --queue-depth=D      solver queue bound; 429-shed past it (0 = off)
//
// By default the server performs a cold + cached self-request pair as a
// smoke test and exits; set RPG_SERVE_FOREVER=1 to keep serving until
// interrupted.

#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "common/timer.h"
#include "eval/workbench.h"
#include "serve/epoch.h"
#include "serve/serve_engine.h"
#include "snapshot/serving_state.h"
#include "ui/http_server.h"
#include "ui/repager_service.h"

namespace {

/// Parses "--name=value" into `out`; returns true when `arg` matched.
bool ParseIntFlag(const char* arg, const char* name, long* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = std::strtol(arg + len + 1, nullptr, 10);
  return true;
}

bool ParseStringFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

/// The snapshot file's mtime in nanoseconds, or 0 when unreadable.
int64_t FileMtimeNs(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
         st.st_mtim.tv_nsec;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rpg;
  int port = 0;
  long threads = 0, cache_mb = 64, pollers = 2;
  long max_conns = 1024, idle_timeout_ms = 60'000, queue_depth = 256;
  long watch_ms = 2000;
  bool watch_snapshot = false;
  std::string snapshot_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--watch-snapshot") == 0) {
      watch_snapshot = true;
      continue;
    }
    if (ParseIntFlag(argv[i], "--threads", &threads) ||
        ParseIntFlag(argv[i], "--cache-mb", &cache_mb) ||
        ParseIntFlag(argv[i], "--pollers", &pollers) ||
        ParseIntFlag(argv[i], "--max-conns", &max_conns) ||
        ParseIntFlag(argv[i], "--idle-timeout-ms", &idle_timeout_ms) ||
        ParseIntFlag(argv[i], "--queue-depth", &queue_depth) ||
        ParseIntFlag(argv[i], "--watch-snapshot-ms", &watch_ms) ||
        ParseStringFlag(argv[i], "--snapshot", &snapshot_path)) {
      continue;
    }
    port = std::atoi(argv[i]);
  }
  if (watch_snapshot && snapshot_path.empty()) {
    std::fprintf(stderr, "--watch-snapshot requires --snapshot=FILE\n");
    return 1;
  }

  // The serving substrate comes from exactly one of two places — a
  // snapshot file that mmaps in milliseconds, or a multi-second
  // from-scratch build (Workbench) — and either way it is wrapped in a
  // serving Epoch: one owning handle the engine can later swap out for
  // a newer generation without restarting.
  serve::EpochHandle epoch;
  std::string self_test_query;
  int self_test_year = 0;
  if (!snapshot_path.empty()) {
    Timer load;
    auto state_or = snapshot::ServingState::Load(snapshot_path);
    if (!state_or.ok()) {
      std::fprintf(stderr, "snapshot: %s\n",
                   state_or.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<snapshot::ServingState> state = std::move(state_or).value();
    // Self-test query: the title of the most-cited paper — deterministic
    // and guaranteed to hit the index (no SurveyBank in a snapshot).
    graph::PaperId best = 0;
    for (graph::PaperId p = 1; p < state->graph().num_nodes(); ++p) {
      if (state->graph().InDegree(p) > state->graph().InDegree(best)) best = p;
    }
    self_test_query = state->titles()[best];
    self_test_year = INT32_MAX;
    epoch = serve::Epoch::FromSnapshot(std::move(state), /*id=*/1,
                                       snapshot_path, load.ElapsedSeconds());
    std::printf("booted epoch %llu: %llu papers / %llu edges from %s "
                "(%.1f ms load)\n",
                static_cast<unsigned long long>(epoch->id()),
                static_cast<unsigned long long>(epoch->info().num_papers),
                static_cast<unsigned long long>(epoch->info().num_edges),
                snapshot_path.c_str(), epoch->info().load_seconds * 1e3);
  } else {
    auto wb_or = eval::Workbench::Create();
    if (!wb_or.ok()) {
      std::fprintf(stderr, "workbench: %s\n",
                   wb_or.status().ToString().c_str());
      return 1;
    }
    std::shared_ptr<eval::Workbench> wb = std::move(wb_or).value();
    const auto& entry = wb->bank().Get(wb->bank().HighScoreSubset(1).front());
    self_test_query = entry.query;
    self_test_year = entry.year;
    serve::Epoch::Info info;
    info.id = 1;
    info.source = "in-process";
    info.num_papers = wb->titles().size();
    epoch = serve::Epoch::Create(&wb->repager(), &wb->titles(), &wb->years(),
                                 wb, info);
  }

  serve::ServeEngineOptions serve_options;
  serve_options.num_threads = static_cast<int>(threads);
  serve_options.cache.max_bytes = static_cast<size_t>(cache_mb) << 20;
  serve_options.pool.max_queue_depth = static_cast<size_t>(queue_depth);
  serve::ServeEngine engine(epoch, serve_options);

  ui::RePagerService service(&engine);
  ui::HttpServerOptions http_options;
  http_options.num_pollers = static_cast<int>(pollers);
  http_options.max_connections = static_cast<size_t>(max_conns);
  http_options.idle_timeout = std::chrono::milliseconds(idle_timeout_ms);
  // Async handler: poller threads hand /api/path compute to the engine
  // and return to their event loop (docs/serving.md "Threading model").
  ui::HttpServer server(
      [&](const ui::HttpRequest& request, ui::HttpServer::Done done) {
        service.HandleAsync(request, std::move(done));
      },
      http_options);
  service.AttachServer(&server);
  auto port_or = server.Start(port);
  if (!port_or.ok()) {
    std::fprintf(stderr, "server: %s\n", port_or.status().ToString().c_str());
    return 1;
  }

  // Snapshot watcher: poll the file's mtime; on change, load + verify
  // the new bytes into the next epoch and flip. A corrupt or half-
  // written candidate is rejected (fail-closed) and its mtime
  // remembered so the loop doesn't spin on the same bad file.
  std::atomic<bool> stop_watch{false};
  std::thread watcher;
  if (watch_snapshot) {
    watcher = std::thread([&] {
      int64_t serving_mtime = FileMtimeNs(snapshot_path);
      int64_t rejected_mtime = 0;
      while (!stop_watch.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            watch_ms > 0 ? watch_ms : 2000));
        int64_t mtime = FileMtimeNs(snapshot_path);
        if (mtime == 0 || mtime == serving_mtime || mtime == rejected_mtime) {
          continue;
        }
        auto epoch_or = engine.ReloadFromSnapshot(snapshot_path);
        if (!epoch_or.ok()) {
          std::fprintf(stderr, "watch-snapshot: reload rejected: %s\n",
                       epoch_or.status().ToString().c_str());
          rejected_mtime = mtime;
          continue;
        }
        serving_mtime = mtime;
        rejected_mtime = 0;
        std::printf("watch-snapshot: flipped to epoch %llu\n",
                    static_cast<unsigned long long>(epoch_or.value()->id()));
      }
    });
  }

  std::printf("RePaGer UI listening on http://127.0.0.1:%d/  "
              "(threads=%zu cache-mb=%ld pollers=%ld "
              "max-conns=%ld idle-timeout-ms=%ld queue-depth=%ld "
              "epoch=%llu%s)\n",
              port_or.value(), engine.num_threads(), cache_mb, pollers,
              max_conns, idle_timeout_ms, queue_depth,
              static_cast<unsigned long long>(engine.CurrentEpoch()->id()),
              watch_snapshot ? " watch-snapshot" : "");
  std::printf("try:  curl 'http://127.0.0.1:%d/api/path?q=%s'\n",
              port_or.value(), "citation+analysis");
  std::printf("      curl 'http://127.0.0.1:%d/api/stats'\n", port_or.value());
  std::printf("      curl -X POST 'http://127.0.0.1:%d/api/cache/clear'\n",
              port_or.value());
  std::printf("      curl -X POST -d /path/to/new.snap "
              "'http://127.0.0.1:%d/api/admin/reload'\n",
              port_or.value());

  if (std::getenv("RPG_SERVE_FOREVER") != nullptr) {
    std::printf("serving until interrupted (RPG_SERVE_FOREVER set)\n");
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(60));
  }

  // Smoke test: one cold request, then the same query again — the second
  // must come back from the cache, and its path bytes (everything from
  // "nodes": on) must equal the cold reply's: a hit splices the bytes the
  // miss rendered.
  int exit_code = 0;
  std::string cold_path;
  for (int round = 0; round < 2; ++round) {
    auto json_or = service.PathJson(self_test_query, 30, self_test_year);
    if (!json_or.ok()) {
      std::fprintf(stderr, "self-test failed: %s\n",
                   json_or.status().ToString().c_str());
      exit_code = 1;
      break;
    }
    bool cached =
        json_or.value().find("\"cache_hit\":true") != std::string::npos;
    std::printf("self-test %s: /api/path?q=\"%s\" -> %zu bytes of JSON%s\n",
                round == 0 ? "cold" : "warm", self_test_query.c_str(),
                json_or.value().size(), cached ? " (cache hit)" : "");
    if ((round == 1) != cached && cache_mb > 0) {
      std::fprintf(stderr, "self-test cache behaviour unexpected\n");
      exit_code = 1;
      break;
    }
    const size_t nodes_at = json_or.value().find("\"nodes\":");
    if (nodes_at == std::string::npos) {
      std::fprintf(stderr, "self-test reply has no \"nodes\" field\n");
      exit_code = 1;
      break;
    }
    std::string path = json_or.value().substr(nodes_at);
    if (round == 0) {
      cold_path = std::move(path);
    } else if (path != cold_path) {
      std::fprintf(stderr,
                   "self-test warm reply differs from the cold reply from "
                   "\"nodes\": on\n");
      exit_code = 1;
      break;
    }
  }
  stop_watch.store(true, std::memory_order_relaxed);
  if (watcher.joinable()) watcher.join();
  server.Stop();
  if (exit_code == 0) std::printf("server stopped cleanly\n");
  return exit_code;
}
