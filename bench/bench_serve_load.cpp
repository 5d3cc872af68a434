// Closed-loop load generator for the serving layer (docs/serving.md):
// N client threads hammer a live epoll HttpServer + serve::ServeEngine
// over persistent (keep-alive) connections with a Zipfian query mix —
// the repeat-heavy shape of real survey traffic, where popular topics
// dominate — and record per-request latencies split by cache hit/miss
// (the response carries "cache_hit"). The client count is swept
// (default 4/16/64 keep-alive connections) to show the reactor holding
// throughput as connections grow past the old thread-per-connection
// sweet spot; the query cache is cleared between sweep points so every
// point sees the same cold-miss + warm-hit mix. Writes one row per
// sweep point to BENCH_serve.json; the headline number is the median-
// latency win of the cache path (hit p50 vs miss p50).
//
// After the sweep, an abuse scenario (RPG_SERVE_LORIS > 0) proves the
// connection lifecycle: slow-loris connections are held against a
// capped server (extra connects shed with 503), the loris are reaped by
// the idle deadline, and a fresh loris pack is held WHILE the
// closed-loop clients run — well-behaved traffic must finish with 0
// errors and a hit-path p50 comparable to the unmolested baseline.
// A final overload burst against a deliberately tiny batcher queue
// counts the 429 (Retry-After) sheds. All of it lands in the "abuse"
// section of BENCH_serve.json.
//
// Scale knobs (env):
//   RPG_SERVE_CLIENT_SWEEP comma-separated client counts ("4,16,64")
//   RPG_SERVE_CLIENTS      single client count (overrides the sweep)
//   RPG_SERVE_REQUESTS     requests per client         (default 40)
//   RPG_SERVE_QUERIES      distinct queries in the mix (default 12)
//   RPG_SERVE_ZIPF_S       Zipf exponent               (default 1.1)
//   RPG_SERVE_THREADS      solver threads              (default hardware)
//   RPG_SERVE_POLLERS      epoll reactor threads       (default 2)
//   RPG_SERVE_LORIS        slow-loris connections held (default 32; 0 skips)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "eval/evaluator.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "serve/serve_engine.h"
#include "ui/http_client.h"
#include "ui/http_server.h"
#include "ui/repager_service.h"

namespace {

using namespace rpg;

size_t EnvSize(const char* name, size_t fallback) {
  if (const char* v = std::getenv(name)) {
    return static_cast<size_t>(std::strtoull(v, nullptr, 10));
  }
  return fallback;
}

double EnvDouble(const char* name, double fallback) {
  if (const char* v = std::getenv(name)) return std::strtod(v, nullptr);
  return fallback;
}

/// The connection-count sweep: RPG_SERVE_CLIENTS pins a single point,
/// otherwise RPG_SERVE_CLIENT_SWEEP (default "4,16,64") is parsed as a
/// comma-separated list.
std::vector<size_t> ClientSweep() {
  if (const char* v = std::getenv("RPG_SERVE_CLIENTS")) {
    return {static_cast<size_t>(std::strtoull(v, nullptr, 10))};
  }
  const char* sweep = std::getenv("RPG_SERVE_CLIENT_SWEEP");
  std::vector<size_t> counts;
  for (const std::string& part : Split(sweep ? sweep : "4,16,64", ',')) {
    size_t n = static_cast<size_t>(std::strtoull(part.c_str(), nullptr, 10));
    if (n > 0) counts.push_back(n);
  }
  if (counts.empty()) counts = {4};
  return counts;
}

struct Percentiles {
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, max = 0.0;
  size_t count = 0;
};

Percentiles ComputePercentiles(std::vector<double> samples_ms) {
  Percentiles p;
  p.count = samples_ms.size();
  if (samples_ms.empty()) return p;
  std::sort(samples_ms.begin(), samples_ms.end());
  auto at = [&](double q) {
    size_t i = static_cast<size_t>(q * static_cast<double>(samples_ms.size()));
    return samples_ms[std::min(i, samples_ms.size() - 1)];
  };
  p.p50 = at(0.50);
  p.p90 = at(0.90);
  p.p99 = at(0.99);
  p.max = samples_ms.back();
  return p;
}

void WritePercentiles(JsonWriter& w, const Percentiles& p) {
  w.BeginObject();
  w.Key("count").UInt(p.count);
  w.Key("p50_ms").Double(p.p50);
  w.Key("p90_ms").Double(p.p90);
  w.Key("p99_ms").Double(p.p99);
  w.Key("max_ms").Double(p.max);
  w.EndObject();
}

struct ClientResult {
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  size_t errors = 0;
};

/// One sweep point's aggregated outcome.
struct SweepPoint {
  size_t clients = 0;
  double wall_seconds = 0.0;
  double throughput = 0.0;
  size_t errors = 0;
  Percentiles overall, hits, misses;
  double cache_speedup = 0.0;
  size_t peak_open_connections = 0;
};

/// The abuse scenario's outcome (see file header).
struct AbuseResult {
  bool ran = false;
  size_t loris = 0;              ///< slow-loris connections held
  size_t shed_probes = 0;        ///< extra connects fired at the full cap
  size_t shed_503 = 0;           ///< ...that got the inline 503
  uint64_t idle_closes = 0;      ///< loris reaped by the idle deadline
  uint64_t connections_shed = 0; ///< server-side shed counter
  SweepPoint well_behaved;       ///< closed-loop clients run under abuse
  double hit_p50_ratio = 0.0;    ///< abuse hit p50 / baseline hit p50
  size_t overload_requests = 0;
  size_t overload_200 = 0;
  size_t overload_429 = 0;
  bool retry_after_seen = false;
  size_t deadline_requests = 0;  ///< requests sent into a wedged handler
  size_t deadline_503 = 0;       ///< ...answered 503 by the handler reap
  uint64_t deadline_closes = 0;  ///< server-side reap counter
  size_t fast_during_wedge = 0;  ///< healthy 200s served while wedged
  size_t failures = 0;  ///< scenario invariants that did not hold
};

/// Blocking loopback connect; -1 on failure.
int RawConnect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Polls `predicate` every 10 ms for up to `seconds`.
bool PollFor(double seconds, const std::function<bool()>& predicate) {
  const int rounds = static_cast<int>(seconds * 100.0);
  for (int i = 0; i < rounds; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return predicate();
}

/// Opens `count` slow-loris connections against `port`, each parking a
/// partial request line forever. Returns the held fds.
std::vector<int> HoldLoris(int port, size_t count) {
  std::vector<int> fds;
  for (size_t i = 0; i < count; ++i) {
    int fd = RawConnect(port);
    if (fd < 0) continue;
    const char drip[] = "GET /loris HTTP/1.1\r\nX-Drip: a";
    [[maybe_unused]] ssize_t n = ::write(fd, drip, sizeof(drip) - 1);
    fds.push_back(fd);
  }
  return fds;
}

}  // namespace

int main() {
  bench::BenchConfig config = bench::LoadBenchConfig();
  auto wb = bench::BuildWorkbenchOrDie(config);

  const std::vector<size_t> sweep = ClientSweep();
  const size_t requests_per_client = EnvSize("RPG_SERVE_REQUESTS", 40);
  const size_t num_queries = EnvSize("RPG_SERVE_QUERIES", 12);
  const double zipf_s = EnvDouble("RPG_SERVE_ZIPF_S", 1.1);
  const long engine_threads =
      static_cast<long>(EnvSize("RPG_SERVE_THREADS", 0));
  const int pollers = static_cast<int>(EnvSize("RPG_SERVE_POLLERS", 2));
  const size_t loris = EnvSize("RPG_SERVE_LORIS", 32);

  // The serving stack under test: one engine + epoll reactor server
  // persists across the sweep; the cache is cleared between points.
  // `wb` outlives every engine below, so the epoch needs no owner.
  const serve::EpochHandle epoch =
      serve::Epoch::Create(&wb->repager(), &wb->titles(), &wb->years(),
                           nullptr, {.id = 1, .source = "in-process"});
  serve::ServeEngineOptions serve_options;
  serve_options.num_threads = static_cast<int>(engine_threads);
  serve::ServeEngine engine(epoch, serve_options);
  ui::RePagerService service(&engine);
  ui::HttpServerOptions http_options;
  http_options.num_pollers = pollers;
  ui::HttpServer server(
      [&](const ui::HttpRequest& request, ui::HttpServer::Done done) {
        service.HandleAsync(request, std::move(done));
      },
      http_options);
  service.AttachServer(&server);
  auto port_or = server.Start(0);
  if (!port_or.ok()) {
    std::fprintf(stderr, "server: %s\n", port_or.status().ToString().c_str());
    return 1;
  }
  const int port = port_or.value();

  // Zipf-ranked query targets: rank 1 = hottest topic.
  std::vector<size_t> sample = eval::Evaluator::SampleEntries(
      wb->bank(), std::max(num_queries, size_t{1}), config.sample_seed);
  if (sample.size() < 2) {
    std::fprintf(stderr, "not enough SurveyBank queries\n");
    return 1;
  }
  std::vector<std::string> targets;
  for (size_t idx : sample) {
    const auto& entry = wb->bank().Get(idx);
    std::string q;
    for (char c : entry.query) q += (c == ' ') ? '+' : c;
    targets.push_back("/api/path?q=" + q +
                      "&year=" + std::to_string(entry.year));
  }

  std::printf("serve load: client sweep {");
  for (size_t i = 0; i < sweep.size(); ++i) {
    std::printf("%s%zu", i ? "," : "", sweep[i]);
  }
  std::printf("} x %zu requests, %zu queries, Zipf(s=%.2f), "
              "%zu engine threads, %d pollers, keep-alive HTTP\n",
              requests_per_client, targets.size(), zipf_s,
              engine.num_threads(), pollers);

  // Closed loop: every client thread owns one keep-alive connection and
  // fires its next request as soon as the previous one completes. Reused
  // verbatim by the abuse scenario against its own capped server.
  auto run_closed_loop = [&](ui::HttpServer& srv, int srv_port,
                             size_t num_clients) -> SweepPoint {
    std::vector<ClientResult> results(num_clients);
    std::atomic<size_t> peak_open{0};
    Timer wall;
    std::vector<std::thread> clients;
    for (size_t c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        ClientResult& out = results[c];
        Rng rng(0x5eedULL + c);
        ui::HttpClient client;
        if (!client.Connect(srv_port).ok()) {
          out.errors = requests_per_client;
          return;
        }
        for (size_t i = 0; i < requests_per_client; ++i) {
          size_t rank = rng.Zipf(targets.size(), zipf_s);  // 1-based
          const std::string& target = targets[rank - 1];
          Timer t;
          auto r = client.Fetch("GET", target);
          double ms = t.ElapsedMillis();
          if (!r.ok() || r->status != 200) {
            ++out.errors;
            continue;
          }
          bool hit =
              r->body.find("\"cache_hit\":true") != std::string::npos;
          (hit ? out.hit_ms : out.miss_ms).push_back(ms);
        }
        size_t open = srv.Stats().open_connections;
        size_t prev = peak_open.load();
        while (open > prev && !peak_open.compare_exchange_weak(prev, open)) {
        }
      });
    }
    for (auto& t : clients) t.join();

    SweepPoint point;
    point.clients = num_clients;
    point.wall_seconds = wall.ElapsedSeconds();
    point.peak_open_connections = peak_open.load();
    std::vector<double> all_ms, hit_ms, miss_ms;
    for (const ClientResult& r : results) {
      hit_ms.insert(hit_ms.end(), r.hit_ms.begin(), r.hit_ms.end());
      miss_ms.insert(miss_ms.end(), r.miss_ms.begin(), r.miss_ms.end());
      point.errors += r.errors;
    }
    all_ms = hit_ms;
    all_ms.insert(all_ms.end(), miss_ms.begin(), miss_ms.end());
    point.overall = ComputePercentiles(all_ms);
    point.hits = ComputePercentiles(hit_ms);
    point.misses = ComputePercentiles(miss_ms);
    point.throughput = point.wall_seconds > 0
                           ? static_cast<double>(all_ms.size()) /
                                 point.wall_seconds
                           : 0.0;
    point.cache_speedup = (point.hits.count > 0 && point.hits.p50 > 0)
                              ? point.misses.p50 / point.hits.p50
                              : 0.0;
    return point;
  };

  std::vector<SweepPoint> points;
  size_t total_errors = 0;
  for (size_t num_clients : sweep) {
    // Same cold-miss + warm-hit mix at every point.
    engine.ClearCache();
    SweepPoint point = run_closed_loop(server, port, num_clients);
    total_errors += point.errors;
    points.push_back(point);
  }

  // ------------------------------------------------- abuse scenario
  AbuseResult abuse;
  if (loris > 0) {
    abuse.ran = true;
    abuse.loris = loris;
    std::printf("abuse scenario: %zu slow-loris connections, cap %zu, "
                "idle timeout 1200 ms\n", loris, loris);
    // A dedicated server with abuse-tuned limits, same engine/service:
    // the cap equals the loris pack so the extra probes shed
    // deterministically, and the idle deadline is short enough to watch
    // the reaping happen.
    ui::HttpServerOptions abuse_http;
    abuse_http.num_pollers = pollers;
    abuse_http.max_connections = loris;
    abuse_http.idle_timeout = std::chrono::milliseconds(1200);
    ui::HttpServer abuse_server(
        [&](const ui::HttpRequest& request, ui::HttpServer::Done done) {
          service.HandleAsync(request, std::move(done));
        },
        abuse_http);
    service.AttachServer(&abuse_server);
    auto abuse_port_or = abuse_server.Start(0);
    if (!abuse_port_or.ok()) {
      std::fprintf(stderr, "abuse server: %s\n",
                   abuse_port_or.status().ToString().c_str());
      return 1;
    }
    const int abuse_port = abuse_port_or.value();

    // Phase A — cap shed: fill the cap with held loris, then probe past
    // it; every probe must get the inline 503 instead of an fd.
    std::vector<int> pack = HoldLoris(abuse_port, loris);
    if (!PollFor(5.0, [&] {
          return abuse_server.Stats().open_connections >= loris;
        })) {
      ++abuse.failures;
    }
    abuse.shed_probes = 8;
    for (size_t i = 0; i < abuse.shed_probes; ++i) {
      int fd = RawConnect(abuse_port);
      if (fd < 0) continue;
      std::string response;
      char buf[512];
      ssize_t n;
      while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
        response.append(buf, static_cast<size_t>(n));
      }
      ::close(fd);
      if (response.find("503") != std::string::npos) ++abuse.shed_503;
    }
    if (abuse.shed_503 != abuse.shed_probes) ++abuse.failures;

    // Phase B — idle reaping: the pack must be swept by the deadline,
    // freeing every fd without a single byte more from the clients.
    if (!PollFor(5.0, [&] {
          return abuse_server.Stats().open_connections == 0 &&
                 abuse_server.Stats().idle_closes >= loris;
        })) {
      ++abuse.failures;
    }
    for (int fd : pack) ::close(fd);

    // Phase C — well-behaved traffic under abuse: re-hold half a pack
    // (leaving cap headroom for the clients) and run the closed loop
    // against the same Zipf mix. It must finish with 0 errors while the
    // loris sit on their fds.
    std::vector<int> second_pack = HoldLoris(abuse_port, loris / 2);
    PollFor(5.0, [&] {
      return abuse_server.Stats().open_connections >= loris / 2;
    });
    engine.ClearCache();
    // The cap still equals `loris` (phase A needed that), so only
    // loris - loris/2 slots are free: clamp the client count to the
    // headroom or large RPG_SERVE_CLIENTS / tiny RPG_SERVE_LORIS
    // combinations would shed their own well-behaved traffic.
    const size_t headroom = loris - loris / 2;
    const size_t abuse_clients =
        std::max<size_t>(1, std::min(sweep.front(), headroom));
    abuse.well_behaved =
        run_closed_loop(abuse_server, abuse_port, abuse_clients);
    if (abuse.well_behaved.errors > 0) ++abuse.failures;
    if (!points.empty() && points.front().hits.p50 > 0 &&
        abuse.well_behaved.hits.p50 > 0) {
      abuse.hit_p50_ratio =
          abuse.well_behaved.hits.p50 / points.front().hits.p50;
    }
    PollFor(5.0, [&] { return abuse_server.Stats().open_connections == 0; });
    for (int fd : second_pack) ::close(fd);
    abuse.idle_closes = abuse_server.Stats().idle_closes;
    abuse.connections_shed = abuse_server.Stats().connections_shed;
    abuse_server.Stop();
    service.AttachServer(&server);

    // Phase D — batcher overload: a burst of distinct cold queries
    // against a deliberately tiny queue (depth 2, one solver) must
    // split into 200s and 429-with-Retry-After sheds, nothing else.
    serve::ServeEngineOptions tiny;
    tiny.num_threads = 1;
      tiny.batcher.max_queue_depth = 2;
    serve::ServeEngine tiny_engine(epoch, tiny);
    ui::RePagerService tiny_service(&tiny_engine);
    ui::HttpServer tiny_server(
        [&](const ui::HttpRequest& request, ui::HttpServer::Done done) {
          tiny_service.HandleAsync(request, std::move(done));
        });
    auto tiny_port_or = tiny_server.Start(0);
    if (tiny_port_or.ok()) {
      abuse.overload_requests = 12;
      const auto& entry = wb->bank().Get(sample.front());
      std::string q;
      for (char c : entry.query) q += (c == ' ') ? '+' : c;
      std::atomic<size_t> ok200{0}, shed429{0}, retry_after{0};
      std::vector<std::thread> burst;
      for (size_t i = 0; i < abuse.overload_requests; ++i) {
        burst.emplace_back([&, i] {
          ui::HttpClient client;
          if (!client.Connect(tiny_port_or.value()).ok()) return;
          // Distinct seeds => distinct canonical keys => real computes.
          auto r = client.Fetch(
              "GET", "/api/path?q=" + q + "&seeds=" + std::to_string(10 + i) +
                         "&year=" + std::to_string(entry.year));
          if (!r.ok()) return;
          if (r->status == 200) ++ok200;
          if (r->status == 429) {
            ++shed429;
            if (r->headers.count("retry-after")) ++retry_after;
          }
        });
      }
      for (auto& t : burst) t.join();
      abuse.overload_200 = ok200.load();
      abuse.overload_429 = shed429.load();
      abuse.retry_after_seen = retry_after.load() == shed429.load();
      if (abuse.overload_200 + abuse.overload_429 != abuse.overload_requests ||
          abuse.overload_429 == 0 || !abuse.retry_after_seen) {
        ++abuse.failures;
      }
      tiny_server.Stop();
    } else {
      ++abuse.failures;
    }

    // Phase E — handler deadline: a route whose "solve" is deliberately
    // slower than handler_timeout. Every wedged request must be reaped
    // with 503 + close at the deadline while fast traffic on other
    // connections keeps flowing; the handler's late completions (long
    // after the reap) must be safe no-ops.
    ui::HttpServerOptions deadline_http;
    deadline_http.num_pollers = pollers;
    deadline_http.handler_timeout = std::chrono::milliseconds(150);
    ui::HttpServer deadline_server(
        [&](const ui::HttpRequest& request, ui::HttpServer::Done done) {
          if (request.path == "/slow") {
            std::thread([done = std::move(done)]() mutable {
              std::this_thread::sleep_for(std::chrono::milliseconds(600));
              done(ui::HttpResponse{200, "text/plain", "finally"});
            }).detach();
            return;
          }
          done(ui::HttpResponse{200, "text/plain", "fast"});
        },
        deadline_http);
    auto deadline_port_or = deadline_server.Start(0);
    if (deadline_port_or.ok()) {
      const int deadline_port = deadline_port_or.value();
      abuse.deadline_requests = 6;
      std::atomic<size_t> got_503{0};
      std::vector<std::thread> wedged;
      for (size_t i = 0; i < abuse.deadline_requests; ++i) {
        wedged.emplace_back([&] {
          int fd = RawConnect(deadline_port);
          if (fd < 0) return;
          const char request[] = "GET /slow HTTP/1.1\r\nHost: x\r\n\r\n";
          if (::write(fd, request, sizeof(request) - 1) > 0) {
            std::string response;
            char buf[512];
            ssize_t n;
            while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
              response.append(buf, static_cast<size_t>(n));
            }
            if (response.find("503") != std::string::npos &&
                response.find("Connection: close") != std::string::npos) {
              ++got_503;
            }
          }
          ::close(fd);
        });
      }
      // While the wedged pack waits out its deadline, healthy requests
      // on fresh connections must be served immediately.
      for (int i = 0; i < 8; ++i) {
        ui::HttpClient fast;
        if (!fast.Connect(deadline_port).ok()) continue;
        auto r = fast.Fetch("GET", "/fast");
        if (r.ok() && r->status == 200) ++abuse.fast_during_wedge;
      }
      for (auto& t : wedged) t.join();
      abuse.deadline_503 = got_503.load();
      abuse.deadline_closes = deadline_server.Stats().deadline_closes;
      if (abuse.deadline_503 != abuse.deadline_requests ||
          abuse.deadline_closes < abuse.deadline_requests ||
          abuse.fast_during_wedge == 0) {
        ++abuse.failures;
      }
      // Let the parked handlers fire their late completions against
      // reaped connections before the server dies: must be a no-op.
      std::this_thread::sleep_for(std::chrono::milliseconds(700));
      deadline_server.Stop();
    } else {
      ++abuse.failures;
    }
  }

  // ---------------------------------------------------------- report
  TablePrinter table({"clients", "req/s", "all p50 ms", "hit p50 ms",
                      "miss p50 ms", "p99 ms", "errors"});
  for (const SweepPoint& p : points) {
    table.AddRow({std::to_string(p.clients), FormatDouble(p.throughput, 1),
                  FormatDouble(p.overall.p50, 3),
                  FormatDouble(p.hits.p50, 3), FormatDouble(p.misses.p50, 3),
                  FormatDouble(p.overall.p99, 3), std::to_string(p.errors)});
  }
  table.Print(std::cout);
  const SweepPoint& head = points.front();
  if (head.cache_speedup > 0) {
    std::printf("cache path median speedup at %zu clients: %.1fx "
                "(miss p50 %.2fms / hit p50 %.3fms)\n",
                head.clients, head.cache_speedup, head.misses.p50,
                head.hits.p50);
  }
  if (abuse.ran) {
    std::printf(
        "abuse: %zu loris held, %zu/%zu probes shed 503, %llu reaped "
        "(idle), well-behaved %zu reqs %zu errors (hit p50 %.3fms, "
        "%.2fx baseline), overload burst %zu -> %zu ok / %zu shed 429%s"
        ", wedged %zu/%zu reaped 503 at deadline (%zu fast 200s during)"
        " [%zu invariant failures]\n",
        abuse.loris, abuse.shed_503, abuse.shed_probes,
        static_cast<unsigned long long>(abuse.idle_closes),
        abuse.well_behaved.overall.count, abuse.well_behaved.errors,
        abuse.well_behaved.hits.p50, abuse.hit_p50_ratio,
        abuse.overload_requests, abuse.overload_200, abuse.overload_429,
        abuse.retry_after_seen ? " (Retry-After on every 429)" : "",
        abuse.deadline_503, abuse.deadline_requests, abuse.fast_during_wedge,
        abuse.failures);
  }

  // Server-side view for cross-checking the client-side split.
  serve::QueryCacheStats cache_stats = engine.cache().Stats();
  ui::HttpServerStats http_stats = server.Stats();

  JsonWriter json;
  json.BeginObject();
  json.Key("config").BeginObject();
  json.Key("client_sweep").BeginArray();
  for (size_t n : sweep) json.UInt(n);
  json.EndArray();
  json.Key("requests_per_client").UInt(requests_per_client);
  json.Key("distinct_queries").UInt(targets.size());
  json.Key("zipf_s").Double(zipf_s);
  json.Key("engine_threads").UInt(engine.num_threads());
  json.Key("pollers").UInt(static_cast<size_t>(pollers));
  json.EndObject();
  json.Key("errors").UInt(total_errors);
  json.Key("sweep").BeginArray();
  for (const SweepPoint& p : points) {
    json.BeginObject();
    json.Key("clients").UInt(p.clients);
    json.Key("wall_seconds").Double(p.wall_seconds);
    json.Key("throughput_rps").Double(p.throughput);
    json.Key("errors").UInt(p.errors);
    json.Key("peak_open_connections").UInt(p.peak_open_connections);
    json.Key("overall");
    WritePercentiles(json, p.overall);
    json.Key("cache_hit");
    WritePercentiles(json, p.hits);
    json.Key("cache_miss");
    WritePercentiles(json, p.misses);
    json.Key("cache_median_speedup").Double(p.cache_speedup);
    json.EndObject();
  }
  json.EndArray();
  if (abuse.ran) {
    json.Key("abuse").BeginObject();
    json.Key("loris_connections").UInt(abuse.loris);
    json.Key("shed_probes").UInt(abuse.shed_probes);
    json.Key("shed_503_responses").UInt(abuse.shed_503);
    json.Key("idle_closes").UInt(abuse.idle_closes);
    json.Key("connections_shed").UInt(abuse.connections_shed);
    json.Key("well_behaved").BeginObject();
    json.Key("clients").UInt(abuse.well_behaved.clients);
    json.Key("errors").UInt(abuse.well_behaved.errors);
    json.Key("throughput_rps").Double(abuse.well_behaved.throughput);
    json.Key("overall");
    WritePercentiles(json, abuse.well_behaved.overall);
    json.Key("cache_hit");
    WritePercentiles(json, abuse.well_behaved.hits);
    json.Key("cache_miss");
    WritePercentiles(json, abuse.well_behaved.misses);
    json.EndObject();
    json.Key("hit_p50_ratio_vs_baseline").Double(abuse.hit_p50_ratio);
    json.Key("overload_requests").UInt(abuse.overload_requests);
    json.Key("overload_200").UInt(abuse.overload_200);
    json.Key("overload_429").UInt(abuse.overload_429);
    json.Key("retry_after_on_429").Bool(abuse.retry_after_seen);
    json.Key("deadline_requests").UInt(abuse.deadline_requests);
    json.Key("deadline_503").UInt(abuse.deadline_503);
    json.Key("deadline_closes").UInt(abuse.deadline_closes);
    json.Key("fast_200_during_wedge").UInt(abuse.fast_during_wedge);
    json.Key("invariant_failures").UInt(abuse.failures);
    json.EndObject();
  }
  json.Key("server").BeginObject();
  json.Key("cache_hits").UInt(cache_stats.hits);
  json.Key("cache_misses").UInt(cache_stats.misses);
  json.Key("cache_entries").UInt(cache_stats.entries);
  json.Key("cache_bytes").UInt(cache_stats.bytes);
  json.Key("connections_accepted").UInt(http_stats.connections_accepted);
  json.Key("requests_handled").UInt(http_stats.requests_handled);
  json.Key("open_connections").UInt(http_stats.open_connections);
  json.Key("stats_json").Raw(engine.StatsJson());
  json.EndObject();
  json.EndObject();

  server.Stop();

  std::ofstream out("BENCH_serve.json");
  out << json.str() << "\n";
  out.close();
  std::printf("wrote BENCH_serve.json\n");

  if (total_errors > 0 || abuse.failures > 0) return 1;
  wb.reset();
  return 0;
}
