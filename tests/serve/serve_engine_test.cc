#include "serve/serve_engine.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <future>
#include <memory>
#include <regex>
#include <thread>
#include <vector>

#include "serve/path_json.h"
#include "serve_test_util.h"
#include "ui/http_client.h"
#include "ui/http_server.h"
#include "ui/repager_service.h"

namespace rpg::serve {
namespace {

/// Byte identity of two replies: the whole path fragment plus the
/// subgraph counts of the head.
void ExpectIdentical(const RenderedResult& served,
                     const RenderedResult& serial) {
  EXPECT_EQ(served.path_json, serial.path_json);
  EXPECT_EQ(served.subgraph_nodes, serial.subgraph_nodes);
  EXPECT_EQ(served.subgraph_edges, serial.subgraph_edges);
}

/// The reply of a serial RePaGer::Generate run on `epoch`.
RenderedResult SerialReference(const Epoch& epoch, const std::string& query,
                               int num_seeds, int year_cutoff) {
  core::RePagerOptions options;
  if (num_seeds > 0) options.num_initial_seeds = num_seeds;
  if (year_cutoff > 0) options.year_cutoff = year_cutoff;
  auto r = epoch.repager().Generate(query, options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *RenderResult(*r, epoch) : RenderedResult();
}

TEST(ServeEngineTest, MissThenHitIdenticalToSerial) {
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(TestEpoch(SharedWorkbench()), options);
  const auto& entry = SharedWorkbench().bank().Get(0);

  auto first = engine.Generate(entry.query, 0, entry.year);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);
  auto second = engine.Generate(entry.query, 0, entry.year);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->result.get(), first->result.get());  // shared entry

  ExpectIdentical(*first->result, SerialReference(*engine.CurrentEpoch(),
                                                  entry.query, 0, entry.year));

  QueryCacheStats stats = engine.cache().Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ServeEngineTest, CanonicalKeyUnifiesEquivalentQueries) {
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(TestEpoch(SharedWorkbench()), options);
  const auto& entry = SharedWorkbench().bank().Get(0);

  std::string shouted = entry.query;
  for (char& c : shouted) c = static_cast<char>(std::toupper(c));
  auto first = engine.Generate(entry.query, 0, entry.year);
  ASSERT_TRUE(first.ok());
  auto second = engine.Generate("  " + shouted + "  ", 0, entry.year);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  // The normalization is sound: recomputing the shouted variant serially
  // yields the same result the cache returned.
  ExpectIdentical(*second->result, SerialReference(*engine.CurrentEpoch(),
                                                   shouted, 0, entry.year));
}

TEST(ServeEngineTest, ErrorsPropagateAndAreNegativelyCached) {
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(TestEpoch(SharedWorkbench()), options);
  auto r = engine.Generate("zzzz qqqq wwww", 0, 0);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(engine.metrics().ToJson().find("\"errors_total\":0"),
            std::string::npos);  // errors_total incremented
  // The deterministic failure is remembered as a negative entry...
  QueryCacheStats stats = engine.cache().Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.negative_entries, 1u);
  EXPECT_EQ(stats.negative_insertions, 1u);
  // ...and an equivalent query (same canonical key) is answered from it
  // with the same status, without touching the pipeline again.
  auto again = engine.Generate("  ZZZZ qqqq   wwww ", 0, 0);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status(), r.status());
  EXPECT_EQ(engine.cache().Stats().negative_hits, 1u);
  std::string json = engine.StatsJson();
  EXPECT_NE(json.find("\"requests\":1"), std::string::npos)  // batcher
      << json;
  EXPECT_NE(json.find("\"negative_hits\":1"), std::string::npos);
}

TEST(ServeEngineTest, GenerateAsyncDeliversIdenticalResult) {
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(TestEpoch(SharedWorkbench()), options);
  const auto& entry = SharedWorkbench().bank().Get(2);

  std::promise<Result<ServeResponse>> cold_promise;
  auto cold_future = cold_promise.get_future();
  engine.GenerateAsync(entry.query, 0, entry.year, nullptr,
                       [&](Result<ServeResponse> r) {
                         cold_promise.set_value(std::move(r));
                       });
  Result<ServeResponse> cold = cold_future.get();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->cache_hit);
  ExpectIdentical(*cold->result, SerialReference(*engine.CurrentEpoch(),
                                                 entry.query, 0, entry.year));

  // Warm call completes inline (cache hit) before GenerateAsync returns.
  bool hit_inline = false;
  engine.GenerateAsync(entry.query, 0, entry.year, nullptr,
                       [&](Result<ServeResponse> r) {
                         hit_inline = r.ok() && r->cache_hit;
                       });
  EXPECT_TRUE(hit_inline);
}

TEST(ServeEngineTest, DisabledCacheAlwaysComputes) {
  ServeEngineOptions options;
  options.num_threads = 2;
  options.cache.max_bytes = 0;
  ServeEngine engine(TestEpoch(SharedWorkbench()), options);
  const auto& entry = SharedWorkbench().bank().Get(0);
  auto first = engine.Generate(entry.query, 0, entry.year);
  auto second = engine.Generate(entry.query, 0, entry.year);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->cache_hit);
  EXPECT_EQ(engine.cache().Stats().entries, 0u);
  EXPECT_NE(engine.StatsJson().find("\"enabled\":false"), std::string::npos);
  ExpectIdentical(*second->result, *first->result);
}

TEST(ServeEngineTest, ZeroEntryBudgetCachesNothingReportsDisabled) {
  // An entry budget of 0 caches nothing either, so /api/stats must not
  // call the cache enabled.
  ServeEngineOptions options;
  options.num_threads = 2;
  options.cache.max_entries = 0;
  ServeEngine engine(TestEpoch(SharedWorkbench()), options);
  const auto& entry = SharedWorkbench().bank().Get(0);
  auto first = engine.Generate(entry.query, 0, entry.year);
  auto second = engine.Generate(entry.query, 0, entry.year);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->cache_hit);
  EXPECT_EQ(engine.cache().Stats().entries, 0u);
  EXPECT_NE(engine.StatsJson().find("\"enabled\":false"), std::string::npos);
  ExpectIdentical(*second->result, *first->result);
}

TEST(ServeEngineTest, ConcurrentIdenticalRequestsComputeOnce) {
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(TestEpoch(SharedWorkbench()), options);
  const auto& entry = SharedWorkbench().bank().Get(1);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto r = engine.Generate(entry.query, 0, entry.year);
      if (!r.ok()) ++failures;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Single-flight: at most one computation ran (insertions == 1); the
  // other requests were cache hits or coalesced onto the flight.
  QueryCacheStats stats = engine.cache().Stats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(engine.ClearCache(), 1u);
}

TEST(ServeEngineTest, StatsJsonIsLive) {
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(TestEpoch(SharedWorkbench()), options);
  const auto& entry = SharedWorkbench().bank().Get(0);
  engine.Generate(entry.query, 0, entry.year);
  engine.Generate(entry.query, 0, entry.year);
  std::string json = engine.StatsJson();
  EXPECT_NE(json.find("\"requests_total\":2"), std::string::npos);
  EXPECT_NE(json.find("\"hits\":1"), std::string::npos);
  EXPECT_NE(json.find("\"batches\":1"), std::string::npos);
  EXPECT_NE(json.find("\"e2e_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"solve_ms\":"), std::string::npos);
}

TEST(ServeEngineTest, OverloadShedsWith429AndRetryAfter) {
  const eval::Workbench& wb = SharedWorkbench();
  // A deliberately tiny admission queue: one solve at a time, one
  // waiter; the rest of a burst must shed.
  ServeEngineOptions options;
  options.num_threads = 1;
  options.pool.max_queue_depth = 1;
  ServeEngine engine(TestEpoch(wb), options);
  ui::RePagerService service(&engine);
  const auto& entry = wb.bank().Get(0);

  // Distinct `seeds` values make distinct canonical keys, so nothing
  // coalesces or caches: every request really reaches the solver pool.
  constexpr int kBurst = 8;
  std::mutex mu;
  std::vector<ui::HttpResponse> responses;
  for (int i = 0; i < kBurst; ++i) {
    ui::HttpRequest request{"GET",
                            "/api/path",
                            {{"q", entry.query},
                             {"seeds", std::to_string(5 + i)},
                             {"year", std::to_string(entry.year)}}};
    service.HandleAsync(request, [&](ui::HttpResponse response) {
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(std::move(response));
    });
  }
  for (int i = 0; i < 1000; ++i) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (responses.size() == kBurst) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  int ok = 0, shed = 0;
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(responses.size(), static_cast<size_t>(kBurst));
  for (const ui::HttpResponse& response : responses) {
    if (response.status == 200) {
      ++ok;
      continue;
    }
    // The shed path end to end: typed Unavailable -> 429 + Retry-After.
    // The hint is the solver pool's measured drain time, clamped to [1, 30];
    // with a single-entry queue on a fast corpus it resolves to 1, but
    // the contract is the clamp, not the constant.
    EXPECT_EQ(response.status, 429) << response.body;
    EXPECT_NE(response.body.find("Unavailable"), std::string::npos);
    ASSERT_TRUE(response.headers.count("Retry-After"));
    const int retry_after = std::stoi(response.headers.at("Retry-After"));
    EXPECT_GE(retry_after, 1);
    EXPECT_LE(retry_after, 30);
    ++shed;
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1);
  // Sheds are transient: never remembered as negative cache entries
  // (the same query must be retryable), but counted in the stats.
  EXPECT_EQ(engine.cache().Stats().negative_entries, 0u);
  std::string json = engine.StatsJson();
  EXPECT_NE(json.find("\"rejected_overload\":" + std::to_string(shed)),
            std::string::npos)
      << json;
  // /metrics renders its shed count from the same pool counter.
  const std::string metrics = engine.MetricsText();
  EXPECT_NE(metrics.find("\nrpg_shed_total " + std::to_string(shed) + "\n"),
            std::string::npos)
      << metrics;
}

TEST(ServeEngineTest, ShedQuerySucceedsOnRetry) {
  const eval::Workbench& wb = SharedWorkbench();
  ServeEngineOptions options;
  options.num_threads = 1;
  options.pool.max_queue_depth = 1;
  ServeEngine engine(TestEpoch(wb), options);
  const auto& entry = wb.bank().Get(1);
  // Overload the queue, remembering which seed counts were shed.
  constexpr int kBurst = 6;
  std::mutex mu;
  std::vector<int> shed_seeds;
  std::atomic<int> done_count{0};
  for (int i = 0; i < kBurst; ++i) {
    int seeds = 5 + i;
    engine.GenerateAsync(entry.query, seeds, entry.year, nullptr,
                         [&, seeds](Result<ServeResponse> r) {
                           if (!r.ok() && r.status().IsUnavailable()) {
                             std::lock_guard<std::mutex> lock(mu);
                             shed_seeds.push_back(seeds);
                           }
                           ++done_count;
                         });
  }
  while (done_count.load() < kBurst) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(shed_seeds.empty());
  // Retrying a shed request once the burst passed must compute fine —
  // the 429 left no poisoned negative entry behind.
  auto retry = engine.Generate(entry.query, shed_seeds.front(), entry.year);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_FALSE(retry->cache_hit);
}

TEST(ServeEngineTest, StopDrainsInFlightSolveEndToEnd) {
  const eval::Workbench& wb = SharedWorkbench();
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(TestEpoch(wb), options);
  ui::RePagerService service(&engine);
  // A solve can finish within one poll of the wait below, so its reply
  // is held until Stop() has begun: the request is then still in flight
  // when the drain starts, however fast the solve is.
  const ui::HttpServer* stopping = nullptr;
  ui::HttpServer server(
      [&](const ui::HttpRequest& request, ui::HttpServer::Done done) {
        service.HandleAsync(
            request, [&, done = std::move(done)](ui::HttpResponse response) {
              while (stopping->running()) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
              }
              done(std::move(response));
            });
      });
  stopping = &server;
  int port = server.Start(0).value();
  const auto& entry = wb.bank().Get(2);
  std::string q;
  for (char ch : entry.query) q += (ch == ' ') ? '+' : ch;

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string request = "GET /api/path?q=" + q +
                        "&year=" + std::to_string(entry.year) +
                        " HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  // Wait until the solve is in flight, then stop: the graceful drain
  // must let the compute finish and flush the response before closing.
  for (int i = 0; i < 500 && server.Stats().requests_handled == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(server.Stats().requests_handled, 1u);
  server.Stop();

  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("reading_order"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
}

// ------------------------------------------------ reply byte splicing

/// Masks the two fields that differ between replies of one shared
/// result: this request's serving time and whether it hit the cache.
std::string MaskServingFields(const std::string& body) {
  static const std::regex serving(
      "\"serve_seconds\":[-+0-9.eE]+|\"cache_hit\":(true|false)");
  return std::regex_replace(body, serving, "\"masked\":0");
}

/// The reply from `"nodes":` on: the part a cache hit splices in.
std::string PathPart(const std::string& body) {
  size_t at = body.find("\"nodes\":");
  return at == std::string::npos ? body : body.substr(at);
}

TEST(ServeEngineTest, MissCoalescedAndHitRepliesByteIdentical) {
  const eval::Workbench& wb = SharedWorkbench();
  ServeEngineOptions options;
  options.num_threads = 1;  // one solver, so a blocker can hold it
  ServeEngine engine(TestEpoch(wb), options);
  // An independent, uncached engine: every reference reply is a fresh
  // render of a fresh computation.
  ServeEngineOptions ref_options;
  ref_options.num_threads = 1;
  ref_options.cache.max_bytes = 0;
  ServeEngine ref_engine(TestEpoch(wb), ref_options);
  ui::RePagerService ref_service(&ref_engine);

  auto submit = [&engine](const std::string& query, int seeds, int year) {
    auto promise = std::make_shared<std::promise<Result<ServeResponse>>>();
    auto future = promise->get_future();
    engine.GenerateAsync(query, seeds, year, nullptr,
                         [promise](Result<ServeResponse> r) {
                           promise->set_value(std::move(r));
                         });
    return future;
  };
  size_t checked = 0;
  for (size_t i = 0; i < wb.bank().size(); ++i) {
    const auto& entry = wb.bank().Get(i);
    // The blocker (a distinct key per iteration) holds the one solver
    // thread until released: its completion callback runs there and
    // waits. So the owner's solve is still queued when its duplicate
    // arrives, and the duplicate joins the flight instead of hitting
    // the cache, however the threads are scheduled.
    std::promise<void> release, blocker_done;
    engine.GenerateAsync(
        entry.query, 100 + static_cast<int>(i), entry.year, nullptr,
        [released = release.get_future().share(),
         &blocker_done](Result<ServeResponse>) {
          released.wait();
          blocker_done.set_value();
        });
    auto owner = submit(entry.query, 0, entry.year);
    auto joined = submit(entry.query, 0, entry.year);
    release.set_value();
    blocker_done.get_future().wait();
    Result<ServeResponse> miss = owner.get();
    Result<ServeResponse> coalesced = joined.get();
    ASSERT_EQ(miss.ok(), coalesced.ok()) << entry.query;
    // Skip failing queries and bank entries repeating an earlier key.
    if (!miss.ok() || miss->cache_hit) continue;
    EXPECT_TRUE(coalesced->coalesced) << entry.query;
    Result<ServeResponse> hit = engine.Generate(entry.query, 0, entry.year);
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit->cache_hit);

    const std::string miss_body =
        RenderPathJson(entry.query, *miss, /*debug=*/false, nullptr);
    const std::string masked = MaskServingFields(miss_body);
    EXPECT_EQ(MaskServingFields(RenderPathJson(entry.query, *coalesced,
                                               /*debug=*/false, nullptr)),
              masked)
        << entry.query;
    EXPECT_EQ(MaskServingFields(
                  RenderPathJson(entry.query, *hit, /*debug=*/false, nullptr)),
              masked)
        << entry.query;
    auto reference = ref_service.PathJson(entry.query, 0, entry.year);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ(PathPart(miss_body), PathPart(reference.value()))
        << entry.query;
    ++checked;
  }
  EXPECT_GT(checked, wb.bank().size() / 2);
}

TEST(ServeEngineTest, EquivalentQueriesShareEntryAndEchoOwnText) {
  const eval::Workbench& wb = SharedWorkbench();
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(TestEpoch(wb), options);
  ui::RePagerService service(&engine);
  const auto& entry = wb.bank().Get(0);
  std::string shouted = entry.query;
  for (char& c : shouted) c = static_cast<char>(std::toupper(c));
  shouted = "  " + shouted + "  ";

  auto fetch = [&](const std::string& q) {
    return service.Handle({"GET",
                           "/api/path",
                           {{"q", q}, {"year", std::to_string(entry.year)}}});
  };
  ui::HttpResponse plain = fetch(entry.query);
  ui::HttpResponse loud = fetch(shouted);
  ASSERT_EQ(plain.status, 200) << plain.body;
  ASSERT_EQ(loud.status, 200) << loud.body;
  EXPECT_NE(loud.body.find("\"cache_hit\":true"), std::string::npos);
  EXPECT_EQ(engine.cache().Stats().insertions, 1u);
  // One stored fragment, but each reply echoes its own raw query text.
  EXPECT_EQ(plain.body.rfind("{\"query\":\"" + entry.query + "\",", 0), 0u)
      << plain.body.substr(0, 80);
  EXPECT_EQ(loud.body.rfind("{\"query\":\"" + shouted + "\",", 0), 0u)
      << loud.body.substr(0, 80);
  EXPECT_EQ(PathPart(plain.body), PathPart(loud.body));
}

TEST(ServeEngineTest, DebugHitSplicesSamePathBytesThenDebug) {
  const eval::Workbench& wb = SharedWorkbench();
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(TestEpoch(wb), options);
  ui::RePagerService service(&engine);
  const auto& entry = wb.bank().Get(3);
  ui::HttpRequest request{
      "GET",
      "/api/path",
      {{"q", entry.query}, {"year", std::to_string(entry.year)}}};
  ui::HttpResponse cold = service.Handle(request);
  request.query["debug"] = "1";
  ui::HttpResponse debug_hit = service.Handle(request);
  ASSERT_EQ(cold.status, 200) << cold.body;
  ASSERT_EQ(debug_hit.status, 200) << debug_hit.body;
  EXPECT_NE(debug_hit.body.find("\"cache_hit\":true"), std::string::npos);

  // cold:      {head,<path>}
  // debug hit: {head,<path>,"debug":{...}}
  const std::string cold_path = PathPart(cold.body);
  const std::string path = cold_path.substr(0, cold_path.size() - 1);
  const std::string hit_tail = PathPart(debug_hit.body);
  ASSERT_EQ(hit_tail.compare(0, path.size(), path), 0);
  EXPECT_EQ(hit_tail.compare(path.size(), 10, ",\"debug\":{"), 0)
      << hit_tail.substr(path.size(), 40);
  EXPECT_NE(hit_tail.find("\"stages\":{", path.size()), std::string::npos);
  EXPECT_EQ(hit_tail.substr(hit_tail.size() - 2), "}}");
}

// ------------------------------------------- end-to-end over HTTP sockets

TEST(ServeEngineTest, ConcurrentHttpRequestsBitIdenticalToSerial) {
  const eval::Workbench& wb = SharedWorkbench();
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(TestEpoch(wb), options);
  ui::RePagerService service(&engine);
  // The production path: async handler on the epoll reactor, so poller
  // threads hand compute to the engine instead of blocking on it.
  ui::HttpServer server(
      [&](const ui::HttpRequest& request, ui::HttpServer::Done done) {
        service.HandleAsync(request, std::move(done));
      });
  int port = server.Start(0).value();

  // Serial reference bodies, rendered through an independent engine so
  // no serving state is shared with the system under test.
  ServeEngineOptions ref_options;
  ref_options.num_threads = 1;
  ref_options.cache.max_bytes = 0;
  ServeEngine ref_engine(TestEpoch(wb), ref_options);
  ui::RePagerService ref_service(&ref_engine);

  constexpr int kClients = 4, kRounds = 3;
  std::vector<std::string> expected(kClients);
  std::vector<std::string> targets(kClients);
  auto strip = [](const std::string& body) {
    // Serving metadata (serve_seconds, cache_hit, seconds) differs
    // between paths; the path payload itself must be bit-identical.
    size_t at = body.find("\"nodes\":");
    return at == std::string::npos ? body : body.substr(at);
  };
  for (int c = 0; c < kClients; ++c) {
    const auto& entry = wb.bank().Get(static_cast<size_t>(c));
    std::string q;
    for (char ch : entry.query) q += (ch == ' ') ? '+' : ch;
    targets[c] = "/api/path?q=" + q + "&year=" + std::to_string(entry.year);
    auto body =
        ref_service.PathJson(entry.query, 0, entry.year);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    expected[c] = strip(body.value());
  }

  std::atomic<int> mismatches{0}, errors{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ui::HttpClient client;
      if (!client.Connect(port).ok()) {
        ++errors;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        auto r = client.Fetch("GET", targets[c]);
        if (!r.ok() || r->status != 200) {
          ++errors;
          continue;
        }
        if (strip(r->body) != expected[c]) ++mismatches;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // Each distinct query computed once; the rest were served hot.
  QueryCacheStats stats = engine.cache().Stats();
  EXPECT_EQ(stats.insertions, static_cast<uint64_t>(kClients));
  EXPECT_GE(stats.hits, static_cast<uint64_t>(kClients * (kRounds - 1)));
  server.Stop();
}

// A slow client must not corrupt its own response: the reactor parks
// the partially-written response on EPOLLOUT and resumes as the
// client's window opens, and the payload stays bit-identical to serial.
TEST(ServeEngineTest, SlowClientReceivesBitIdenticalResponse) {
  const eval::Workbench& wb = SharedWorkbench();
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(TestEpoch(wb), options);
  ui::RePagerService service(&engine);
  ui::HttpServer server(
      [&](const ui::HttpRequest& request, ui::HttpServer::Done done) {
        service.HandleAsync(request, std::move(done));
      });
  int port = server.Start(0).value();

  const auto& entry = wb.bank().Get(0);
  auto reference = service.PathJson(entry.query, 0, entry.year);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  auto strip = [](const std::string& body) {
    size_t at = body.find("\"nodes\":");
    return at == std::string::npos ? body : body.substr(at);
  };

  // Raw socket with a tiny receive buffer, read in 128-byte sips: the
  // server sees a crawling peer while other clients stay responsive.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 2048;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string q;
  for (char ch : entry.query) q += (ch == ' ') ? '+' : ch;
  std::string request = "GET /api/path?q=" + q +
                        "&year=" + std::to_string(entry.year) +
                        " HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char sip[128];
  ssize_t n;
  while ((n = ::read(fd, sip, sizeof(sip))) > 0) {
    response.append(sip, static_cast<size_t>(n));
    if (response.size() % 4096 < sizeof(sip)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ::close(fd);
  size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_EQ(strip(response.substr(body_at + 4)), strip(reference.value()));
  server.Stop();
}

}  // namespace
}  // namespace rpg::serve
