#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "../serve/serve_test_util.h"
#include "eval/workbench.h"
#include "serve/serve_engine.h"
#include "ui/http_client.h"
#include "ui/http_server.h"
#include "ui/repager_service.h"

namespace rpg::ui {
namespace {

// ----------------------------------------------------------- UrlDecode

TEST(UrlDecodeTest, DecodesPercentAndPlus) {
  EXPECT_EQ(UrlDecode("hate%20speech+detection"), "hate speech detection");
  EXPECT_EQ(UrlDecode("a%2Bb"), "a+b");
  EXPECT_EQ(UrlDecode("plain"), "plain");
  EXPECT_EQ(UrlDecode(""), "");
}

TEST(UrlDecodeTest, MalformedPercentPassesThrough) {
  EXPECT_EQ(UrlDecode("50%"), "50%");
  EXPECT_EQ(UrlDecode("%zz"), "%zz");
}

// ----------------------------------------------------- ParseRequestLine

TEST(ParseRequestTest, PlainPath) {
  auto r = ParseRequestLine("GET /api/path HTTP/1.1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->method, "GET");
  EXPECT_EQ(r->path, "/api/path");
  EXPECT_EQ(r->version, "HTTP/1.1");
  EXPECT_TRUE(r->query.empty());
}

TEST(ParseRequestTest, QueryParameters) {
  auto r = ParseRequestLine(
      "GET /api/path?q=pretrained%20language+model&seeds=30 HTTP/1.1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->query.at("q"), "pretrained language model");
  EXPECT_EQ(r->query.at("seeds"), "30");
}

TEST(ParseRequestTest, ValuelessParameter) {
  auto r = ParseRequestLine("GET /x?flag HTTP/1.1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->query.at("flag"), "");
}

TEST(ParseRequestTest, Http10VersionCaptured) {
  auto r = ParseRequestLine("GET / HTTP/1.0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->version, "HTTP/1.0");
}

TEST(ParseRequestTest, MalformedLinesRejected) {
  EXPECT_FALSE(ParseRequestLine("").ok());
  EXPECT_FALSE(ParseRequestLine("GET /x").ok());
  EXPECT_FALSE(ParseRequestLine("GET /x NOTHTTP").ok());
  EXPECT_FALSE(ParseRequestLine("GET relative HTTP/1.1").ok());
}

// ------------------------------------------------------ ParseHeaderLines

TEST(ParseHeadersTest, LowercasesNamesTrimsValues) {
  std::map<std::string, std::string> headers;
  ParseHeaderLines(
      "Host: localhost\r\nConnection:  Keep-Alive \r\nContent-Length: 12\r\n",
      &headers);
  EXPECT_EQ(headers.at("host"), "localhost");
  EXPECT_EQ(headers.at("connection"), "Keep-Alive");
  EXPECT_EQ(headers.at("content-length"), "12");
}

TEST(ParseHeadersTest, SkipsMalformedLines) {
  std::map<std::string, std::string> headers;
  ParseHeaderLines("no colon here\r\nGood: yes\r\n", &headers);
  EXPECT_EQ(headers.size(), 1u);
  EXPECT_EQ(headers.at("good"), "yes");
}

TEST(ParseHeadersTest, DuplicateFieldsFoldIntoCommaList) {
  // RFC 7230 §3.2.2 folding; for Content-Length this is what turns two
  // conflicting lengths into an unparseable "5, 6" -> 400 instead of
  // letting either framing win.
  std::map<std::string, std::string> headers;
  ParseHeaderLines("X-Tag: one\r\nX-Tag: two\r\nContent-Length: 5\r\n"
                   "Content-Length: 6\r\n",
                   &headers);
  EXPECT_EQ(headers.at("x-tag"), "one, two");
  EXPECT_EQ(headers.at("content-length"), "5, 6");
}

// ---------------------------------------------------- ParseContentLength

TEST(ParseContentLengthTest, AcceptsPlainDigits) {
  size_t n = 999;
  EXPECT_TRUE(ParseContentLength("0", &n));
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(ParseContentLength("42", &n));
  EXPECT_EQ(n, 42u);
  EXPECT_TRUE(ParseContentLength("1048576", &n));
  EXPECT_EQ(n, 1048576u);
  // The uint64 boundary itself still parses...
  EXPECT_TRUE(ParseContentLength("18446744073709551615", &n));
  EXPECT_EQ(n, UINT64_MAX);
}

TEST(ParseContentLengthTest, RejectsNonNumericSignedAndOverflowing) {
  size_t n = 0;
  EXPECT_FALSE(ParseContentLength("", &n));
  EXPECT_FALSE(ParseContentLength("abc", &n));
  EXPECT_FALSE(ParseContentLength("-1", &n));   // strtoull accepted this as
  EXPECT_FALSE(ParseContentLength("+1", &n));   // a wrapped huge value
  EXPECT_FALSE(ParseContentLength(" 1", &n));
  EXPECT_FALSE(ParseContentLength("1 ", &n));
  EXPECT_FALSE(ParseContentLength("1,2", &n));
  EXPECT_FALSE(ParseContentLength("5, 6", &n));  // folded duplicates
  EXPECT_FALSE(ParseContentLength("0x10", &n));
  EXPECT_FALSE(ParseContentLength("18446744073709551616", &n));  // 2^64
  EXPECT_FALSE(ParseContentLength("99999999999999999999999", &n));
}

// ------------------------------------------------------- FrameOneRequest

TEST(FrameOneRequestTest, IncompleteHeaderNeedsMore) {
  FrameResult r = FrameOneRequest("GET / HTTP/1.1\r\nHost: x\r\n",
                                  /*peer_eof=*/false, FramingLimits{});
  EXPECT_EQ(r.verdict, FrameResult::Verdict::kNeedMore);
  EXPECT_EQ(r.consumed, 0u);
}

TEST(FrameOneRequestTest, CompleteRequestConsumedExactly) {
  const std::string one = "GET /a?x=1 HTTP/1.1\r\nHost: x\r\n\r\n";
  FrameResult r = FrameOneRequest(one, false, FramingLimits{});
  ASSERT_EQ(r.verdict, FrameResult::Verdict::kRequest);
  EXPECT_EQ(r.consumed, one.size());
  EXPECT_EQ(r.request.path, "/a");
  EXPECT_EQ(r.request.query.at("x"), "1");
  EXPECT_TRUE(r.keep_alive);
}

TEST(FrameOneRequestTest, PipelinedBufferFramesOnlyTheFirst) {
  const std::string first = "GET /one HTTP/1.1\r\n\r\n";
  const std::string both = first + "GET /two HTTP/1.1\r\n\r\n";
  FrameResult r = FrameOneRequest(both, false, FramingLimits{});
  ASSERT_EQ(r.verdict, FrameResult::Verdict::kRequest);
  EXPECT_EQ(r.consumed, first.size());
  EXPECT_EQ(r.request.path, "/one");
}

TEST(FrameOneRequestTest, BodyFramedByContentLength) {
  const std::string post =
      "POST /u HTTP/1.1\r\nContent-Length: 5\r\nConnection: close\r\n\r\n"
      "hello";
  FrameResult r = FrameOneRequest(post, false, FramingLimits{});
  ASSERT_EQ(r.verdict, FrameResult::Verdict::kRequest);
  EXPECT_EQ(r.consumed, post.size());
  EXPECT_EQ(r.request.body, "hello");
  EXPECT_FALSE(r.keep_alive);
  // Same bytes minus the last body byte: incomplete.
  FrameResult partial = FrameOneRequest(post.substr(0, post.size() - 1),
                                        false, FramingLimits{});
  EXPECT_EQ(partial.verdict, FrameResult::Verdict::kNeedMore);
}

TEST(FrameOneRequestTest, ProtocolErrorsMapToStatuses) {
  FramingLimits tiny_header;
  tiny_header.max_header_bytes = 32;
  // Oversized (and even unterminated) header block -> 431.
  FrameResult big_header = FrameOneRequest(
      "GET / HTTP/1.1\r\nX: " + std::string(64, 'j'), false, tiny_header);
  ASSERT_EQ(big_header.verdict, FrameResult::Verdict::kError);
  EXPECT_EQ(big_header.error_status, 431);
  // Declared body beyond the cap -> 413, before any body byte arrives.
  FramingLimits tiny_body;
  tiny_body.max_body_bytes = 8;
  FrameResult big_body = FrameOneRequest(
      "POST /u HTTP/1.1\r\nContent-Length: 9\r\n\r\n", false, tiny_body);
  ASSERT_EQ(big_body.verdict, FrameResult::Verdict::kError);
  EXPECT_EQ(big_body.error_status, 413);
  // Unparseable Content-Length -> 400.
  FrameResult bad_length = FrameOneRequest(
      "POST /u HTTP/1.1\r\nContent-Length: 5, 6\r\n\r\n", false,
      FramingLimits{});
  ASSERT_EQ(bad_length.verdict, FrameResult::Verdict::kError);
  EXPECT_EQ(bad_length.error_status, 400);
  // Malformed request line -> 400.
  FrameResult bad_line =
      FrameOneRequest("BOGUS\r\n\r\n", false, FramingLimits{});
  ASSERT_EQ(bad_line.verdict, FrameResult::Verdict::kError);
  EXPECT_EQ(bad_line.error_status, 400);
}

TEST(FrameOneRequestTest, EofOnPartialRequestIsClose) {
  FrameResult r = FrameOneRequest("GET / HTTP/1.1\r\nHos",
                                  /*peer_eof=*/true, FramingLimits{});
  EXPECT_EQ(r.verdict, FrameResult::Verdict::kClose);
  // ...but EOF behind a complete request still frames it.
  FrameResult done =
      FrameOneRequest("GET / HTTP/1.1\r\n\r\n", true, FramingLimits{});
  EXPECT_EQ(done.verdict, FrameResult::Verdict::kRequest);
}

TEST(FrameOneRequestTest, ZeroHeaderRequestAccepted) {
  FrameResult r =
      FrameOneRequest("GET / HTTP/1.1\r\n\r\n", false, FramingLimits{});
  ASSERT_EQ(r.verdict, FrameResult::Verdict::kRequest);
  EXPECT_TRUE(r.request.headers.empty());
  EXPECT_TRUE(r.keep_alive);  // HTTP/1.1 default
}

// ----------------------------------------------------- ParseHttpResponse

TEST(ParseHttpResponseTest, IncompleteNeedsMore) {
  EXPECT_EQ(ParseHttpResponse("HTTP/1.1 200 OK\r\nContent-").verdict,
            ResponseParseResult::Verdict::kNeedMore);
  // Complete header but body still in flight.
  EXPECT_EQ(ParseHttpResponse(
                "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhel")
                .verdict,
            ResponseParseResult::Verdict::kNeedMore);
}

TEST(ParseHttpResponseTest, CompleteResponseParsed) {
  const std::string wire =
      "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
      "Content-Length: 2\r\n\r\n{}";
  ResponseParseResult r = ParseHttpResponse(wire);
  ASSERT_EQ(r.verdict, ResponseParseResult::Verdict::kResponse);
  EXPECT_EQ(r.consumed, wire.size());
  EXPECT_EQ(r.response.status, 200);
  EXPECT_EQ(r.response.body, "{}");
  EXPECT_EQ(r.response.headers.at("content-type"), "application/json");
}

TEST(ParseHttpResponseTest, PipelinedBufferConsumesOnlyTheFirst) {
  const std::string first =
      "HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n";
  ResponseParseResult r =
      ParseHttpResponse(first + "HTTP/1.1 200 OK\r\n\r\n");
  ASSERT_EQ(r.verdict, ResponseParseResult::Verdict::kResponse);
  EXPECT_EQ(r.consumed, first.size());
  EXPECT_EQ(r.response.status, 204);
}

TEST(ParseHttpResponseTest, MalformedStatusIsError) {
  for (const char* wire :
       {"HTTP/1.1 2x0 Weird\r\n\r\n", "NOTHTTP 200 OK\r\n\r\n",
        "HTTP/1.1 20 OK\r\n\r\n", "HTTP/1.1 099 Low\r\n\r\n"}) {
    ResponseParseResult r = ParseHttpResponse(wire);
    EXPECT_EQ(r.verdict, ResponseParseResult::Verdict::kError) << wire;
    EXPECT_FALSE(r.error.empty()) << wire;
  }
}

TEST(ParseHttpResponseTest, BadContentLengthIsError) {
  ResponseParseResult r = ParseHttpResponse(
      "HTTP/1.1 200 OK\r\nContent-Length: 5, 6\r\n\r\nhello");
  EXPECT_EQ(r.verdict, ResponseParseResult::Verdict::kError);
}

// --------------------------------------------------------- HttpStatusFor

TEST(HttpStatusForTest, MapsEveryStatusCode) {
  const struct {
    Status status;
    int http;
  } rows[] = {
      {Status::InvalidArgument("bad seeds"), 400},
      {Status::NotFound("no seeds"), 404},
      {Status::IoError("unreadable snapshot"), 404},
      {Status::Unavailable("queue full"), 429},
      {Status::FailedPrecondition("SolverPool is shut down"), 500},
      {Status::Internal("broken invariant"), 500},
      {Status::DeadlineExceeded("abandoned"), 500},
  };
  for (const auto& row : rows) {
    EXPECT_EQ(HttpStatusFor(row.status), row.http) << row.status.ToString();
  }
}

// ------------------------------------------------------------ HttpServer

/// Raw blocking client socket connected to 127.0.0.1:`port`; -1 on error.
int ConnectRaw(int port) {
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

std::string ReadToEof(int fd) {
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  return response;
}

/// One-shot fetch (Connection: close): reads until EOF.
std::string FetchOnce(int port, const std::string& request_line) {
  int fd = ConnectRaw(port);
  EXPECT_GE(fd, 0);
  std::string request =
      request_line + "\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  EXPECT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response = ReadToEof(fd);
  ::close(fd);
  return response;
}

/// Polls `predicate` for up to two seconds (reactor cleanup is
/// asynchronous: disconnects are observed on the next epoll wakeup).
bool PollUntil(const std::function<bool()>& predicate) {
  for (int i = 0; i < 200; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return predicate();
}

TEST(HttpServerTest, ServesHandlerResponses) {
  HttpServer server([](const HttpRequest& request) {
    HttpResponse response;
    response.content_type = "text/plain";
    response.body = "echo:" + request.path;
    return response;
  });
  int port = server.Start(0).value();
  ASSERT_GT(port, 0);
  std::string response = FetchOnce(port, "GET /hello HTTP/1.1");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("echo:/hello"), std::string::npos);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServerTest, ConnectionCloseHonored) {
  HttpServer server([](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "x"};
  });
  int port = server.Start(0).value();
  // FetchOnce sends Connection: close and relies on the server actually
  // closing; a hang here means keep-alive ignored the header.
  std::string response = FetchOnce(port, "GET / HTTP/1.1");
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, KeepAliveServesManyRequestsPerConnection) {
  std::atomic<int> handled{0};
  HttpServer server([&](const HttpRequest& request) {
    ++handled;
    return HttpResponse{200, "text/plain", "echo:" + request.path};
  });
  int port = server.Start(0).value();
  HttpClient client;
  ASSERT_TRUE(client.Connect(port).ok());
  for (int i = 0; i < 5; ++i) {
    auto r = client.Fetch("GET", "/req" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200);
    EXPECT_EQ(r->body, "echo:/req" + std::to_string(i));
    EXPECT_TRUE(client.connected());  // server kept the connection open
  }
  EXPECT_EQ(handled.load(), 5);
  // One keep-alive connection carried everything.
  EXPECT_EQ(server.Stats().connections_accepted, 1u);
  EXPECT_EQ(server.Stats().requests_handled, 5u);
  client.Close();
  server.Stop();
}

TEST(HttpServerTest, PostBodyDelivered) {
  std::string seen_body;
  std::string seen_method;
  HttpServer server([&](const HttpRequest& request) {
    seen_method = request.method;
    seen_body = request.body;
    return HttpResponse{200, "text/plain", "ok"};
  });
  int port = server.Start(0).value();
  int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0);
  std::string request =
      "POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n"
      "Connection: close\r\n\r\nhello";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response = ReadToEof(fd);
  ::close(fd);
  EXPECT_EQ(seen_method, "POST");
  EXPECT_EQ(seen_body, "hello");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, ConcurrentKeepAliveConnections) {
  HttpServer server([](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", "echo:" + request.path};
  });
  int port = server.Start(0).value();
  constexpr int kThreads = 8, kRequests = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      HttpClient client;
      if (!client.Connect(port).ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        std::string path = "/t" + std::to_string(t) + "r" + std::to_string(i);
        auto r = client.Fetch("GET", path);
        if (!r.ok() || r->status != 200 || r->body != "echo:" + path) {
          ++failures;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
}

TEST(HttpServerTest, MalformedRequestGets400) {
  HttpServer server([](const HttpRequest&) { return HttpResponse{}; });
  int port = server.Start(0).value();
  std::string response = FetchOnce(port, "BOGUS");
  EXPECT_NE(response.find("400"), std::string::npos);
  EXPECT_EQ(server.Stats().protocol_errors, 1u);
  server.Stop();
}

TEST(HttpServerTest, StopIsIdempotent) {
  HttpServer server([](const HttpRequest&) { return HttpResponse{}; });
  server.Start(0).value();
  server.Stop();
  server.Stop();
}

TEST(HttpServerTest, DoubleStartRejected) {
  HttpServer server([](const HttpRequest&) { return HttpResponse{}; });
  server.Start(0).value();
  EXPECT_FALSE(server.Start(0).ok());
  server.Stop();
}

// ------------------------------------------------- reactor edge cases

TEST(HttpServerTest, SlowLorisPartialHeadersDoNotStarveOthers) {
  HttpServer server([](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", "echo:" + request.path};
  });
  int port = server.Start(0).value();

  // The slow client dribbles its header one fragment at a time...
  int slow = ConnectRaw(port);
  ASSERT_GE(slow, 0);
  const std::string request =
      "GET /slow HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  size_t sent = 0;
  auto send_fragment = [&](size_t n) {
    n = std::min(n, request.size() - sent);
    ASSERT_EQ(::write(slow, request.data() + sent, n),
              static_cast<ssize_t>(n));
    sent += n;
  };
  send_fragment(3);  // "GET"
  // ...while a normal client gets served between the fragments: the
  // reactor multiplexes, a blocking read of the slow header would hang
  // this fetch forever.
  std::string other = FetchOnce(port, "GET /fast HTTP/1.1");
  EXPECT_NE(other.find("echo:/fast"), std::string::npos);
  send_fragment(10);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  other = FetchOnce(port, "GET /fast2 HTTP/1.1");
  EXPECT_NE(other.find("echo:/fast2"), std::string::npos);
  // Finish the slow request; it must complete normally.
  send_fragment(request.size());
  std::string slow_response = ReadToEof(slow);
  ::close(slow);
  EXPECT_NE(slow_response.find("echo:/slow"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, FragmentedBodyReassembled) {
  std::string seen_body;
  HttpServer server([&](const HttpRequest& request) {
    seen_body = request.body;
    return HttpResponse{200, "text/plain", "got " +
                        std::to_string(request.body.size())};
  });
  int port = server.Start(0).value();
  int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0);
  std::string body(1000, 'x');
  body[0] = 'a';
  body[999] = 'z';
  std::string head =
      "POST /u HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n"
      "Connection: close\r\n\r\n";
  ASSERT_EQ(::write(fd, head.data(), head.size()),
            static_cast<ssize_t>(head.size()));
  // Body in 100-byte fragments with pauses: each arrives as its own
  // read event and the state machine keeps accumulating.
  for (size_t off = 0; off < body.size(); off += 100) {
    ASSERT_EQ(::write(fd, body.data() + off, 100), 100);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string response = ReadToEof(fd);
  ::close(fd);
  EXPECT_NE(response.find("got 1000"), std::string::npos);
  EXPECT_EQ(seen_body, body);
  server.Stop();
}

TEST(HttpServerTest, OversizedHeaderRejected431) {
  HttpServerOptions options;
  HttpServer server(
      [](const HttpRequest&) { return HttpResponse{}; }, options);
  int port = server.Start(0).value();
  int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0);
  // 80K of header bytes with no terminator.
  std::string junk = "GET / HTTP/1.1\r\nX-Junk: ";
  junk.append(80 * 1024, 'j');
  ASSERT_GT(::write(fd, junk.data(), junk.size()), 0);
  std::string response = ReadToEof(fd);
  ::close(fd);
  EXPECT_NE(response.find("431"), std::string::npos);
  EXPECT_EQ(server.Stats().protocol_errors, 1u);
  EXPECT_TRUE(PollUntil([&] { return server.Stats().open_connections == 0; }));
  server.Stop();
}

TEST(HttpServerTest, CompleteOversizedHeaderAlsoRejected431) {
  // The whole oversized block — terminator included — arrives in one
  // burst, so the incomplete-header size check never sees it; the
  // complete-block check must reject it anyway.
  HttpServer server([](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "should not run"};
  });
  int port = server.Start(0).value();
  int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0);
  std::string junk = "GET / HTTP/1.1\r\nX-Junk: ";
  junk.append(80 * 1024, 'j');
  junk += "\r\n\r\n";
  size_t sent = 0;
  while (sent < junk.size()) {
    ssize_t n = ::write(fd, junk.data() + sent, junk.size() - sent);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
  std::string response = ReadToEof(fd);
  ::close(fd);
  EXPECT_NE(response.find("431"), std::string::npos);
  EXPECT_EQ(response.find("should not run"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, PipelinedRequestsBeforeFinAllAnswered) {
  HttpServer server([](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", "echo:" + request.path};
  });
  int port = server.Start(0).value();
  int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0);
  // Send-then-FIN client: both pipelined requests are in flight when
  // the half-close lands, and both must still be answered.
  std::string two =
      "GET /one HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /two HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::write(fd, two.data(), two.size()),
            static_cast<ssize_t>(two.size()));
  ::shutdown(fd, SHUT_WR);
  std::string response = ReadToEof(fd);
  ::close(fd);
  EXPECT_NE(response.find("echo:/one"), std::string::npos);
  EXPECT_NE(response.find("echo:/two"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, OversizedBodyRejected413) {
  HttpServer server([](const HttpRequest&) { return HttpResponse{}; });
  int port = server.Start(0).value();
  int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0);
  // Declares 2 MiB against the 1 MiB default cap; the server must
  // reject on the declaration without reading the body.
  std::string head =
      "POST /u HTTP/1.1\r\nHost: x\r\nContent-Length: 2097152\r\n\r\n";
  ASSERT_EQ(::write(fd, head.data(), head.size()),
            static_cast<ssize_t>(head.size()));
  std::string response = ReadToEof(fd);
  ::close(fd);
  EXPECT_NE(response.find("413"), std::string::npos);
  EXPECT_NE(response.find("body too large"), std::string::npos);
  EXPECT_TRUE(PollUntil([&] { return server.Stats().open_connections == 0; }));
  server.Stop();
}

TEST(HttpServerTest, PipelinedRequestsAnsweredInOrder) {
  HttpServer server([](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", "echo:" + request.path};
  });
  int port = server.Start(0).value();
  int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0);
  std::string two =
      "GET /one HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /two HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::write(fd, two.data(), two.size()),
            static_cast<ssize_t>(two.size()));
  std::string response = ReadToEof(fd);
  ::close(fd);
  size_t first = response.find("echo:/one");
  size_t second = response.find("echo:/two");
  EXPECT_NE(first, std::string::npos);
  EXPECT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  server.Stop();
}

TEST(HttpServerTest, LargePipelinedBurstServedIteratively) {
  // 2000 pipelined requests in one write: the pump must iterate, not
  // recurse per request (recursion depth would be client-controlled).
  std::atomic<int> handled{0};
  HttpServer server([&](const HttpRequest&) {
    ++handled;
    return HttpResponse{200, "text/plain", "ok"};
  });
  int port = server.Start(0).value();
  int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0);
  constexpr int kBurst = 2000;
  std::string burst;
  for (int i = 0; i < kBurst - 1; ++i) burst += "GET /p HTTP/1.1\r\n\r\n";
  burst += "GET /p HTTP/1.1\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  std::string response = ReadToEof(fd);
  ::close(fd);
  EXPECT_EQ(handled.load(), kBurst);
  size_t ok_count = 0;
  for (size_t at = response.find("200 OK"); at != std::string::npos;
       at = response.find("200 OK", at + 1)) {
    ++ok_count;
  }
  EXPECT_EQ(ok_count, static_cast<size_t>(kBurst));
  server.Stop();
}

TEST(HttpServerTest, PartialWritesDeliverLargeResponseIntact) {
  // 8 MiB body: far beyond any socket buffer, so the reactor must park
  // the connection on EPOLLOUT and resume writing as the slow client
  // drains — repeatedly.
  std::string big(8 * 1024 * 1024, 'b');
  big.front() = 'A';
  big.back() = 'Z';
  HttpServer server([&](const HttpRequest&) {
    return HttpResponse{200, "application/octet-stream", big};
  });
  int port = server.Start(0).value();
  int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0);
  // Small-but-not-tiny receive buffer: the 8 MiB response overflows the
  // server's send buffer many times over (forcing EPOLLOUT round trips)
  // without dropping the TCP window so low that delayed ACKs dominate.
  int rcvbuf = 64 * 1024;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  std::string request = "GET /big HTTP/1.1\r\nHost: x\r\n"
                        "Connection: close\r\n\r\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response = ReadToEof(fd);
  ::close(fd);
  size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_EQ(response.substr(body_at + 4), big);
  server.Stop();
}

TEST(HttpServerTest, AbruptDisconnectMidResponseLeaksNoFd) {
  std::string big(8 * 1024 * 1024, 'b');
  HttpServer server([&](const HttpRequest&) {
    return HttpResponse{200, "application/octet-stream", big};
  });
  int port = server.Start(0).value();
  int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0);
  std::string request = "GET /big HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  // Read a token amount, then vanish with the response mid-flight.
  char buf[1024];
  ASSERT_GT(::read(fd, buf, sizeof(buf)), 0);
  struct linger hard_close {1, 0};  // RST instead of FIN: truly abrupt
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close, sizeof(hard_close));
  ::close(fd);
  // The write side must observe the reset and release the fd.
  EXPECT_TRUE(PollUntil([&] { return server.Stats().open_connections == 0; }));
  server.Stop();
}

TEST(HttpServerTest, DisconnectDuringAsyncComputeReclaimsConnection) {
  // An async handler that never completes until told: the connection
  // dies while "compute" is in flight, and the late completion must be
  // dropped without touching a recycled fd.
  std::mutex mu;
  std::vector<HttpServer::Done> parked;
  HttpServer server([&](const HttpRequest&, HttpServer::Done done) {
    std::lock_guard<std::mutex> lock(mu);
    parked.push_back(std::move(done));
  });
  int port = server.Start(0).value();
  int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0);
  std::string request = "GET /hang HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  EXPECT_TRUE(PollUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return parked.size() == 1;
  }));
  // The client gives up while the handler still holds `done`. RST (via
  // SO_LINGER 0) rather than FIN: a half-close would still allow the
  // response through, an abort must reclaim the fd immediately.
  struct linger hard_close {1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close, sizeof(hard_close));
  ::close(fd);
  EXPECT_TRUE(PollUntil([&] { return server.Stats().open_connections == 0; }));
  // Late completion: safe no-op.
  {
    std::lock_guard<std::mutex> lock(mu);
    parked.front()(HttpResponse{200, "text/plain", "too late"});
    parked.clear();
  }
  server.Stop();
}

TEST(HttpServerTest, AsyncHandlerCompletesFromAnotherThread) {
  // Responses posted from a foreign thread reach the right connection,
  // and the poller is never blocked while the "compute" runs.
  HttpServer server([](const HttpRequest& request, HttpServer::Done done) {
    std::thread([path = request.path, done = std::move(done)] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      done(HttpResponse{200, "text/plain", "deferred:" + path});
    }).detach();
  });
  int port = server.Start(0).value();
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::string path = "/job" + std::to_string(c);
      std::string response = FetchOnce(port, "GET " + path + " HTTP/1.1");
      if (response.find("deferred:" + path) == std::string::npos) ++failures;
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
}

// ------------------------------------------- connection lifecycle / limits

TEST(HttpServerTest, MalformedContentLengthRejected400) {
  std::atomic<int> handled{0};
  HttpServer server([&](const HttpRequest&) {
    ++handled;
    return HttpResponse{200, "text/plain", "should not run"};
  });
  int port = server.Start(0).value();
  const char* bad_lengths[] = {"abc", "-1", "18446744073709551616", "1 2",
                               "0x10"};
  for (const char* bad : bad_lengths) {
    int fd = ConnectRaw(port);
    ASSERT_GE(fd, 0);
    std::string request = std::string("POST /u HTTP/1.1\r\nHost: x\r\n") +
                          "Content-Length: " + bad + "\r\n\r\nhello";
    ASSERT_EQ(::write(fd, request.data(), request.size()),
              static_cast<ssize_t>(request.size()));
    std::string response = ReadToEof(fd);
    ::close(fd);
    EXPECT_NE(response.find("400"), std::string::npos) << bad;
    EXPECT_NE(response.find("Content-Length"), std::string::npos) << bad;
  }
  // The old strtoull parsed all of these as 0 and re-read "hello" as the
  // next pipelined request; none of them may reach the handler.
  EXPECT_EQ(handled.load(), 0);
  EXPECT_EQ(server.Stats().protocol_errors,
            sizeof(bad_lengths) / sizeof(bad_lengths[0]));
  server.Stop();
}

TEST(HttpServerTest, ConflictingDuplicateContentLengthRejected400) {
  std::atomic<int> handled{0};
  HttpServer server([&](const HttpRequest&) {
    ++handled;
    return HttpResponse{200, "text/plain", "should not run"};
  });
  int port = server.Start(0).value();
  int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0);
  // Request-smuggling shape: two framings for one body.
  std::string request =
      "POST /u HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n"
      "Content-Length: 6\r\n\r\nhello!";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response = ReadToEof(fd);
  ::close(fd);
  EXPECT_NE(response.find("400"), std::string::npos);
  EXPECT_EQ(handled.load(), 0);
  server.Stop();
}

TEST(HttpServerTest, IdleConnectionReapedByDeadline) {
  HttpServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(100);
  HttpServer server([](const HttpRequest&) { return HttpResponse{}; },
                    options);
  int port = server.Start(0).value();
  int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(PollUntil([&] { return server.Stats().open_connections == 1; }));
  // Send nothing at all: the server must actively close within the
  // deadline instead of holding the fd forever.
  EXPECT_TRUE(PollUntil([&] { return server.Stats().open_connections == 0; }));
  EXPECT_EQ(server.Stats().idle_closes, 1u);
  char buf[16];
  EXPECT_EQ(::read(fd, buf, sizeof(buf)), 0);  // clean EOF, not a hang
  ::close(fd);
  server.Stop();
}

TEST(HttpServerTest, SlowLorisDripIsReapedOnSchedule) {
  HttpServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(150);
  HttpServer server([](const HttpRequest&) { return HttpResponse{}; },
                    options);
  int port = server.Start(0).value();
  int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0);
  const char head[] = "GET /x HTTP/1.1\r\nX-Drip: ";
  ASSERT_GT(::send(fd, head, sizeof(head) - 1, MSG_NOSIGNAL), 0);
  ASSERT_TRUE(PollUntil([&] { return server.Stats().open_connections == 1; }));
  // Keep dripping one byte every 30 ms: the idle clock is armed at
  // accept and NOT reset by partial bytes, so the drip does not extend
  // the connection's life. 20 drips = 600 ms >> the 150 ms deadline.
  bool reaped = false;
  for (int i = 0; i < 20 && !reaped; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ::send(fd, "a", 1, MSG_NOSIGNAL);  // may fail once reaped: fine
    reaped = server.Stats().open_connections == 0;
  }
  EXPECT_TRUE(PollUntil([&] { return server.Stats().open_connections == 0; }));
  EXPECT_GE(server.Stats().idle_closes, 1u);
  ::close(fd);
  server.Stop();
}

TEST(HttpServerTest, ActiveKeepAliveConnectionOutlivesIdleDeadline) {
  HttpServerOptions options;
  // Generous margin between the gap (200 ms) and the deadline (600 ms):
  // the property under test is the re-arm, not scheduler jitter.
  options.idle_timeout = std::chrono::milliseconds(600);
  HttpServer server([](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", "echo:" + request.path};
  }, options);
  int port = server.Start(0).value();
  HttpClient client;
  ASSERT_TRUE(client.Connect(port).ok());
  // Each completed request re-arms the idle window, so a connection
  // active for 4 x 200 ms > 600 ms total stays alive throughout...
  for (int i = 0; i < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    auto r = client.Fetch("GET", "/tick");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200);
  }
  EXPECT_EQ(server.Stats().connections_accepted, 1u);
  // ...and once the client goes quiet, the deadline reaps it.
  EXPECT_TRUE(PollUntil([&] { return server.Stats().open_connections == 0; }));
  EXPECT_EQ(server.Stats().idle_closes, 1u);
  client.Close();
  server.Stop();
}

TEST(HttpServerTest, IdleConnectionReapedWhileAnotherStaysBusy) {
  HttpServerOptions options;
  options.num_pollers = 1;  // both connections share one poller's timers
  options.idle_timeout = std::chrono::milliseconds(150);
  HttpServer server([](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", "echo:" + request.path};
  }, options);
  int port = server.Start(0).value();
  int silent = ConnectRaw(port);
  ASSERT_GE(silent, 0);
  ASSERT_TRUE(PollUntil([&] { return server.Stats().open_connections == 1; }));
  HttpClient busy;
  ASSERT_TRUE(busy.Connect(port).ok());
  // The busy connection re-arms its idle window with every request, far
  // more often than the silent one's deadline comes due. No re-arm may
  // hide that earlier deadline: the silent connection is reaped while
  // the busy one is still being served, and only it is reaped.
  const auto start = std::chrono::steady_clock::now();
  bool reaped_while_busy = false;
  while (std::chrono::steady_clock::now() - start <
         3 * options.idle_timeout) {
    auto r = busy.Fetch("GET", "/tick");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200);
    if (server.Stats().idle_closes == 1) reaped_while_busy = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(reaped_while_busy);
  EXPECT_EQ(server.Stats().idle_closes, 1u);
  EXPECT_EQ(server.Stats().open_connections, 1u);
  // A reaped busy connection would show up as a transparent reconnect.
  EXPECT_EQ(server.Stats().connections_accepted, 2u);
  char buf[16];
  EXPECT_EQ(::read(silent, buf, sizeof(buf)), 0);  // clean EOF
  ::close(silent);
  busy.Close();
  server.Stop();
}

TEST(HttpServerTest, ConnectionCapShedsWith503) {
  HttpServerOptions options;
  options.max_connections = 2;
  HttpServer server([](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", "echo:" + request.path};
  }, options);
  int port = server.Start(0).value();
  // Two keep-alive connections fill the cap (the fetches guarantee both
  // were actually accepted, not just SYN-queued).
  HttpClient a, b;
  ASSERT_TRUE(a.Connect(port).ok());
  ASSERT_TRUE(b.Connect(port).ok());
  ASSERT_TRUE(a.Fetch("GET", "/a").ok());
  ASSERT_TRUE(b.Fetch("GET", "/b").ok());
  EXPECT_EQ(server.Stats().open_connections, 2u);
  // The third connection is shed at accept: inline 503 + close, no fd
  // held, no silent leak.
  int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0);
  std::string response = ReadToEof(fd);
  ::close(fd);
  EXPECT_NE(response.find("503"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_NE(response.find("Retry-After"), std::string::npos);
  EXPECT_EQ(server.Stats().connections_shed, 1u);
  EXPECT_EQ(server.Stats().open_connections, 2u);
  // The capped-out server still serves its existing connections.
  auto again = a.Fetch("GET", "/again");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->body, "echo:/again");
  // Capacity freed -> new connections are accepted again.
  a.Close();
  EXPECT_TRUE(PollUntil([&] { return server.Stats().open_connections == 1; }));
  HttpClient c;
  ASSERT_TRUE(c.Connect(port).ok());
  auto ok = c.Fetch("GET", "/c");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->status, 200);
  b.Close();
  c.Close();
  server.Stop();
}

TEST(HttpServerTest, IdleReapFreesConnectionCap) {
  HttpServerOptions options;
  options.max_connections = 4;
  // Long enough that the probe below meets a full cap on a slow runner,
  // short enough that the reap lands well inside PollUntil's budget.
  options.idle_timeout = std::chrono::milliseconds(500);
  HttpServer server([](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", "echo:" + request.path};
  }, options);
  int port = server.Start(0).value();
  // A slow-loris pack fills the cap: each connection parks a partial
  // header and never sends another byte.
  std::vector<int> pack;
  for (int i = 0; i < 4; ++i) {
    int fd = ConnectRaw(port);
    ASSERT_GE(fd, 0);
    const char head[] = "GET /loris HTTP/1.1\r\nX-Drip: a";
    ASSERT_GT(::send(fd, head, sizeof(head) - 1, MSG_NOSIGNAL), 0);
    pack.push_back(fd);
  }
  ASSERT_TRUE(PollUntil([&] { return server.Stats().open_connections == 4; }));
  // While the pack holds every slot, a fifth connect is shed with 503.
  int probe = ConnectRaw(port);
  ASSERT_GE(probe, 0);
  std::string shed = ReadToEof(probe);
  ::close(probe);
  EXPECT_NE(shed.find("503"), std::string::npos);
  EXPECT_EQ(server.Stats().connections_shed, 1u);
  // The idle deadline reaps the whole pack...
  EXPECT_TRUE(PollUntil([&] { return server.Stats().open_connections == 0; }));
  EXPECT_GE(server.Stats().idle_closes, 4u);
  for (int fd : pack) ::close(fd);
  // ...and the freed slots admit a fresh client.
  std::string fresh = FetchOnce(port, "GET /fresh HTTP/1.1");
  EXPECT_NE(fresh.find("200 OK"), std::string::npos);
  EXPECT_NE(fresh.find("echo:/fresh"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, StopDrainsInFlightRequestBeforeClosing) {
  // An async handler parks the completion; Stop() must wait for it (up
  // to the 5 s drain budget) and still deliver the response, instead of
  // cutting the connection with the request half-served.
  std::mutex mu;
  std::vector<HttpServer::Done> parked;
  HttpServer server([&](const HttpRequest&, HttpServer::Done done) {
    std::lock_guard<std::mutex> lock(mu);
    parked.push_back(std::move(done));
  });
  int port = server.Start(0).value();
  int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0);
  std::string request = "GET /work HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  ASSERT_TRUE(PollUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return parked.size() == 1;
  }));
  std::thread stopper([&] { server.Stop(); });
  // "Compute" finishes mid-drain, from a foreign thread.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(server.running());
  {
    std::lock_guard<std::mutex> lock(mu);
    parked.front()(HttpResponse{200, "text/plain", "drained-result"});
    parked.clear();
  }
  stopper.join();
  std::string response = ReadToEof(fd);
  ::close(fd);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("drained-result"), std::string::npos);
  // The drain forced the connection closed behind the response.
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
}

TEST(HttpServerTest, StopClosesIdleConnectionsWithoutWaitingForDrain) {
  HttpServer server([](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", "echo:" + request.path};
  });
  int port = server.Start(0).value();
  HttpClient client;
  ASSERT_TRUE(client.Connect(port).ok());
  ASSERT_TRUE(client.Fetch("GET", "/x").ok());
  // The keep-alive connection is idle; Stop() must shed it immediately,
  // not consume the (default 5 s) drain budget.
  auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_EQ(server.Stats().open_connections, 0u);
  client.Close();
}

TEST(HttpServerTest, StopCutsInFlightRequestAtDrainBudget) {
  // The handler never completes while the server runs: Stop() waits out
  // the 5 s drain budget, then cuts the connection without a response.
  // The completion that finally arrives after the server is destroyed
  // must be a no-op.
  HttpServerOptions options;
  options.handler_timeout = std::chrono::milliseconds(0);
  std::mutex mu;
  HttpServer::Done parked;
  auto server = std::make_unique<HttpServer>(
      [&](const HttpRequest&, HttpServer::Done done) {
        std::lock_guard<std::mutex> lock(mu);
        parked = std::move(done);
      },
      options);
  int port = server->Start(0).value();
  int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0);
  std::string request = "GET /work HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  ASSERT_TRUE(PollUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return parked != nullptr;
  }));
  auto t0 = std::chrono::steady_clock::now();
  server->Stop();
  auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, std::chrono::seconds(5));
  EXPECT_LT(elapsed, std::chrono::seconds(7));
  std::string response = ReadToEof(fd);
  ::close(fd);
  EXPECT_EQ(response.find("200"), std::string::npos);
  EXPECT_EQ(server->Stats().open_connections, 0u);
  server.reset();
  HttpServer::Done late;
  {
    std::lock_guard<std::mutex> lock(mu);
    late = std::move(parked);
  }
  late(HttpResponse{200, "text/plain", "too-late"});
}

TEST(HttpServerTest, ShedClientStreamingDoesNotStallKeptAliveConnection) {
  // One poller and a cap of one, so the shed runs on the thread that
  // serves the kept-alive connection. The shed client streams without
  // pause; discarding its input is bounded, so the poller moves on.
  HttpServerOptions options;
  options.num_pollers = 1;
  options.max_connections = 1;
  HttpServer server([](const HttpRequest& request) {
    // Holds the poller while the shed client connects and fills its
    // socket buffer, so the shed overlaps the stream.
    if (request.path == "/slow") {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    return HttpResponse{200, "text/plain", "echo:" + request.path};
  }, options);
  int port = server.Start(0).value();
  HttpClient kept;
  ASSERT_TRUE(kept.Connect(port).ok());
  ASSERT_TRUE(kept.Fetch("GET", "/first").ok());
  auto slow = std::async(std::launch::async,
                         [&] { return kept.Fetch("GET", "/slow"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0);
  std::atomic<bool> stop{false};
  std::thread streamer([&] {
    std::string chunk(256 * 1024, 'x');
    while (!stop.load() &&
           ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL) > 0) {
    }
  });
  // No ASSERT until the streamer is joined.
  bool slow_ok = slow.get().ok();
  auto next = std::async(std::launch::async,
                         [&] { return kept.Fetch("GET", "/next"); });
  bool answered = next.wait_for(std::chrono::seconds(1)) ==
                  std::future_status::ready;
  stop.store(true);
  auto response = next.get();
  streamer.join();
  ::close(fd);
  EXPECT_TRUE(slow_ok);
  EXPECT_TRUE(answered);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body, "echo:/next");
  EXPECT_EQ(server.Stats().connections_shed, 1u);
  server.Stop();
}

TEST(HttpServerTest, ExtraResponseHeadersRendered) {
  HttpServer server([](const HttpRequest&) {
    HttpResponse response{429, "text/plain", "slow down"};
    response.headers["Retry-After"] = "7";
    return response;
  });
  int port = server.Start(0).value();
  std::string response = FetchOnce(port, "GET /x HTTP/1.1");
  EXPECT_NE(response.find("429 Too Many Requests"), std::string::npos);
  EXPECT_NE(response.find("Retry-After: 7"), std::string::npos);
  EXPECT_NE(response.find("slow down"), std::string::npos);
  server.Stop();
}

// ----------------------------------------------------- handler deadlines

TEST(HttpServerTest, WedgedHandlerReapedWith503WhileOthersServe) {
  // A handler that never completes /wedge: the per-poller deadline heap
  // must answer 503 within handler_timeout and close the connection,
  // while every other connection keeps being served throughout.
  std::mutex mu;
  std::vector<HttpServer::Done> parked;
  HttpServerOptions options;
  options.handler_timeout = std::chrono::milliseconds(200);
  HttpServer server(
      [&](const HttpRequest& request, HttpServer::Done done) {
        if (request.path == "/wedge") {
          std::lock_guard<std::mutex> lock(mu);
          parked.push_back(std::move(done));
          return;
        }
        done(HttpResponse{200, "text/plain", "echo:" + request.path});
      },
      options);
  int port = server.Start(0).value();
  int wedged = ConnectRaw(port);
  ASSERT_GE(wedged, 0);
  const std::string request = "GET /wedge HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::write(wedged, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  ASSERT_TRUE(PollUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return parked.size() == 1;
  }));
  // While the wedge is pending, healthy traffic flows.
  std::string other = FetchOnce(port, "GET /ok HTTP/1.1");
  EXPECT_NE(other.find("echo:/ok"), std::string::npos);
  // The wedged client gets its 503 + close within the deadline (the
  // ReadToEof return bounds the reap: EOF only after the server closes).
  auto t0 = std::chrono::steady_clock::now();
  std::string response = ReadToEof(wedged);
  auto elapsed = std::chrono::steady_clock::now() - t0;
  ::close(wedged);
  EXPECT_NE(response.find("503"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_NE(response.find("deadline"), std::string::npos);
  EXPECT_LT(elapsed, std::chrono::milliseconds(1200));
  EXPECT_EQ(server.Stats().deadline_closes, 1u);
  EXPECT_TRUE(PollUntil([&] { return server.Stats().open_connections == 0; }));
  // ...and the server was never blocked on the corpse.
  std::string after = FetchOnce(port, "GET /after HTTP/1.1");
  EXPECT_NE(after.find("echo:/after"), std::string::npos);
  // Late completion long after the reap: a safe no-op.
  {
    std::lock_guard<std::mutex> lock(mu);
    parked.front()(HttpResponse{200, "text/plain", "too late"});
    parked.clear();
  }
  std::string still = FetchOnce(port, "GET /still HTTP/1.1");
  EXPECT_NE(still.find("echo:/still"), std::string::npos);
  EXPECT_EQ(server.Stats().deadline_closes, 1u);
  server.Stop();
}

TEST(HttpServerTest, HandlerTimeoutZeroDisablesReaping) {
  std::mutex mu;
  std::vector<HttpServer::Done> parked;
  HttpServerOptions options;
  options.handler_timeout = std::chrono::milliseconds(0);  // disabled
  options.idle_timeout = std::chrono::seconds(30);  // not under test
  HttpServer server(
      [&](const HttpRequest&, HttpServer::Done done) {
        std::lock_guard<std::mutex> lock(mu);
        parked.push_back(std::move(done));
      },
      options);
  int port = server.Start(0).value();
  int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0);
  const std::string request = "GET /slow HTTP/1.1\r\nHost: x\r\n"
                              "Connection: close\r\n\r\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  ASSERT_TRUE(PollUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return parked.size() == 1;
  }));
  // Longer than any small deadline: with the timeout off, nothing reaps.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(server.Stats().deadline_closes, 0u);
  EXPECT_EQ(server.Stats().open_connections, 1u);
  {
    std::lock_guard<std::mutex> lock(mu);
    parked.front()(HttpResponse{200, "text/plain", "worth the wait"});
    parked.clear();
  }
  std::string response = ReadToEof(fd);
  ::close(fd);
  EXPECT_NE(response.find("worth the wait"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, SynchronousHandlersUnaffectedByHandlerTimeout) {
  // Fast requests under a tight deadline: completions disarm the timer,
  // so keep-alive traffic never trips it.
  HttpServerOptions options;
  options.handler_timeout = std::chrono::milliseconds(100);
  HttpServer server([](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", "echo:" + request.path};
  }, options);
  int port = server.Start(0).value();
  HttpClient client;
  ASSERT_TRUE(client.Connect(port).ok());
  for (int i = 0; i < 4; ++i) {
    auto r = client.Fetch("GET", "/tick" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200);
    // Dwell past the handler deadline between requests: idle time
    // between requests must not count against the next handler.
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  EXPECT_EQ(server.Stats().deadline_closes, 0u);
  client.Close();
  server.Stop();
}

// --------------------------------------------------------- RePagerService

class ServiceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::WorkbenchOptions options;
    options.corpus.hierarchy.areas_per_domain = 2;
    options.corpus.hierarchy.topics_per_area = 2;
    options.corpus.papers_per_topic = 50;
    options.corpus.papers_per_area = 15;
    options.corpus.papers_per_domain = 10;
    options.corpus.num_surveys = 40;
    options.corpus.seed = 55;
    wb_ = eval::Workbench::Create(options).value().release();
    serve::ServeEngineOptions serve_options;
    serve_options.num_threads = 2;
    engine_ = new serve::ServeEngine(serve::TestEpoch(*wb_), serve_options);
    service_ = new RePagerService(engine_);
  }
  static void TearDownTestSuite() {
    delete service_;
    delete engine_;
    delete wb_;
  }
  static const eval::Workbench* wb_;
  static serve::ServeEngine* engine_;
  static RePagerService* service_;
};

const eval::Workbench* ServiceFixture::wb_ = nullptr;
serve::ServeEngine* ServiceFixture::engine_ = nullptr;
RePagerService* ServiceFixture::service_ = nullptr;

TEST_F(ServiceFixture, IndexPageServed) {
  HttpRequest request{"GET", "/", {}};
  HttpResponse response = service_->Handle(request);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("RePaGer"), std::string::npos);
  EXPECT_NE(response.content_type.find("text/html"), std::string::npos);
}

TEST_F(ServiceFixture, PathApiReturnsJson) {
  const auto& entry = wb_->bank().Get(0);
  HttpRequest request{"GET", "/api/path", {{"q", entry.query}}};
  HttpResponse response = service_->Handle(request);
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.body.find("\"nodes\":["), std::string::npos);
  EXPECT_NE(response.body.find("\"read_first\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"reading_order\":["), std::string::npos);
  EXPECT_NE(response.body.find("\"from_engine\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"cache_hit\":"), std::string::npos);
}

TEST_F(ServiceFixture, RepeatedQueryIsCacheHit) {
  const auto& entry = wb_->bank().Get(1);
  HttpRequest request{"GET", "/api/path", {{"q", entry.query}}};
  HttpResponse first = service_->Handle(request);
  ASSERT_EQ(first.status, 200) << first.body;
  HttpResponse second = service_->Handle(request);
  ASSERT_EQ(second.status, 200);
  EXPECT_NE(second.body.find("\"cache_hit\":true"), std::string::npos);
  // Identical payload apart from the serving metadata: same nodes/edges.
  auto strip = [](std::string s) {
    size_t a = s.find("\"nodes\":");
    return s.substr(a);
  };
  EXPECT_EQ(strip(first.body), strip(second.body));
}

TEST_F(ServiceFixture, StatsEndpointReportsLiveCounters) {
  HttpRequest request{"GET", "/api/stats", {}};
  HttpResponse response = service_->Handle(request);
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"cache\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"batcher\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"requests_total\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"e2e_ms\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"negative_entries\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"inflight_requests\":"), std::string::npos);
  // Overload-control instruments (batcher queue bound + shed counter).
  EXPECT_NE(response.body.find("\"queue_depth\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"max_queue_depth\":"), std::string::npos);
  const std::string rejected_key = "\"rejected_overload\":";
  const size_t shed = response.body.find(rejected_key);
  ASSERT_NE(shed, std::string::npos);
  EXPECT_NE(response.body.find("\"ewma_item_seconds\":"), std::string::npos);
  // The shed count's one home is the pool's rejected_overload; /metrics
  // renders it as rpg_shed_total.
  const std::string count = std::to_string(
      std::stoull(response.body.substr(shed + rejected_key.size())));
  HttpResponse metrics = service_->Handle({"GET", "/metrics", {}});
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("\nrpg_shed_total " + count + "\n"),
            std::string::npos);
}

TEST_F(ServiceFixture, CacheClearEndpoint) {
  const auto& entry = wb_->bank().Get(0);
  service_->Handle({"GET", "/api/path", {{"q", entry.query}}});
  HttpRequest clear{"POST", "/api/cache/clear", {}};
  HttpResponse response = service_->Handle(clear);
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"cleared\":true"), std::string::npos);
  EXPECT_EQ(engine_->cache().Stats().entries, 0u);
}

TEST_F(ServiceFixture, MissingQueryParameterIs400) {
  HttpRequest request{"GET", "/api/path", {}};
  EXPECT_EQ(service_->Handle(request).status, 400);
}

TEST_F(ServiceFixture, MalformedSeedsParameterIs400) {
  // atoi silently turned all of these into 0 (pipeline default) or a
  // negative seed count; each must now be an explicit client error.
  for (const char* bad : {"abc", "-5", "0", "1001", "", "3x", " 7"}) {
    HttpRequest request{"GET", "/api/path", {{"q", "x"}, {"seeds", bad}}};
    HttpResponse response = service_->Handle(request);
    EXPECT_EQ(response.status, 400) << "seeds=" << bad;
    EXPECT_NE(response.body.find("seeds"), std::string::npos) << bad;
  }
}

TEST_F(ServiceFixture, MalformedYearParameterIs400) {
  for (const char* bad : {"abc", "-2020", "99999", "20x0", "999", "2101"}) {
    HttpRequest request{"GET", "/api/path", {{"q", "x"}, {"year", bad}}};
    HttpResponse response = service_->Handle(request);
    EXPECT_EQ(response.status, 400) << "year=" << bad;
    EXPECT_NE(response.body.find("year"), std::string::npos) << bad;
  }
}

TEST_F(ServiceFixture, InRangeSeedsAndYearStillServe) {
  const auto& entry = wb_->bank().Get(0);
  HttpRequest request{"GET",
                      "/api/path",
                      {{"q", entry.query},
                       {"seeds", "25"},
                       {"year", std::to_string(entry.year)}}};
  HttpResponse response = service_->Handle(request);
  EXPECT_EQ(response.status, 200) << response.body;
}

TEST_F(ServiceFixture, UnknownRouteIs404) {
  HttpRequest request{"GET", "/nope", {}};
  EXPECT_EQ(service_->Handle(request).status, 404);
}

TEST_F(ServiceFixture, WrongMethodRejected) {
  HttpRequest post_path{"POST", "/api/path", {{"q", "x"}}};
  EXPECT_EQ(service_->Handle(post_path).status, 405);
  HttpRequest put{"PUT", "/api/path", {{"q", "x"}}};
  EXPECT_EQ(service_->Handle(put).status, 405);
  HttpRequest post_unknown{"POST", "/nope", {}};
  EXPECT_EQ(service_->Handle(post_unknown).status, 404);
}

TEST_F(ServiceFixture, HopelessQueryIsClientVisibleError) {
  HttpRequest request{"GET", "/api/path", {{"q", "zzzz qqqq wwww"}}};
  HttpResponse response = service_->Handle(request);
  EXPECT_EQ(response.status, 404);
  EXPECT_NE(response.body.find("error"), std::string::npos);
  // Second hit of the hopeless query is a negative cache hit — same
  // client-visible error, no recompute.
  HttpResponse again = service_->Handle(request);
  EXPECT_EQ(again.status, 404);
  EXPECT_GE(engine_->cache().Stats().negative_hits, 1u);
}

TEST_F(ServiceFixture, EndToEndOverSocket) {
  HttpServer server(
      [&](const HttpRequest& request, HttpServer::Done done) {
        service_->HandleAsync(request, std::move(done));
      });
  service_->AttachServer(&server);
  int port = server.Start(0).value();
  const auto& entry = wb_->bank().Get(0);
  std::string q;
  for (char c : entry.query) q += (c == ' ') ? '+' : c;
  HttpClient client;
  ASSERT_TRUE(client.Connect(port).ok());
  auto path = client.Fetch("GET", "/api/path?q=" + q);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_EQ(path->status, 200);
  EXPECT_NE(path->body.find("reading_order"), std::string::npos);
  // Same connection: stats (with the reactor's http section), then
  // cache clear via POST.
  auto stats = client.Fetch("GET", "/api/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, 200);
  EXPECT_NE(stats->body.find("\"http\":"), std::string::npos);
  EXPECT_NE(stats->body.find("\"open_connections\":1"), std::string::npos);
  // Lifecycle gauges ride along: the connection cap next to the open
  // count, plus the shed/reap counters.
  EXPECT_NE(stats->body.find("\"max_connections\":"), std::string::npos);
  EXPECT_NE(stats->body.find("\"connections_shed\":"), std::string::npos);
  EXPECT_NE(stats->body.find("\"idle_closes\":"), std::string::npos);
  EXPECT_NE(stats->body.find("\"timeout_closes\":"), std::string::npos);
  EXPECT_NE(stats->body.find("\"deadline_closes\":"), std::string::npos);
  auto clear = client.Fetch("POST", "/api/cache/clear");
  ASSERT_TRUE(clear.ok());
  EXPECT_EQ(clear->status, 200);
  EXPECT_NE(clear->body.find("\"cleared\":true"), std::string::npos);
  client.Close();
  server.Stop();
  service_->AttachServer(nullptr);
}

TEST_F(ServiceFixture, StatsGaugeTracksDisconnects) {
  HttpServer server(
      [&](const HttpRequest& request, HttpServer::Done done) {
        service_->HandleAsync(request, std::move(done));
      });
  service_->AttachServer(&server);
  int port = server.Start(0).value();
  // Open a few keep-alive connections, then sever them abruptly; the
  // /api/stats open-connection gauge (read over a fresh connection)
  // must fall back to 1 — just the probe itself. This is the
  // fd-leak assertion of docs/serving.md.
  std::vector<int> fds;
  for (int i = 0; i < 3; ++i) {
    int fd = ConnectRaw(port);
    ASSERT_GE(fd, 0);
    std::string request = "GET /api/stats HTTP/1.1\r\nHost: x\r\n\r\n";
    ASSERT_EQ(::write(fd, request.data(), request.size()),
              static_cast<ssize_t>(request.size()));
    char buf[256];
    ASSERT_GT(::read(fd, buf, sizeof(buf)), 0);  // server saw us
    fds.push_back(fd);
  }
  for (int fd : fds) ::close(fd);
  auto gauge = [&]() -> long {
    HttpClient probe;
    if (!probe.Connect(port).ok()) return -1;
    auto r = probe.Fetch("GET", "/api/stats", /*close_connection=*/true);
    if (!r.ok()) return -1;
    size_t at = r->body.find("\"open_connections\":");
    if (at == std::string::npos) return -1;
    return std::atol(r->body.c_str() + at + std::strlen("\"open_connections\":"));
  };
  EXPECT_TRUE(PollUntil([&] { return gauge() == 1; }));
  server.Stop();
  service_->AttachServer(nullptr);
}

}  // namespace
}  // namespace rpg::ui
