#ifndef RPG_UI_HTTP_SERVER_H_
#define RPG_UI_HTTP_SERVER_H_

/// \file
/// Event-driven HTTP/1.1 front end for the RePaGer serving layer
/// (docs/serving.md, "Threading model"). The server is an epoll-based
/// reactor: a small fixed pool of poller threads multiplexes every
/// connection with non-blocking accept/read/write and a per-connection
/// state machine, so the number of concurrent keep-alive connections is
/// bounded by file descriptors, not by threads. Handlers are
/// asynchronous — a poller thread hands the parsed request to the
/// handler together with a completion callback and immediately returns
/// to its event loop; compute (RePaGer::Generate via
/// serve::ServeEngine) finishes on whatever thread it runs on and posts
/// the response back to the connection's poller. Poller threads never
/// block on a solve.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/trace.h"

namespace rpg::ui {

/// A parsed HTTP request (the subset the RePaGer serving layer needs).
struct HttpRequest {
  std::string method;  ///< "GET", "POST", ...
  std::string path;    ///< path without the query string
  std::map<std::string, std::string> query;  ///< decoded query parameters
  std::string version = "HTTP/1.1";          ///< "HTTP/1.0" or "HTTP/1.1"
  /// Header fields with lower-cased names ("connection", "content-length").
  std::map<std::string, std::string> headers;
  std::string body;  ///< present when Content-Length said so
  /// Request trace, created by the reactor at dispatch when tracing is
  /// enabled (null otherwise — framing-level parses never carry one).
  /// Downstream layers record spans into it along the request's causal
  /// chain; the reactor emits the slow-query log from it at completion.
  std::shared_ptr<obs::TraceContext> trace;
};

/// A response to send.
struct HttpResponse {
  HttpResponse() = default;
  HttpResponse(int status_in, std::string content_type_in,
               std::string body_in,
               std::map<std::string, std::string> headers_in = {})
      : status(status_in),
        content_type(std::move(content_type_in)),
        body(std::move(body_in)),
        headers(std::move(headers_in)) {}

  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra response headers ("Retry-After" on 429s). Must not repeat the
  /// framing headers the server writes itself (Content-Type,
  /// Content-Length, Connection).
  std::map<std::string, std::string> headers;
};

/// Parses the request line of an HTTP/1.1 request ("GET /search?q=x
/// HTTP/1.1"). Returns InvalidArgument on malformed input. Exposed for
/// unit tests.
Result<HttpRequest> ParseRequestLine(const std::string& line);

/// Parses "Name: value" header lines (one per \r\n) into `headers` with
/// lower-cased names and trimmed values. Malformed lines are skipped.
/// Exposed for unit tests.
void ParseHeaderLines(const std::string& header_block,
                      std::map<std::string, std::string>* headers);

/// Percent-decodes a URL component ("hate%20speech+detection" ->
/// "hate speech detection"; '+' means space in query strings).
std::string UrlDecode(const std::string& s);

/// Strict Content-Length parse: ASCII digits only — no sign, whitespace,
/// or trailing garbage — and the value must fit uint64 without
/// overflowing. Returns false on anything else ("abc", "-1", "1 2",
/// "18446744073709551616"), which the server answers with 400 instead of
/// silently reading 0 and misframing the connection. Exposed for unit
/// tests.
bool ParseContentLength(const std::string& value, size_t* out);

/// Size ceilings the request-framing layer enforces. A header block over
/// `max_header_bytes` is answered 431, a declared Content-Length over
/// `max_body_bytes` 413; both close the connection after draining it.
/// The server always frames with the defaults; tests and fuzz harnesses
/// pass smaller ceilings.
struct FramingLimits {
  size_t max_header_bytes = 64 * 1024;
  size_t max_body_bytes = 1024 * 1024;
  /// One maximal buffered request: header block + "\r\n\r\n" + body.
  constexpr size_t MaxBufferedBytes() const {
    return max_header_bytes + 4 + max_body_bytes;
  }
};

/// Outcome of framing one request out of a raw byte buffer.
struct FrameResult {
  enum class Verdict {
    kNeedMore,  ///< incomplete: read more bytes
    kRequest,   ///< one complete request parsed; `consumed` bytes used
    kError,     ///< protocol error: answer `error_status`, then close
    kClose,     ///< peer EOF with nothing answerable: just close
  };
  Verdict verdict = Verdict::kNeedMore;
  HttpRequest request;     ///< valid when kRequest
  size_t consumed = 0;     ///< bytes of `in` the request used (kRequest)
  bool keep_alive = true;  ///< header-derived persistence (kRequest)
  int error_status = 0;    ///< 400/413/431 when kError
  std::string error_message;
};

/// Frames at most one complete HTTP/1.1 request out of `in` — the exact
/// logic the reactor runs per connection (header/body ceilings, strict
/// Content-Length, keep-alive negotiation), extracted behind a
/// socket-free seam so the fuzz harnesses and unit tests can drive the
/// request state machine with arbitrary byte streams. `peer_eof` is
/// whether the client half-closed after these bytes.
FrameResult FrameOneRequest(const std::string& in, bool peer_eof,
                            const FramingLimits& limits);

struct HttpServerOptions {
  /// Poller (reactor) threads. Each owns one epoll instance; the listen
  /// socket is registered with EPOLLEXCLUSIVE in every poller, so the
  /// kernel spreads incoming connections without a dedicated acceptor.
  /// <= 0 means 2.
  int num_pollers = 2;
  /// Idle deadline (docs/serving.md "Operational limits"): bounds how
  /// long a connection may sit in kReading without completing a request.
  /// It is armed at accept and re-armed only when a response finishes,
  /// never by partial bytes, so a slow-loris dripping header fragments is
  /// reaped on schedule, not kept alive by its own drip. Expired idle
  /// connections get a clean close. <= 0 disables.
  std::chrono::milliseconds idle_timeout{60'000};
  /// Deadline for a request in kHandling: if the handler (or the compute
  /// it dispatched) has not completed within this budget, the server
  /// answers `503` + `Connection: close` itself and the late completion
  /// is dropped by the (conn id, seq) guard. This is the serving stack's
  /// one request deadline, the backstop against a wedged solve pinning
  /// its connection forever. The solver pool's queue bound already limits
  /// a request's queue wait to about max_queue_depth × solve time /
  /// solvers. <= 0 disables.
  std::chrono::milliseconds handler_timeout{30'000};
  /// Open-connection cap across all pollers. A connection accepted at
  /// the cap is shed with an inline `503 Connection: close` (plus
  /// Retry-After) instead of silently consuming an fd. The check is a
  /// relaxed read, so a burst across pollers can briefly overshoot by
  /// num_pollers - 1. 0 = unlimited.
  size_t max_connections = 1024;
  /// Requests whose handler completion takes at least this long get one
  /// structured slow-query log line (JSON: request id, canonical query
  /// key, total ms, per-span breakdown — see docs/observability.md).
  /// Only requests carrying a trace are logged. <= 0 disables.
  std::chrono::milliseconds slow_query_threshold{250};
};

/// Point-in-time reactor counters (relaxed atomics — freshness, not a
/// consistent snapshot). `open_connections` is the live gauge the
/// fd-leak tests and `/api/stats` assert on.
struct HttpServerStats {
  uint64_t open_connections = 0;
  /// Echo of HttpServerOptions::max_connections, so /api/stats can show
  /// open connections against their cap without a second plumbing path.
  uint64_t max_connections = 0;
  uint64_t connections_accepted = 0;
  uint64_t requests_handled = 0;
  uint64_t responses_sent = 0;
  /// 400/413/431 replies produced by the server itself (handler never ran).
  uint64_t protocol_errors = 0;
  /// Connections refused at accept with a 503 because the cap was hit.
  uint64_t connections_shed = 0;
  /// Connections reaped by the idle deadline (slow-loris included).
  uint64_t idle_closes = 0;
  /// Connections cut by the write/drain progress deadline.
  uint64_t timeout_closes = 0;
  /// Requests answered 503 by the handler deadline (kHandling exceeded
  /// `handler_timeout`; the connection closes behind the 503).
  uint64_t deadline_closes = 0;
};

/// Epoll-based HTTP/1.1 server for the RePaGer serving layer (§V +
/// docs/serving.md).
///
/// Connection handling: HTTP/1.1 connections are persistent by default
/// (the serving benchmark reuses them across requests); `Connection:
/// close` — or any HTTP/1.0 request without `Connection: keep-alive` —
/// reverts to one-shot. Request bodies are read when Content-Length is
/// present (POST endpoints). Requests on one connection are processed
/// strictly in order (pipelined bytes wait until the previous response
/// is flushed). Partial reads and partial writes are resumed by the
/// event loop, so slow clients cost a connection slot, not a thread.
class HttpServer {
 public:
  /// Completion callback handed to an AsyncHandler. Thread-safe, may be
  /// invoked from any thread, exactly once; invoking it after the
  /// connection died (or the server stopped) quietly drops the response.
  using Done = std::function<void(HttpResponse)>;
  /// Asynchronous handler: inspect the request, then call `done` with
  /// the response — either inline (cheap routes) or later from another
  /// thread (compute routes). Runs on a poller thread: do not block.
  using AsyncHandler = std::function<void(const HttpRequest&, Done)>;
  /// Synchronous handler, wrapped as an AsyncHandler that completes
  /// inline. Only for handlers that do not block (tests, static routes);
  /// blocking here stalls one poller thread.
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(AsyncHandler handler, HttpServerOptions options = {});
  explicit HttpServer(Handler handler, HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the poller
  /// threads. Returns the bound port.
  Result<int> Start(int port);

  /// Graceful shutdown: stops accepting immediately, closes idle
  /// connections, then lets in-flight requests (handling or mid-write)
  /// finish for up to 5 s before cutting whatever remains, and joins all
  /// threads. Completion callbacks still held by in-flight
  /// compute remain safe to invoke afterwards (their responses are
  /// dropped once the drain is over). Idempotent.
  void Stop();

  int port() const { return port_; }
  bool running() const { return running_.load(); }

  HttpServerStats Stats() const;

 private:
  class Poller;
  struct SharedState;

  AsyncHandler handler_;
  HttpServerOptions options_;
  std::atomic<bool> running_{false};
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  /// shared_ptr: outstanding Done callbacks keep their poller's queues
  /// and counters alive past Stop().
  std::vector<std::shared_ptr<Poller>> pollers_;
  std::shared_ptr<SharedState> shared_;
};

}  // namespace rpg::ui

#endif  // RPG_UI_HTTP_SERVER_H_
