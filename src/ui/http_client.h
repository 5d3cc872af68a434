#ifndef RPG_UI_HTTP_CLIENT_H_
#define RPG_UI_HTTP_CLIENT_H_

/// \file
/// Minimal blocking HTTP/1.1 client for loopback use: the ui, serve and
/// obs test suites and perfbench's boot probe talk to HttpServer through
/// it. Supports persistent (keep-alive) connections — one TCP connect
/// can carry many requests; not a general-purpose client (no TLS, no
/// chunked encoding, no redirects).

#include <cstdint>
#include <map>
#include <string>

#include "common/result.h"

namespace rpg::ui {

/// A fetched response. `headers` has lower-cased field names.
struct ClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;
  std::string body;
};

/// Outcome of framing one HTTP response out of a raw byte buffer.
struct ResponseParseResult {
  enum class Verdict {
    kNeedMore,   ///< incomplete: read more bytes and re-parse
    kResponse,   ///< one complete response parsed; `consumed` bytes used
    kError,      ///< malformed: drop the connection
  };
  Verdict verdict = Verdict::kNeedMore;
  ClientResponse response;  ///< valid when kResponse
  size_t consumed = 0;      ///< bytes of `buffer` used (kResponse)
  std::string error;        ///< human-readable cause (kError)
};

/// Frames at most one complete HTTP/1.1 response out of `buffer` — the
/// exact parse HttpClient runs per fetch (strict three-digit status,
/// strict Content-Length, Content-Length framing), extracted behind a
/// socket-free seam so the fuzz harness and unit tests can drive it with
/// arbitrary bytes.
ResponseParseResult ParseHttpResponse(const std::string& buffer);

/// One client connection. Not thread-safe: use one per client thread.
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connects to 127.0.0.1:`port`. Reconnects after Close() or a server
  /// `Connection: close`.
  Status Connect(int port);

  /// Sends one request over the open connection and reads the full
  /// response (Content-Length framed). `target` is the raw request
  /// target ("/api/path?q=x"); `close_connection` asks the server to
  /// close after responding (sends `Connection: close`). Reconnects
  /// transparently if the server closed the connection since the last
  /// call.
  Result<ClientResponse> Fetch(const std::string& method,
                               const std::string& target,
                               bool close_connection = false);

  void Close();

  bool connected() const { return fd_ >= 0; }

 private:
  Result<ClientResponse> FetchOnce(const std::string& request);

  int fd_ = -1;
  int port_ = 0;
  std::string buffer_;  ///< bytes read past the previous response
};

}  // namespace rpg::ui

#endif  // RPG_UI_HTTP_CLIENT_H_
