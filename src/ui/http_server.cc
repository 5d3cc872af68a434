#include "ui/http_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"

namespace rpg::ui {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// listen(2) backlog.
constexpr int kListenBacklog = 128;
/// Progress deadline for half-written responses and protocol-error
/// drains: a peer that accepts no bytes for this long is closed. Re-armed
/// on every successful partial write, so a slow reader survives as long
/// as it keeps draining.
constexpr std::chrono::milliseconds kWriteTimeout{20'000};
/// Graceful-drain budget for Stop(): in-flight requests get this long to
/// finish before they are cut.
constexpr std::chrono::milliseconds kDrainTimeout{5'000};
/// The request-size ceilings, shared by the read bound and framing.
constexpr FramingLimits kFramingLimits{};
/// A client whose input the server throws away (a shed connection, or a
/// protocol-error drain) gets at most this much read and discarded
/// before the connection is dropped anyway.
constexpr size_t kMaxDiscardBytes = 4u << 20;

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

/// Canned accept-shed response, written straight to a just-accepted fd
/// when the connection cap is hit: the socket buffer is empty, so the
/// single non-blocking send always fits.
constexpr char kShedResponse[] =
    "HTTP/1.1 503 Service Unavailable\r\n"
    "Content-Type: text/plain\r\n"
    "Content-Length: 24\r\n"
    "Connection: close\r\n"
    "Retry-After: 1\r\n"
    "\r\n"
    "server at connection cap";

/// Reads and discards `fd`'s input until it would block, the peer is done
/// (EOF or error), or `*discarded` passes kMaxDiscardBytes. Returns true
/// only when it stopped on would-block: more input may still come.
bool DiscardInput(int fd, size_t* discarded) {
  char chunk[16384];
  for (;;) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      *discarded += static_cast<size_t>(n);
      if (*discarded > kMaxDiscardBytes) return false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

}  // namespace

std::string UrlDecode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size()) {
      auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
      };
      int hi = hex(s[i + 1]), lo = hex(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back('%');
      }
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

Result<HttpRequest> ParseRequestLine(const std::string& line) {
  std::vector<std::string> parts = SplitWhitespace(line);
  if (parts.size() != 3 || !StartsWith(parts[2], "HTTP/")) {
    return Status::InvalidArgument("malformed request line: " + line);
  }
  HttpRequest request;
  request.method = parts[0];
  request.version = parts[2];
  std::string target = parts[1];
  size_t question = target.find('?');
  if (question == std::string::npos) {
    request.path = target;
  } else {
    request.path = target.substr(0, question);
    for (const std::string& pair :
         Split(target.substr(question + 1), '&')) {
      if (pair.empty()) continue;
      size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        request.query[UrlDecode(pair)] = "";
      } else {
        request.query[UrlDecode(pair.substr(0, eq))] =
            UrlDecode(pair.substr(eq + 1));
      }
    }
  }
  if (request.path.empty() || request.path[0] != '/') {
    return Status::InvalidArgument("bad path: " + target);
  }
  return request;
}

void ParseHeaderLines(const std::string& header_block,
                      std::map<std::string, std::string>* headers) {
  size_t pos = 0;
  while (pos < header_block.size()) {
    size_t eol = header_block.find("\r\n", pos);
    if (eol == std::string::npos) eol = header_block.size();
    std::string_view line(header_block.data() + pos, eol - pos);
    pos = eol + 2;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string name = ToLower(Trim(line.substr(0, colon)));
    std::string value(Trim(line.substr(colon + 1)));
    if (name.empty()) continue;
    // Repeated fields fold into one comma-separated value (RFC 7230
    // §3.2.2). For Content-Length this is the smuggling defense: two
    // conflicting lengths become "5, 6", which the strict numeric parse
    // rejects with 400 instead of letting either framing win.
    auto [it, inserted] = headers->try_emplace(std::move(name), value);
    if (!inserted) {
      it->second += ", ";
      it->second += value;
    }
  }
}

bool ParseContentLength(const std::string& value, size_t* out) {
  if (value.empty()) return false;
  uint64_t parsed = 0;
  for (char c : value) {
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (parsed > (UINT64_MAX - digit) / 10) return false;  // would overflow
    parsed = parsed * 10 + digit;
  }
  if (parsed > SIZE_MAX) return false;  // 32-bit size_t guard
  *out = static_cast<size_t>(parsed);
  return true;
}

FrameResult FrameOneRequest(const std::string& in, bool peer_eof,
                            const FramingLimits& limits) {
  FrameResult result;
  auto fail = [&result](int status, std::string message) -> FrameResult& {
    result.verdict = FrameResult::Verdict::kError;
    result.error_status = status;
    result.error_message = std::move(message);
    return result;
  };
  size_t header_end = in.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    if (in.size() > limits.max_header_bytes) {
      return fail(431, "header block too large");
    }
    if (peer_eof) {
      // Truncated request, nothing to answer.
      result.verdict = FrameResult::Verdict::kClose;
    }
    return result;
  }
  // The incomplete-header check above cannot see a block that arrived
  // whole in one read pass; re-enforce the ceiling on the complete
  // block or a single burst would bypass the 431.
  if (header_end > limits.max_header_bytes) {
    return fail(431, "header block too large");
  }
  size_t line_end = in.find("\r\n");
  auto request_or = ParseRequestLine(in.substr(0, line_end));
  if (!request_or.ok()) {
    return fail(400, request_or.status().ToString());
  }
  HttpRequest request = std::move(request_or).value();
  // A request with zero header lines has header_end == line_end; the
  // unclamped subtraction would underflow and swallow the rest of the
  // (pipelined) buffer as headers.
  size_t header_len =
      header_end >= line_end + 2 ? header_end - line_end - 2 : 0;
  ParseHeaderLines(in.substr(line_end + 2, header_len), &request.headers);
  size_t body_len = 0;
  if (auto it = request.headers.find("content-length");
      it != request.headers.end()) {
    // Strict parse: "abc", "-1", overflow, and folded duplicates
    // ("5, 6") are all 400s. The old permissive strtoull read them as
    // 0 and re-parsed the body bytes as the next pipelined request.
    if (!ParseContentLength(it->second, &body_len)) {
      return fail(400, "malformed Content-Length");
    }
  }
  if (body_len > limits.max_body_bytes) {
    return fail(413, "body too large");
  }
  size_t total = header_end + 4 + body_len;
  // Unreachable with the 431/413 ceilings above, but a request that
  // could never fit the read buffer must be rejected, not waited on —
  // level-triggered EPOLLIN on the unread bytes would spin a poller.
  if (total > limits.MaxBufferedBytes()) {
    return fail(413, "request too large");
  }
  if (in.size() < total) {
    if (peer_eof) result.verdict = FrameResult::Verdict::kClose;
    return result;  // body can never complete / need more bytes
  }
  request.body = in.substr(header_end + 4, body_len);

  // Persistence: HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close;
  // an explicit Connection header wins either way.
  bool keep_alive = request.version != "HTTP/1.0";
  if (auto it = request.headers.find("connection");
      it != request.headers.end()) {
    keep_alive = !ContainsIgnoreCase(it->second, "close") &&
                 (keep_alive ||
                  ContainsIgnoreCase(it->second, "keep-alive"));
  }
  result.verdict = FrameResult::Verdict::kRequest;
  result.request = std::move(request);
  result.consumed = total;
  result.keep_alive = keep_alive;
  return result;
}

// --------------------------------------------------------------- reactor

/// Cross-poller stats. Relaxed atomics: the gauges feed /api/stats and
/// test assertions, not control flow.
struct HttpServer::SharedState {
  std::atomic<size_t> open_connections{0};
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> requests_handled{0};
  std::atomic<uint64_t> responses_sent{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> connections_shed{0};
  std::atomic<uint64_t> idle_closes{0};
  std::atomic<uint64_t> timeout_closes{0};
  std::atomic<uint64_t> deadline_closes{0};
};

/// One reactor thread: an epoll instance multiplexing the listen socket
/// (EPOLLEXCLUSIVE — the kernel load-balances accepts across pollers),
/// an eventfd for cross-thread response completions, and every
/// connection this poller accepted. Connections live and die on their
/// owning poller thread only; other threads reach a connection solely
/// through Complete(), which marshals the response over the eventfd.
///
/// shared_ptr + enable_shared_from_this: each Done callback captures
/// shared_from_this(), so the completion queue, its mutex, and the
/// eventfd stay alive until the last in-flight compute finishes — even
/// if that is after Stop() returned and the server was destroyed. Late
/// completions see loop_exited_ and drop their response.
class HttpServer::Poller : public std::enable_shared_from_this<Poller> {
 public:
  Poller(const AsyncHandler* handler, const HttpServerOptions* options,
         std::shared_ptr<SharedState> shared)
      : handler_(handler), options_(options), shared_(std::move(shared)) {}

  ~Poller() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (spare_fd_ >= 0) ::close(spare_fd_);
  }

  Status Init(int listen_fd) {
    // Reserved fd, sacrificed to accept-and-close when the process runs
    // out of descriptors (see AcceptAll).
    spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Status::IoError("epoll_create1 failed");
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) return Status::IoError("eventfd failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
      return Status::IoError("epoll_ctl(wake) failed");
    }
    ev.events = EPOLLIN | EPOLLEXCLUSIVE;
    ev.data.u64 = kListenTag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd, &ev) < 0) {
      return Status::IoError("epoll_ctl(listen) failed");
    }
    listen_fd_ = listen_fd;
    return Status::OK();
  }

  void StartThread() {
    thread_ = std::thread([self = shared_from_this()] { self->Loop(); });
  }

  /// Begins a graceful drain: the poller stops accepting, closes idle
  /// connections, and keeps serving in-flight requests until `deadline`
  /// (or until none remain). In-flight completions are still delivered
  /// during the drain; only after the poller exits are they dropped.
  void RequestDrain(SteadyClock::time_point deadline) {
    drain_deadline_.store(deadline.time_since_epoch().count());
    Wake();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Thread-safe response delivery for connection `id`, request `seq`.
  /// On the poller's own thread the completion is applied inline (the
  /// common synchronous-handler path pays no eventfd round trip);
  /// from any other thread it is queued and the poller is woken.
  void Complete(uint64_t id, uint64_t seq, HttpResponse response) {
    if (std::this_thread::get_id() == thread_id_.load()) {
      HandleCompletion(id, seq, std::move(response));
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (loop_exited_) return;  // server stopped: drop it
      completions_.push_back({id, seq, std::move(response)});
    }
    Wake();
  }

 private:
  static constexpr uint64_t kListenTag = 0;
  static constexpr uint64_t kWakeTag = 1;
  static constexpr uint64_t kFirstConnId = 2;

  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    std::string in;        ///< unparsed request bytes
    std::string out;       ///< response bytes not yet written
    size_t out_off = 0;
    enum class State { kReading, kHandling, kWriting, kDraining };
    State state = State::kReading;
    /// What follows the response being written. kDrain (half-close +
    /// discard before the real close) is for protocol errors (431/413/400)
    /// where the client may still be mid-request — an immediate close()
    /// would RST the queued response away.
    enum class AfterWrite { kKeepAlive, kClose, kDrain };
    AfterWrite after_write = AfterWrite::kKeepAlive;
    bool peer_eof = false;
    /// Reentrancy guard: an inline handler completion lands back in
    /// PumpRequests via HandleCompletion; the guard keeps the pipeline
    /// advancing in the outer loop instead of recursing once per
    /// buffered request (attacker-controlled depth otherwise).
    bool pumping = false;
    size_t drained = 0;
    uint64_t request_seq = 0;  ///< guards stale/duplicate completions
    uint32_t interest = EPOLLIN;
    /// When the current state's deadline fires; max() means none.
    SteadyClock::time_point deadline = SteadyClock::time_point::max();
  };

  struct Completion {
    uint64_t id;
    uint64_t seq;
    HttpResponse response;
  };

  void Wake() {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }

  void Loop() {
    thread_id_.store(std::this_thread::get_id());
    epoll_event events[64];
    for (;;) {
      if (!draining_ && DrainRequested()) {
        draining_ = true;
        EnterDrain();
      }
      if (draining_ &&
          (conns_.empty() || SteadyClock::now() >= DrainDeadline())) {
        break;  // drained clean, or the drain budget is spent
      }
      int n = ::epoll_wait(epoll_fd_, events, 64, NextTimeoutMs());
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        uint64_t tag = events[i].data.u64;
        if (tag == kListenTag) {
          AcceptAll();
        } else if (tag == kWakeTag) {
          DrainWakeQueue();
        } else {
          OnConnEvent(tag, events[i].events);
        }
      }
      SweepDeadlines();
    }
    // The loop is over: drop late cross-thread completions from here on
    // (nothing will ever drain the queue again) and cut what remains.
    {
      std::lock_guard<std::mutex> lock(mu_);
      loop_exited_ = true;
      completions_.clear();
    }
    while (!conns_.empty()) CloseConn(conns_.begin()->second.get());
  }

  /// Drain entry (runs once, on the poller thread): deregister the
  /// listen fd so no further connections land here, and close every
  /// connection with no request in flight. What survives is exactly the
  /// in-flight work the drain budget exists for.
  void EnterDrain() {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn* conn = (it++)->second.get();  // CloseConn erases only *conn
      if (conn->state == Conn::State::kReading ||
          conn->state == Conn::State::kDraining) {
        CloseConn(conn);
      }
    }
  }

  bool DrainRequested() const { return drain_deadline_.load() != 0; }

  SteadyClock::time_point DrainDeadline() const {
    return SteadyClock::time_point(
        SteadyClock::duration(drain_deadline_.load()));
  }

  /// Bounded epoll_wait timeout: sleep until the connection deadlines'
  /// lower bound or the drain deadline, whichever is earlier; -1
  /// (forever) when there is neither. A bound left early by a re-armed
  /// connection costs one wake-up, whose sweep tightens it.
  int NextTimeoutMs() {
    SteadyClock::time_point next = next_deadline_;
    if (draining_) next = std::min(next, DrainDeadline());
    if (next == SteadyClock::time_point::max()) return -1;
    auto remaining = std::chrono::ceil<std::chrono::milliseconds>(
        next - SteadyClock::now());
    return static_cast<int>(std::clamp<int64_t>(remaining.count(), 0, 60'000));
  }

  /// Fires every expired deadline: idle kReading connections get a
  /// clean close, stalled writes/drains are cut, a handler past its
  /// deadline is answered 503. Nothing can have expired before the
  /// bound; once it has passed, one pass over the connections collects
  /// the expired ids and recomputes the bound from the rest.
  void SweepDeadlines() {
    const SteadyClock::time_point now = SteadyClock::now();
    if (now < next_deadline_) return;
    std::vector<uint64_t> expired;
    next_deadline_ = SteadyClock::time_point::max();
    for (const auto& [id, conn] : conns_) {
      if (conn->deadline <= now) {
        expired.push_back(id);
      } else {
        next_deadline_ = std::min(next_deadline_, conn->deadline);
      }
    }
    // Each case closes its connection or re-arms it (which lowers the
    // bound again); ids are looked up afresh rather than trusting a
    // pointer across those calls.
    for (uint64_t id : expired) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Conn* conn = it->second.get();
      switch (conn->state) {
        case Conn::State::kReading:
          shared_->idle_closes.fetch_add(1);
          CloseConn(conn);
          break;
        case Conn::State::kWriting:
        case Conn::State::kDraining:
          shared_->timeout_closes.fetch_add(1);
          CloseConn(conn);
          break;
        case Conn::State::kHandling:
          // The handler blew its deadline: answer 503 + close on its
          // behalf. Bumping request_seq makes the eventual late
          // completion a guaranteed no-op even if the conn were somehow
          // back in kHandling by then (it cannot be — it closes after
          // this write — but the guard is cheap).
          shared_->deadline_closes.fetch_add(1);
          ++conn->request_seq;
          conn->after_write = Conn::AfterWrite::kClose;
          {
            HttpResponse response;
            response.status = 503;
            response.content_type = "text/plain";
            response.body = "handler deadline exceeded";
            StartResponse(conn, response);  // may destroy the conn
          }
          break;
      }
    }
  }

  /// Sets the deadline for the connection's current state, superseding
  /// any previous one: idle_timeout in kReading, handler_timeout in
  /// kHandling, kWriteTimeout in kWriting/kDraining. A timeout <= 0
  /// leaves the connection without a deadline.
  void ArmDeadline(Conn* conn) {
    std::chrono::milliseconds after = kWriteTimeout;
    if (conn->state == Conn::State::kReading) {
      after = options_->idle_timeout;
    } else if (conn->state == Conn::State::kHandling) {
      after = options_->handler_timeout;
    }
    conn->deadline = after.count() > 0 ? SteadyClock::now() + after
                                       : SteadyClock::time_point::max();
    next_deadline_ = std::min(next_deadline_, conn->deadline);
  }

  /// Sheds a just-accepted fd with the canned inline 503: half-close,
  /// discard what the client already sent (close() on unread bytes would
  /// RST the 503 away), then give the descriptor back.
  static void ShedAccepted(int fd) {
    [[maybe_unused]] ssize_t n =
        ::send(fd, kShedResponse, sizeof(kShedResponse) - 1, MSG_NOSIGNAL);
    ::shutdown(fd, SHUT_WR);
    size_t discarded = 0;
    DiscardInput(fd, &discarded);
    ::close(fd);
  }

  void AcceptAll() {
    if (draining_) return;  // listen fd deregistered; stale event
    for (;;) {
      int fd = ::accept4(listen_fd_, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        if ((errno == EMFILE || errno == ENFILE) && spare_fd_ >= 0) {
          // Out of descriptors with the backlog still pending: a plain
          // break would leave the level-triggered listen fd hot and
          // spin every poller at 100% CPU. Sacrifice the reserved fd to
          // accept-and-close (shedding one waiting client), then take
          // it back.
          ::close(spare_fd_);
          spare_fd_ = -1;
          int victim = ::accept(listen_fd_, nullptr, nullptr);
          if (victim >= 0) ::close(victim);
          spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
          if (victim < 0 || spare_fd_ < 0) break;
          continue;
        }
        break;  // EAGAIN (another poller won the race) or listen closed
      }
      // Accept-shed at the cap: answer 503 inline and give the fd back
      // instead of holding it open (or silently leaking it). The
      // fresh socket's empty send buffer makes the one-shot send safe.
      if (options_->max_connections > 0 &&
          shared_->open_connections.load() >= options_->max_connections) {
        shared_->connections_shed.fetch_add(1);
        // (A client that keeps streaming after our FIN can still race
        // the close — shedding must not hold the fd, so that residual
        // window is accepted.)
        ShedAccepted(fd);
        continue;
      }
      const uint64_t id = next_conn_id_++;
      Conn* conn = conns_.emplace(id, std::make_unique<Conn>())
                       .first->second.get();
      conn->fd = fd;
      conn->id = id;
      // Counted before registering, so CloseConn also undoes a failed
      // registration.
      shared_->open_connections.fetch_add(1);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = id;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
        CloseConn(conn);
        continue;
      }
      shared_->connections_accepted.fetch_add(1);
      // The idle clock starts at accept and is NOT reset by partial
      // reads: a slow-loris dripping bytes dies on the same schedule as
      // a silent connection.
      ArmDeadline(conn);
    }
  }

  void DrainWakeQueue() {
    uint64_t buf;
    while (::read(wake_fd_, &buf, sizeof(buf)) > 0) {
    }
    std::deque<Completion> ready;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ready.swap(completions_);
    }
    for (Completion& c : ready) {
      HandleCompletion(c.id, c.seq, std::move(c.response));
    }
  }

  void OnConnEvent(uint64_t id, uint32_t events) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    Conn* conn = it->second.get();
    if (events & EPOLLERR) {
      CloseConn(conn);
      return;
    }
    if ((events & EPOLLHUP) && conn->state == Conn::State::kHandling) {
      // Peer fully gone while compute is in flight: reclaim the fd now;
      // the eventual completion finds the id missing and is dropped.
      CloseConn(conn);
      return;
    }
    // EPOLLHUP while writing is treated like writability: send() will
    // surface EPIPE/ECONNRESET and close the conn — never ignore it, a
    // level-triggered HUP we do nothing about would spin this loop.
    if ((events & (EPOLLOUT | EPOLLHUP)) &&
        conn->state == Conn::State::kWriting) {
      FlushOut(conn);  // may destroy the conn
      PumpRequests(id);
      return;
    }
    if (events & (EPOLLIN | EPOLLHUP)) {
      if (conn->state == Conn::State::kDraining) {
        DrainReads(conn);
      } else if (conn->state == Conn::State::kReading) {
        if (!ReadAvailable(conn)) {
          CloseConn(conn);
          return;
        }
        PumpRequests(id);
      }
      // kHandling/kWriting never have EPOLLIN interest; nothing to do.
    }
  }

  /// Reads what is currently available, bounded: buffering stops at one
  /// max-size request's worth of bytes, so a fast client streaming
  /// nonstop cannot grow conn->in without limit before the parser runs
  /// (level-triggered epoll re-fires while socket data remains; the
  /// pump drains conn->in between passes). Returns false when the
  /// connection errored or the peer closed with no parseable request in
  /// flight (the conn should be closed). A clean half-close after a
  /// complete request sets peer_eof and returns true: the request still
  /// deserves its response. Anything a connection would buffer beyond
  /// one maximal request can only be pipelined follow-ups, which wait in
  /// the kernel buffer instead.
  bool ReadAvailable(Conn* conn) {
    constexpr size_t max_buffered = kFramingLimits.MaxBufferedBytes();
    char chunk[16384];
    for (;;) {
      if (conn->in.size() >= max_buffered) return true;
      ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
      if (n > 0) {
        conn->in.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {
        conn->peer_eof = true;
        return !conn->in.empty();
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
  }

  /// Drives the connection's request pipeline: parse-and-dispatch one
  /// buffered request at a time until the conn needs more bytes, goes
  /// async (kHandling), errors out, or dies. Iterative on purpose — an
  /// inline handler completion re-enters here via HandleCompletion, and
  /// the `pumping` guard folds that re-entry into this loop instead of
  /// recursing once per pipelined request (the recursion depth would be
  /// attacker-controlled). Works on the id, not the pointer: any step
  /// may destroy the conn.
  void PumpRequests(uint64_t id) {
    {
      auto it = conns_.find(id);
      if (it == conns_.end() || it->second->pumping) return;
      it->second->pumping = true;
    }
    for (;;) {
      auto it = conns_.find(id);
      if (it == conns_.end()) return;  // closed mid-pump; flag died with it
      Conn* conn = it->second.get();
      if (conn->state != Conn::State::kReading ||
          !ParseAndDispatchOne(conn)) {
        auto alive = conns_.find(id);
        if (alive != conns_.end()) alive->second->pumping = false;
        return;
      }
    }
  }

  /// Parses at most one complete request out of conn->in and dispatches
  /// it. Returns true iff a request was dispatched (the pump decides
  /// whether the conn can take another one); false when more bytes are
  /// needed or a protocol error took over the connection. May destroy
  /// the conn.
  bool ParseAndDispatchOne(Conn* conn) {
    FrameResult framed =
        FrameOneRequest(conn->in, conn->peer_eof, kFramingLimits);
    switch (framed.verdict) {
      case FrameResult::Verdict::kNeedMore:
        return false;
      case FrameResult::Verdict::kClose:
        CloseConn(conn);
        return false;
      case FrameResult::Verdict::kError:
        SendProtocolError(conn, framed.error_status,
                          framed.error_message.c_str());
        return false;
      case FrameResult::Verdict::kRequest:
        break;
    }
    HttpRequest request = std::move(framed.request);
    conn->in.erase(0, framed.consumed);  // keep pipelined bytes for later

    // A peer that half-closed cannot send another request — but requests
    // it pipelined before the FIN are already in conn->in and still get
    // served; the close happens once the buffer runs dry.
    conn->after_write =
        framed.keep_alive && (!conn->peer_eof || !conn->in.empty())
            ? Conn::AfterWrite::kKeepAlive
            : Conn::AfterWrite::kClose;

    conn->state = Conn::State::kHandling;
    // The handler deadline starts at dispatch: a wedged solve gets a
    // server-side 503 at handler_timeout instead of pinning this
    // connection until Stop(). <= 0 leaves kHandling unbounded (the
    // serve layer's queue-depth shedding is then the only limit).
    ArmDeadline(conn);
    shared_->requests_handled.fetch_add(1);
    const uint64_t id = conn->id;
    const uint64_t seq = ++conn->request_seq;
    // Request trace: a fresh context per request (never reused across
    // requests — a late completion from a deadline-503'd request may
    // still write spans after this connection moved on). The slow-query
    // check runs in the Done wrapper, i.e. on the thread that delivers
    // the completion — the tail of the request's causal chain, after
    // every span write.
    std::shared_ptr<obs::TraceContext> trace;
    if (obs::TracingEnabled()) {
      trace = std::make_shared<obs::TraceContext>();
      trace->set_request_id(obs::TraceContext::NextRequestId());
      request.trace = trace;
    }
    Done done = [self = shared_from_this(), id, seq,
                 trace = std::move(trace),
                 threshold = options_->slow_query_threshold](
                    HttpResponse response) {
      if (trace && threshold.count() > 0) {
        const double total_ms =
            static_cast<double>(trace->NowNs()) / 1e6;
        if (total_ms >= static_cast<double>(threshold.count())) {
          obs::EmitSlowQueryLog(*trace, total_ms,
                                static_cast<double>(threshold.count()));
        }
      }
      self->Complete(id, seq, std::move(response));
    };
    (*handler_)(request, std::move(done));
    // Read interest is only dropped when the handler actually deferred
    // (level-triggered: we must not keep waking on buffered pipelined
    // bytes while busy). The common inline-completion path — cache
    // hits, static routes — has already moved past kHandling and never
    // pays an epoll_ctl. No epoll processing ran since the dispatch
    // (same thread), so deferring the MOD a few lines is race-free; a
    // cross-thread completion only lands via the wake queue later.
    auto it = conns_.find(id);
    if (it != conns_.end() && it->second->state == Conn::State::kHandling &&
        it->second->request_seq == seq) {
      SetInterest(it->second.get(), 0);
    }
    return true;  // the pump re-checks state/liveness before continuing
  }

  void HandleCompletion(uint64_t id, uint64_t seq, HttpResponse response) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;  // connection died while computing
    Conn* conn = it->second.get();
    if (conn->state != Conn::State::kHandling || conn->request_seq != seq) {
      return;  // stale or duplicate completion
    }
    // Draining: this response still goes out, but the
    // connection closes behind it instead of going back to kReading.
    if (DrainRequested()) conn->after_write = Conn::AfterWrite::kClose;
    StartResponse(conn, response);  // may destroy the conn
    // A pipelined request may already be buffered; for an inline
    // completion (handler called done on this stack) the active pump
    // absorbs this call via the `pumping` guard.
    PumpRequests(id);
  }

  void SendProtocolError(Conn* conn, int status, const char* message) {
    shared_->protocol_errors.fetch_add(1);
    conn->after_write = Conn::AfterWrite::kDrain;  // client may still send
    HttpResponse response;
    response.status = status;
    response.content_type = "text/plain";
    response.body = message;
    StartResponse(conn, response);
  }

  void StartResponse(Conn* conn, const HttpResponse& response) {
    conn->out = StrFormat(
        "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
        "Connection: %s\r\n",
        response.status, ReasonPhrase(response.status),
        response.content_type.c_str(), response.body.size(),
        conn->after_write == Conn::AfterWrite::kKeepAlive ? "keep-alive"
                                                          : "close");
    for (const auto& [name, value] : response.headers) {
      conn->out += name;
      conn->out += ": ";
      conn->out += value;
      conn->out += "\r\n";
    }
    conn->out += "\r\n";
    conn->out += response.body;
    conn->out_off = 0;
    conn->state = Conn::State::kWriting;
    FlushOut(conn);
  }

  /// Writes as much of conn->out as the socket accepts. Fully flushed ->
  /// FinishResponse; would-block -> arm EPOLLOUT and resume on the next
  /// event; error -> close. May destroy the conn.
  void FlushOut(Conn* conn) {
    while (conn->out_off < conn->out.size()) {
      // MSG_NOSIGNAL: a client that vanished mid-response must surface
      // as EPIPE here, not as a process-wide SIGPIPE.
      ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_off,
                         conn->out.size() - conn->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        SetInterest(conn, EPOLLOUT);
        // Progress deadline, re-armed per partial write: a reader that
        // keeps draining survives; one that stalls for kWriteTimeout
        // is cut.
        ArmDeadline(conn);
        return;
      }
      if (n < 0 && errno == EINTR) continue;
      CloseConn(conn);
      return;
    }
    FinishResponse(conn);
  }

  void FinishResponse(Conn* conn) {
    shared_->responses_sent.fetch_add(1);
    conn->out.clear();
    conn->out_off = 0;
    if (conn->after_write == Conn::AfterWrite::kDrain) {
      // Half-close, then discard whatever the client is still sending,
      // so the response survives in the socket buffer instead of being
      // destroyed by a reset. Bounded in bytes (kMaxDiscardBytes) and in
      // time (kWriteTimeout) — a client that never stops sending, or
      // never hangs up, is cut either way.
      ::shutdown(conn->fd, SHUT_WR);
      conn->state = Conn::State::kDraining;
      SetInterest(conn, EPOLLIN);
      ArmDeadline(conn);
      return;
    }
    if (conn->after_write == Conn::AfterWrite::kClose) {
      CloseConn(conn);
      return;
    }
    conn->state = Conn::State::kReading;
    SetInterest(conn, EPOLLIN);
    // A fresh idle window for the next request on this keep-alive
    // connection. Buffered pipelined requests are picked up by the
    // caller's pump (which disarms again at the next dispatch).
    ArmDeadline(conn);
  }

  void DrainReads(Conn* conn) {
    if (!DiscardInput(conn->fd, &conn->drained)) CloseConn(conn);
  }

  void SetInterest(Conn* conn, uint32_t mask) {
    if (conn->interest == mask) return;
    epoll_event ev{};
    ev.events = mask;
    ev.data.u64 = conn->id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->interest = mask;
  }

  void CloseConn(Conn* conn) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    shared_->open_connections.fetch_sub(1);
    conns_.erase(conn->id);  // destroys *conn
  }

  const AsyncHandler* handler_;
  const HttpServerOptions* options_;
  std::shared_ptr<SharedState> shared_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int listen_fd_ = -1;
  int spare_fd_ = -1;
  std::thread thread_;
  std::atomic<std::thread::id> thread_id_{};
  /// Drain deadline as steady-clock ticks, published by RequestDrain
  /// from the stopping thread; 0 means no drain was requested.
  std::atomic<int64_t> drain_deadline_{0};

  // Poller-thread-only state.
  bool draining_ = false;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = kFirstConnId;
  /// Lower bound on every connection's deadline: never later than the
  /// earliest one, possibly earlier once that connection re-armed or
  /// closed. SweepDeadlines makes it exact again.
  SteadyClock::time_point next_deadline_ = SteadyClock::time_point::max();

  // Cross-thread completion queue. Once the loop has exited nothing
  // drains it again, so Complete() drops what arrives after that.
  std::mutex mu_;
  std::deque<Completion> completions_;
  bool loop_exited_ = false;
};

HttpServer::HttpServer(AsyncHandler handler, HttpServerOptions options)
    : handler_(std::move(handler)), options_(options) {}

HttpServer::HttpServer(Handler handler, HttpServerOptions options)
    : handler_([h = std::move(handler)](const HttpRequest& request,
                                        Done done) { done(h(request)); }),
      options_(options) {}

HttpServer::~HttpServer() { Stop(); }

Result<int> HttpServer::Start(int port) {
  if (running_.load()) return Status::FailedPrecondition("already running");
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Status::IoError(StrFormat("bind(%d) failed", port));
  }
  if (::listen(fd, kListenBacklog) < 0) {
    ::close(fd);
    return Status::IoError("listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  listen_fd_.store(fd);

  shared_ = std::make_shared<SharedState>();
  int num_pollers = options_.num_pollers <= 0 ? 2 : options_.num_pollers;
  for (int i = 0; i < num_pollers; ++i) {
    auto poller = std::make_shared<Poller>(&handler_, &options_, shared_);
    Status init = poller->Init(fd);
    if (!init.ok()) {
      pollers_.clear();
      ::close(listen_fd_.exchange(-1));
      return init;
    }
    pollers_.push_back(std::move(poller));
  }
  for (auto& poller : pollers_) poller->StartThread();
  running_.store(true);
  return port_;
}

void HttpServer::Stop() {
  running_.store(false);
  // Every poller stops accepting and sheds its idle connections at once,
  // then in-flight requests run to completion (their responses close the
  // connection) until the shared deadline.
  const auto deadline = SteadyClock::now() + kDrainTimeout;
  for (auto& poller : pollers_) poller->RequestDrain(deadline);
  for (auto& poller : pollers_) poller->Join();
  pollers_.clear();
  int fd = listen_fd_.exchange(-1);
  if (fd >= 0) ::close(fd);
}

HttpServerStats HttpServer::Stats() const {
  HttpServerStats stats;
  stats.max_connections = options_.max_connections;
  if (shared_ == nullptr) return stats;
  stats.open_connections = shared_->open_connections.load();
  stats.connections_accepted = shared_->connections_accepted.load();
  stats.requests_handled = shared_->requests_handled.load();
  stats.responses_sent = shared_->responses_sent.load();
  stats.protocol_errors = shared_->protocol_errors.load();
  stats.connections_shed = shared_->connections_shed.load();
  stats.idle_closes = shared_->idle_closes.load();
  stats.timeout_closes = shared_->timeout_closes.load();
  stats.deadline_closes = shared_->deadline_closes.load();
  return stats;
}

}  // namespace rpg::ui
