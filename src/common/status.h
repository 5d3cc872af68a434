#ifndef RPG_COMMON_STATUS_H_
#define RPG_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace rpg {

/// Error categories used across the library. Mirrors the Arrow/RocksDB
/// convention of a small closed set of codes plus a free-form message.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kIoError,
  kInternal,
  /// Transient overload: the serving layer shed this request (queue
  /// bound, connection cap). Safe to retry after backing off; never
  /// cached as a negative result.
  kUnavailable,
  /// The request exceeded its deadline before (or while) being served.
  /// Like kUnavailable it is transient and never cached, but it means
  /// work was *abandoned*, not refused — callers should treat the
  /// outcome as unknown.
  kDeadlineExceeded,
};

/// Returns a stable human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

/// Status is the error-reporting currency of the public API. The library
/// does not throw exceptions; fallible operations return Status (or
/// Result<T>, see result.h). Status is cheap to copy in the OK case.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsIoError() const { return code_ == StatusCode::kIoError; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }

  /// Overload-backoff hint: how long (whole seconds) the caller should
  /// wait before retrying. Set by the serving layer on kUnavailable
  /// (overload-shed) statuses so the HTTP edge can emit an honest
  /// `Retry-After` without reaching back into serving state. 0 = no hint.
  Status&& WithRetryAfter(int seconds) && {
    retry_after_seconds_ = seconds;
    return std::move(*this);
  }
  Status& WithRetryAfter(int seconds) & {
    retry_after_seconds_ = seconds;
    return *this;
  }
  int retry_after_seconds() const { return retry_after_seconds_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
  int retry_after_seconds_ = 0;
};

}  // namespace rpg

/// Propagates a non-OK status to the caller. Usable only in functions that
/// return Status.
#define RPG_RETURN_NOT_OK(expr)            \
  do {                                     \
    ::rpg::Status _st = (expr);            \
    if (!_st.ok()) return _st;             \
  } while (false)

#endif  // RPG_COMMON_STATUS_H_
