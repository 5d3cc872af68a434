#ifndef RPG_COMMON_LOGGING_H_
#define RPG_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace rpg::internal {

/// Formats the per-line prefix:
///   "[<ISO-8601 UTC, ms precision> tid=<thread id> <file>:<line>] "
/// e.g. "[2026-08-08T12:34:56.789Z tid=4242 repager.cc:88] ".
/// Exposed for the logging unit tests.
std::string FormatLogPrefix(const char* file, int line);

/// Appends '\n' and writes the whole line to stderr with a single
/// write(2), so lines emitted by concurrent threads never shear into
/// each other (POSIX serializes writes on one file description). Also
/// the sink for the structured slow-query log (obs::EmitSlowQueryLog).
void WriteLogLine(std::string line);

/// Stream-style log line; emits to stderr on destruction. Use via the
/// RPG_LOG macro rather than directly.
class LogMessage {
 public:
  LogMessage(const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

/// Helper for RPG_CHECK: collects the message then aborts.
class FatalMessage {
 public:
  FatalMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalMessage();
  std::ostringstream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace rpg::internal

/// One prefixed line to stderr: `RPG_LOG << "epoch flip -> id " << id;`.
#define RPG_LOG ::rpg::internal::LogMessage(__FILE__, __LINE__)

/// Invariant check that aborts with a message; active in all build modes
/// (used for programmer errors, not for recoverable conditions).
#define RPG_CHECK(cond)                                                   \
  if (!(cond))                                                            \
  ::rpg::internal::FatalMessage(__FILE__, __LINE__, #cond).stream()

#endif  // RPG_COMMON_LOGGING_H_
