#include "common/logging.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#if defined(__linux__)
#include <sys/syscall.h>
#else
#include <functional>
#include <thread>
#endif

namespace rpg::internal {
namespace {

/// Cached kernel thread id (one syscall per thread, ever).
long CurrentThreadId() {
#if defined(__linux__)
  static thread_local const long tid =
      static_cast<long>(::syscall(SYS_gettid));
  return tid;
#else
  static thread_local const long tid = [] {
    return static_cast<long>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0x7fffffff);
  }();
  return tid;
#endif
}

}  // namespace

std::string FormatLogPrefix(const char* file, int line) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  struct timespec ts;
  clock_gettime(CLOCK_REALTIME, &ts);
  struct tm utc;
  gmtime_r(&ts.tv_sec, &utc);
  char buf[96];
  int n = std::snprintf(
      buf, sizeof(buf),
      "[%04d-%02d-%02dT%02d:%02d:%02d.%03ldZ tid=%ld %s:%d] ",
      utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
      utc.tm_min, utc.tm_sec, ts.tv_nsec / 1000000, CurrentThreadId(), base,
      line);
  if (n < 0) return "[] ";
  return std::string(buf, static_cast<size_t>(n) < sizeof(buf)
                              ? static_cast<size_t>(n)
                              : sizeof(buf) - 1);
}

void WriteLogLine(std::string line) {
  line.push_back('\n');
  // One write(2) per message keeps concurrent lines whole; the retry
  // loop only continues after EINTR or a short write (pipes under
  // pressure), never interleaving with another thread's full-line write
  // in the common case of a line shorter than PIPE_BUF.
  size_t off = 0;
  while (off < line.size()) {
    ssize_t n = ::write(STDERR_FILENO, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // stderr gone; nothing sane to do
    }
    off += static_cast<size_t>(n);
  }
}

LogMessage::LogMessage(const char* file, int line) {
  stream_ << FormatLogPrefix(file, line);
}

LogMessage::~LogMessage() { WriteLogLine(stream_.str()); }

FatalMessage::FatalMessage(const char* file, int line, const char* condition) {
  stream_ << "[FATAL " << file << ":" << line << "] check failed: " << condition
          << " ";
}

FatalMessage::~FatalMessage() {
  WriteLogLine(stream_.str());
  std::abort();
}

}  // namespace rpg::internal
