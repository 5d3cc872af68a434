#include "common/logging.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <regex>
#include <string>
#include <thread>
#include <vector>

namespace rpg {
namespace {

TEST(FormatLogPrefixTest, IsoTimestampThreadIdAndLocation) {
  std::string prefix = internal::FormatLogPrefix("src/core/repager.cc", 88);
  // "[2026-08-08T12:34:56.789Z tid=4242 repager.cc:88] "
  std::regex re(
      R"(\[\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z tid=\d+ repager\.cc:88\] )");
  EXPECT_TRUE(std::regex_match(prefix, re)) << "prefix: " << prefix;
}

/// Redirects stderr into a pipe for the duration of one scope so tests
/// can assert on what the logging layer actually wrote.
class CapturedStderr {
 public:
  CapturedStderr() {
    saved_ = dup(STDERR_FILENO);
    EXPECT_EQ(pipe(fds_), 0);
    dup2(fds_[1], STDERR_FILENO);
    close(fds_[1]);
  }

  /// Restores stderr and returns everything written while captured.
  std::string Finish() {
    dup2(saved_, STDERR_FILENO);
    close(saved_);
    std::string out;
    char buf[4096];
    ssize_t n;
    while ((n = read(fds_[0], buf, sizeof(buf))) > 0) out.append(buf, n);
    close(fds_[0]);
    return out;
  }

 private:
  int saved_ = -1;
  int fds_[2] = {-1, -1};
};

TEST(LogMessageTest, EmitsOnePrefixedLine) {
  CapturedStderr capture;
  RPG_LOG << "hello " << 42;
  std::string out = capture.Finish();
  std::regex re(
      R"(\[\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z tid=\d+ logging_test\.cc:\d+\] hello 42\n)");
  EXPECT_TRUE(std::regex_match(out, re)) << "captured: " << out;
}

TEST(LogMessageTest, ConcurrentLinesNeverShear) {
  CapturedStderr capture;
  constexpr int kThreads = 8, kLines = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        RPG_LOG << "thread=" << t << " line=" << i << " payload="
                << std::string(64, 'x');
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::string out = capture.Finish();
  // Every line must be a complete, well-formed log line: one prefix, one
  // intact payload. A sheared write would produce a line failing the
  // pattern (interleaved fragments).
  std::regex line_re(
      R"(\[\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z tid=\d+ \S+:\d+\] thread=\d+ line=\d+ payload=x{64})");
  size_t lines = 0, pos = 0;
  while (pos < out.size()) {
    size_t eol = out.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "unterminated tail line";
    std::string line = out.substr(pos, eol - pos);
    EXPECT_TRUE(std::regex_match(line, line_re)) << "sheared line: " << line;
    ++lines;
    pos = eol + 1;
  }
  EXPECT_EQ(lines, static_cast<size_t>(kThreads * kLines));
}

TEST(WriteLogLineTest, AppendsNewlineAndWritesVerbatim) {
  CapturedStderr capture;
  internal::WriteLogLine("{\"slow_query\":{\"total_ms\":300}}");
  std::string out = capture.Finish();
  EXPECT_EQ(out, "{\"slow_query\":{\"total_ms\":300}}\n");
}

}  // namespace
}  // namespace rpg
