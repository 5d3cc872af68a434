// Golden-fingerprint pinning of the reply bytes: serve::RenderResult's
// path fragment ("nodes" through "reading_order", the part every cache
// hit splices verbatim) is FNV-1a-hashed for every SurveyBank query of
// the golden workbench (the corpus tests/core/golden_fingerprint_test.cc
// pins), with and without the survey's year cutoff and self-exclusion.
// The pipeline golden pins which papers a path holds; this one pins how
// they are written — titles, years, importances as %.10g, engine marks,
// edges and the flattened reading order — so a renderer or JsonWriter
// rewrite that changes one byte of any reply trips it.
//
// If a deliberate format change moves the value, re-capture by running
// with RPG_PRINT_FINGERPRINTS=1 and update the constant, with prose in
// the change explaining why the reply bytes legitimately changed.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/repager.h"
#include "eval/workbench.h"
#include "serve/epoch.h"
#include "serve/path_json.h"
#include "serve_test_util.h"

namespace rpg::serve {
namespace {

/// FNV-1a-64 over bytes (offset basis 1469598103934665603, prime
/// 1099511628211), the golden-fingerprint idiom.
class Fnv64 {
 public:
  void AddBytes(const std::string& bytes) {
    for (char c : bytes) {
      h_ = (h_ ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
    }
  }
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// Captured before the renderer and JsonWriter stopped building the
/// fragment from temporaries.
constexpr uint64_t kGoldenReplyBytes = 0xfbf0ff243a5c7d81ULL;

TEST(ReplyGoldenTest, PathBytesOfEveryQueryMatchGolden) {
  eval::WorkbenchOptions options;
  options.corpus.hierarchy.areas_per_domain = 2;
  options.corpus.hierarchy.topics_per_area = 2;
  options.corpus.papers_per_topic = 60;
  options.corpus.papers_per_area = 20;
  options.corpus.papers_per_domain = 15;
  options.corpus.num_surveys = 100;
  options.corpus.seed = 33;
  auto wb = eval::Workbench::Create(options).value();
  EpochHandle epoch = TestEpoch(*wb);
  ASSERT_GT(wb->bank().size(), 0u);

  Fnv64 fp;
  core::QueryScratch scratch;
  size_t rendered = 0, bytes = 0;
  for (const auto& entry : wb->bank().entries()) {
    for (bool restricted : {true, false}) {
      core::RePagerOptions repager_options;
      if (restricted) {
        repager_options.year_cutoff = entry.year;
        repager_options.exclude = {entry.paper};
      }
      auto result =
          wb->repager().Generate(entry.query, repager_options, &scratch);
      if (!result.ok()) {
        fp.Add(0);
        continue;
      }
      CachedResult cached = RenderResult(std::move(result).value(), *epoch);
      fp.Add(cached->path_json.size());
      fp.AddBytes(cached->path_json);
      ++rendered;
      bytes += cached->path_json.size();
    }
  }
  // The hash means something only if real paths were rendered.
  EXPECT_GT(rendered, wb->bank().size());
  EXPECT_GT(bytes, 100 * rendered);
  if (std::getenv("RPG_PRINT_FINGERPRINTS") != nullptr) {
    std::printf("FINGERPRINT kGoldenReplyBytes = 0x%016llxULL\n",
                static_cast<unsigned long long>(fp.value()));
  }
  EXPECT_EQ(fp.value(), kGoldenReplyBytes)
      << "reply bytes changed — if intentional, re-capture with "
         "RPG_PRINT_FINGERPRINTS=1 (see file header)";
}

}  // namespace
}  // namespace rpg::serve
