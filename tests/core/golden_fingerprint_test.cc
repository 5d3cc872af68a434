// Golden-fingerprint pinning of the full per-query pipeline (ISSUE 9
// satellite): the serial-vs-batched identity suites prove both paths
// agree with EACH OTHER, but a hot-path rewrite could change both in
// lockstep and hide behind that equality. This suite hashes the actual
// RePagerResult contents (rank order, reading-path nodes/edges,
// terminals, seeds, subgraph shape, quantized tree cost) and the raw
// Eq. (2) Con() counts over every citation edge into FNV-1a-64
// fingerprints and compares them against constants captured BEFORE the
// galloping common-neighbor kernels, the d-ary Dijkstra heap and
// the flat-hash sweep landed. A kernel bug that perturbs any count,
// cost, tree or rank order anywhere in the sample trips this even if
// every differential suite still self-agrees.
//
// If a deliberate semantic change (new ranking rule, different weight
// formula, corpus generator change) moves these values, re-capture by
// running with RPG_PRINT_FINGERPRINTS=1 and update the constants —
// alongside prose in the PR explaining why the outputs legitimately
// changed.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/batch_engine.h"
#include "core/repager.h"
#include "eval/workbench.h"

namespace rpg::core {
namespace {

/// FNV-1a over a stream of 64-bit words (same idiom as the snapshot
/// checksums: offset basis 1469598103934665603, prime 1099511628211).
class Fnv64 {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  }
  void AddCost(double cost) {
    // Quantized, not raw bits: identical arithmetic is the goal, but a
    // 1-in-the-last-ulp difference from a legitimate reassociation
    // should not masquerade as a kernel bug.
    Add(static_cast<uint64_t>(std::llround(cost * 1e6)));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

class GoldenFingerprintFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Deliberately the same corpus shape + seed as the batch-engine
    // suite so a future reader can line the two up.
    eval::WorkbenchOptions options;
    options.corpus.hierarchy.areas_per_domain = 2;
    options.corpus.hierarchy.topics_per_area = 2;
    options.corpus.papers_per_topic = 60;
    options.corpus.papers_per_area = 20;
    options.corpus.papers_per_domain = 15;
    options.corpus.num_surveys = 100;
    options.corpus.seed = 33;
    wb_ = eval::Workbench::Create(options).value().release();
  }
  static void TearDownTestSuite() {
    delete wb_;
    wb_ = nullptr;
  }

  static void MaybePrint(const char* name, uint64_t value) {
    if (std::getenv("RPG_PRINT_FINGERPRINTS") != nullptr) {
      std::printf("FINGERPRINT %s = 0x%016llxULL\n", name,
                  static_cast<unsigned long long>(value));
    }
  }

  /// Hashes the rank order of `query` under `options`, then the seeds,
  /// terminals, reading path and subgraph shape of its Generate result
  /// `r`.
  static void AddResult(const std::string& query,
                        const RePagerOptions& options, const RePagerResult& r,
                        Fnv64* fp) {
    const std::vector<graph::PaperId> ranked =
        wb_->repager().Rank(query, options).value();
    fp->Add(ranked.size());
    for (graph::PaperId p : ranked) fp->Add(p);
    for (graph::PaperId p : r.initial_seeds) fp->Add(p);
    for (graph::PaperId p : r.terminals) fp->Add(p);
    fp->Add(r.path.nodes().size());
    for (graph::PaperId p : r.path.nodes()) fp->Add(p);
    for (const auto& [a, b] : r.path.edges()) {
      fp->Add(a);
      fp->Add(b);
    }
    fp->Add(r.subgraph_nodes);
    fp->Add(r.subgraph_edges);
  }

  /// Fingerprint of the first 12 SurveyBank queries run serially with
  /// `base` plus each entry's year cutoff and exclusion.
  static uint64_t PipelineFingerprint(const RePagerOptions& base) {
    Fnv64 fp;
    const size_t n = std::min<size_t>(wb_->bank().size(), 12);
    QueryScratch scratch;
    for (size_t i = 0; i < n; ++i) {
      const auto& entry = wb_->bank().Get(i);
      RePagerOptions options = base;
      options.year_cutoff = entry.year;
      options.exclude = {entry.paper};
      auto result = wb_->repager().Generate(entry.query, options, &scratch);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (result.ok()) AddResult(entry.query, options, result.value(), &fp);
    }
    return fp.value();
  }

  static const eval::Workbench* wb_;
};

const eval::Workbench* GoldenFingerprintFixture::wb_ = nullptr;

/// Captured at PR 8 (commit c04a55c), before the intersect-kernel /
/// d-ary-heap / flat-hash rewrite of the per-query hot path.
constexpr uint64_t kGoldenPipeline = 0x78bce4bad3f6d61aULL;
constexpr uint64_t kGoldenConCounts = 0xfb3dc3157e7d4247ULL;

TEST_F(GoldenFingerprintFixture, PipelineResultsMatchGolden) {
  ASSERT_GT(wb_->bank().size(), 0u);
  const uint64_t value = PipelineFingerprint(RePagerOptions{});
  MaybePrint("kGoldenPipeline", value);
  EXPECT_EQ(value, kGoldenPipeline)
      << "pipeline output changed — if intentional, re-capture with "
         "RPG_PRINT_FINGERPRINTS=1 (see file header)";
}

/// The Table III ablation variants, each pinned over the same 12
/// queries as kGoldenPipeline. Captured at commit 20c60ef, before seed
/// reallocation and ranking shared one co-occurrence count.
struct AblationGolden {
  const char* name;
  RePagerOptions options;
  uint64_t fingerprint;
};

std::vector<AblationGolden> AblationGoldens() {
  std::vector<AblationGolden> goldens;
  auto add = [&](const char* name, uint64_t fingerprint, auto&& configure) {
    RePagerOptions options;
    configure(options);
    goldens.push_back({name, std::move(options), fingerprint});
  };
  add("kGoldenInitial", 0x12c8a27077b0bc7fULL,
      [](RePagerOptions& o) { o.seed_mode = SeedMode::kInitial; });
  add("kGoldenUnion", 0x1706f2bff2dc54faULL,
      [](RePagerOptions& o) { o.seed_mode = SeedMode::kUnion; });
  add("kGoldenIntersection", 0xa5f284d3496f3043ULL,
      [](RePagerOptions& o) { o.seed_mode = SeedMode::kIntersection; });
  add("kGoldenNoNodeWeights", 0xf16f384fb9227292ULL,
      [](RePagerOptions& o) { o.newst.use_node_weights = false; });
  add("kGoldenNoEdgeWeights", 0x80c9535fb5f73234ULL,
      [](RePagerOptions& o) { o.newst.use_edge_weights = false; });
  add("kGoldenNoSteiner", 0x748a6173414d2d08ULL,
      [](RePagerOptions& o) { o.run_steiner = false; });
  add("kGoldenMinCooccurrence1", 0xab8f670a8faad1fbULL,
      [](RePagerOptions& o) { o.min_cooccurrence = 1; });
  add("kGoldenMinCooccurrence3", 0xcbd0eff5a7a761d6ULL,
      [](RePagerOptions& o) { o.min_cooccurrence = 3; });
  return goldens;
}

TEST_F(GoldenFingerprintFixture, AblationVariantsMatchGolden) {
  for (const AblationGolden& golden : AblationGoldens()) {
    const uint64_t value = PipelineFingerprint(golden.options);
    MaybePrint(golden.name, value);
    EXPECT_EQ(value, golden.fingerprint)
        << golden.name << " changed — if intentional, re-capture with "
        << "RPG_PRINT_FINGERPRINTS=1 (see file header)";
  }
}

TEST_F(GoldenFingerprintFixture, ConCountsOverEveryEdgeMatchGolden) {
  // The Eq. (2) relatedness count for every citation edge: this is the
  // exact integer surface the intersection kernels compute, so a
  // galloping bug cannot hide behind downstream cost smoothing.
  const auto& g = wb_->corpus().citations;
  const auto& weights = wb_->weights();
  ASSERT_EQ(weights.edge_con().size(), g.num_edges());
  Fnv64 fp;
  size_t edge = 0;
  for (graph::PaperId u = 0; u < g.num_nodes(); ++u) {
    for (graph::PaperId v : g.OutNeighbors(u)) {
      int c = weights.Con(u, v);
      fp.Add(static_cast<uint64_t>(c));
      // The con table serving reads must hold the kernels' count for
      // this edge, and the cost looked up through it must be Eq. (2).
      EXPECT_EQ(weights.edge_con()[edge], c) << u << "->" << v;
      EXPECT_EQ(weights.EdgeCostAt(edge), weights.EdgeCost(u, v));
      ++edge;
      fp.AddCost(weights.EdgeCost(u, v));
    }
  }
  MaybePrint("kGoldenConCounts", fp.value());
  EXPECT_EQ(fp.value(), kGoldenConCounts)
      << "Con()/EdgeCost() changed — if intentional, re-capture with "
         "RPG_PRINT_FINGERPRINTS=1 (see file header)";
}

TEST_F(GoldenFingerprintFixture, BatchedPipelineMatchesSameGolden) {
  // The same fingerprint computed through BatchEngine (4 workers,
  // scratch reuse) must land on the same constant: serial == golden and
  // batched == golden pins serial == batched through an independent
  // witness rather than mutual comparison.
  Fnv64 fp;
  const size_t n = std::min<size_t>(wb_->bank().size(), 12);
  std::vector<BatchQuery> batch;
  for (size_t i = 0; i < n; ++i) {
    const auto& entry = wb_->bank().Get(i);
    BatchQuery q;
    q.query = entry.query;
    q.options.year_cutoff = entry.year;
    q.options.exclude = {entry.paper};
    batch.push_back(std::move(q));
  }
  BatchEngine engine(&wb_->repager(), {.num_threads = 4});
  BatchResult result = engine.Run(batch);
  ASSERT_EQ(result.num_ok, batch.size());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(result.results[i].ok());
    AddResult(batch[i].query, batch[i].options, result.results[i].value(),
              &fp);
  }
  EXPECT_EQ(fp.value(), kGoldenPipeline);
}

}  // namespace
}  // namespace rpg::core
