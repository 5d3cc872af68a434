// Seed reallocation and the ranking evidence against a reference: the
// straightforward implementation that counts co-occurrence separately
// for each use (the co-cited non-seeds, the seeds co-cited by fellow
// seeds, and the per-paper evidence Rank orders by). The single
// count that now feeds all three must give the same terminal lists for
// every SeedMode and threshold, and RePaGer::Rank's list must order
// each block exactly as the reference evidence does — for every
// SurveyBank query and seed count, and on a graph whose seeds cite
// themselves.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/repager.h"
#include "core/seed_reallocator.h"
#include "eval/workbench.h"
#include "graph/graph_io.h"

namespace rpg::core {
namespace {

using graph::PaperId;

/// Reference: papers outside the seed set cited by at least
/// `min_cooccurrence` distinct in-range seeds, by count then id.
std::vector<PaperId> RefCoOccurrencePapers(const graph::CitationGraph& g,
                                           const std::vector<PaperId>& seeds,
                                           int min_cooccurrence) {
  std::unordered_set<PaperId> seed_set(seeds.begin(), seeds.end());
  std::unordered_map<PaperId, int> counts;
  for (PaperId s : seed_set) {
    if (s >= g.num_nodes()) continue;
    for (PaperId cited : g.OutNeighbors(s)) {
      if (!seed_set.contains(cited)) ++counts[cited];
    }
  }
  std::vector<std::pair<PaperId, int>> scored;
  for (const auto& [p, c] : counts) {
    if (c >= min_cooccurrence) scored.emplace_back(p, c);
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<PaperId> out;
  for (const auto& [p, c] : scored) out.push_back(p);
  return out;
}

/// Reference SeedMode application, falling back to `initial`.
std::vector<PaperId> RefReallocateSeeds(const graph::CitationGraph& g,
                                        const std::vector<PaperId>& initial,
                                        SeedMode mode, int min_cooccurrence) {
  std::vector<PaperId> result;
  switch (mode) {
    case SeedMode::kInitial:
      result = initial;
      break;
    case SeedMode::kReallocated:
      result = RefCoOccurrencePapers(g, initial, min_cooccurrence);
      break;
    case SeedMode::kUnion: {
      result = RefCoOccurrencePapers(g, initial, min_cooccurrence);
      result.insert(result.end(), initial.begin(), initial.end());
      std::sort(result.begin(), result.end());
      result.erase(std::unique(result.begin(), result.end()), result.end());
      break;
    }
    case SeedMode::kIntersection: {
      std::unordered_set<PaperId> seed_set(initial.begin(), initial.end());
      std::unordered_map<PaperId, int> counts;
      for (PaperId s : seed_set) {
        if (s >= g.num_nodes()) continue;
        for (PaperId cited : g.OutNeighbors(s)) {
          if (seed_set.contains(cited) && cited != s) ++counts[cited];
        }
      }
      for (PaperId s : initial) {
        auto it = counts.find(s);
        if (it != counts.end() && it->second >= min_cooccurrence) {
          result.push_back(s);
        }
      }
      break;
    }
  }
  if (result.empty()) result = initial;
  return result;
}

/// Reference ranking evidence: every citation by a distinct seed counts
/// one, a seed's citation of itself included.
std::unordered_map<PaperId, int> RefEvidenceCounts(
    const graph::CitationGraph& g, const std::vector<PaperId>& seeds) {
  std::unordered_set<PaperId> seed_set(seeds.begin(), seeds.end());
  std::unordered_map<PaperId, int> counts;
  for (PaperId s : seed_set) {
    for (PaperId cited : g.OutNeighbors(s)) ++counts[cited];
  }
  return counts;
}

constexpr SeedMode kModes[] = {SeedMode::kReallocated, SeedMode::kInitial,
                               SeedMode::kUnion, SeedMode::kIntersection};

/// The new code and the reference agree on every mode and threshold for
/// `seeds`, and the shared count equals the reference evidence.
void ExpectSameAsReference(const graph::CitationGraph& g,
                           const std::vector<PaperId>& seeds) {
  for (int min : {0, 1, 2, 3}) {
    EXPECT_EQ(CoOccurrencePapers(g, seeds, min),
              RefCoOccurrencePapers(g, seeds, min))
        << "min " << min;
    for (SeedMode mode : kModes) {
      EXPECT_EQ(ReallocateSeeds(g, seeds, mode, min),
                RefReallocateSeeds(g, seeds, mode, min))
          << "mode " << static_cast<int>(mode) << " min " << min;
    }
  }
  std::vector<PaperId> in_range;
  for (PaperId s : seeds) {
    if (s < g.num_nodes()) in_range.push_back(s);
  }
  std::vector<PaperId> seed_set;
  FlatMap<PaperId, int> counts;
  CountCoOccurrence(g, seeds, &seed_set, &counts);
  const auto want = RefEvidenceCounts(g, in_range);
  EXPECT_EQ(counts.size(), want.size());
  for (const auto& [p, c] : want) {
    const int* got = counts.Find(p);
    ASSERT_NE(got, nullptr) << p;
    EXPECT_EQ(*got, c) << p;
  }
}

TEST(SeedReallocationDifferentialTest, SelfCitingSeedsMatchTheReference) {
  // Seeds 0, 1, 2 each cite themselves, which GraphBuilder would drop
  // but a snapshot's CSR may hold. Seed 2 is cited only by itself, so
  // kIntersection must leave it out at threshold 1; seed 1 is cited by
  // 0, 2 and itself, so it must miss threshold 3.
  const std::vector<uint64_t> offsets = {0, 3, 5, 9, 10, 10, 10};
  const std::vector<PaperId> targets = {0, 1, 3,     // paper 0
                                        1, 3,        // paper 1
                                        0, 1, 2, 4,  // paper 2
                                        4};          // paper 3
  auto g = graph::GraphIo::FromOutCsr(offsets, targets);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(ReallocateSeeds(*g, {0, 1, 2}, SeedMode::kIntersection, 1),
            (std::vector<PaperId>{0, 1}));
  EXPECT_EQ(ReallocateSeeds(*g, {0, 1, 2}, SeedMode::kIntersection, 3),
            (std::vector<PaperId>{0, 1, 2}));
  for (const std::vector<PaperId>& seeds :
       {std::vector<PaperId>{0, 1, 2}, std::vector<PaperId>{2, 0, 1, 2},
        std::vector<PaperId>{0, 1, 2, 99}, std::vector<PaperId>{2, 3},
        std::vector<PaperId>{5}}) {
    ExpectSameAsReference(*g, seeds);
  }
}

class SeedReallocationWorkbenchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
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

  static const eval::Workbench* wb_;
};

const eval::Workbench* SeedReallocationWorkbenchTest::wb_ = nullptr;

/// Generate's terminals and Rank's list, rebuilt from the reference:
/// the reference terminals restricted to the subgraph (or the surviving
/// seeds), then the tree, the remaining seeds and the rest of the
/// subgraph, each block ordered by reference evidence, importance, id.
void ExpectGenerateMatchesReference(const eval::Workbench& wb,
                                    const std::string& query,
                                    const RePagerOptions& options,
                                    const RePagerResult& r) {
  const graph::CitationGraph& g = wb.corpus().citations;
  const std::vector<PaperId>& seeds = r.initial_seeds;
  auto ranked_or = wb.repager().Rank(query, options);
  ASSERT_TRUE(ranked_or.ok()) << ranked_or.status().ToString();
  const std::vector<PaperId>& ranked = ranked_or.value();
  const std::unordered_set<PaperId> members(ranked.begin(), ranked.end());
  ASSERT_EQ(members.size(), r.subgraph_nodes);

  std::vector<PaperId> terminals = RefReallocateSeeds(
      g, seeds, options.seed_mode, options.min_cooccurrence);
  std::erase_if(terminals, [&](PaperId p) { return !members.contains(p); });
  if (terminals.empty()) {
    for (PaperId p : seeds) {
      if (members.contains(p)) terminals.push_back(p);
    }
  }
  ASSERT_EQ(r.terminals, terminals);

  const auto counts = RefEvidenceCounts(g, seeds);
  const std::unordered_set<PaperId> seed_set(seeds.begin(), seeds.end());
  auto evidence = [&](PaperId p) {
    double score = 0.0;
    if (auto it = counts.find(p); it != counts.end()) score += it->second;
    if (seed_set.contains(p)) score += 1.2;
    return score;
  };
  auto by_evidence = [&](std::vector<PaperId> block) {
    std::sort(block.begin(), block.end(), [&](PaperId a, PaperId b) {
      const double ea = evidence(a), eb = evidence(b);
      if (ea != eb) return ea > eb;
      const double ia = wb.repager().Importance(a);
      const double ib = wb.repager().Importance(b);
      if (ia != ib) return ia > ib;
      return a < b;
    });
    return block;
  };
  std::vector<PaperId> want =
      by_evidence(options.run_steiner ? r.path.nodes() : r.terminals);
  std::unordered_set<PaperId> emitted(want.begin(), want.end());
  std::vector<PaperId> seed_block;
  for (PaperId s : seeds) {
    if (members.contains(s) && !emitted.contains(s)) seed_block.push_back(s);
  }
  for (PaperId s : by_evidence(seed_block)) {
    emitted.insert(s);
    want.push_back(s);
  }
  std::vector<PaperId> rest;
  for (PaperId p : ranked) {
    if (!emitted.contains(p)) rest.push_back(p);
  }
  for (PaperId p : by_evidence(rest)) want.push_back(p);
  EXPECT_EQ(ranked, want);
}

TEST_F(SeedReallocationWorkbenchTest, EveryQueryMatchesTheReference) {
  const graph::CitationGraph& g = wb_->corpus().citations;
  ASSERT_GT(wb_->bank().size(), 0u);
  QueryScratch scratch;
  size_t generated = 0;
  for (const auto& entry : wb_->bank().entries()) {
    for (int num_seeds : {10, 30, 50}) {
      bool checked_seeds = false;
      for (SeedMode mode : kModes) {
        for (int min : {1, 2, 3}) {
          RePagerOptions options;
          options.num_initial_seeds = num_seeds;
          options.seed_mode = mode;
          options.min_cooccurrence = min;
          options.year_cutoff = entry.year;
          options.exclude = {entry.paper};
          auto result =
              wb_->repager().Generate(entry.query, options, &scratch);
          if (!result.ok()) continue;
          ++generated;
          if (!checked_seeds) {
            ExpectSameAsReference(g, result->initial_seeds);
            checked_seeds = true;
          }
          ExpectGenerateMatchesReference(*wb_, entry.query, options, *result);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(generated, wb_->bank().size());
}

}  // namespace
}  // namespace rpg::core
