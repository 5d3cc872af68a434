// End-to-end tests over a small but fully wired workbench: corpus,
// SurveyBank, engines, weights, RePaGer, baselines, evaluation.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "eval/baselines.h"
#include "eval/evaluator.h"
#include "eval/overlap.h"
#include "eval/preference_judge.h"
#include "eval/workbench.h"
#include "graph/graph_builder.h"
#include "rank/pagerank.h"

namespace rpg::eval {
namespace {

using graph::PaperId;

class WorkbenchFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkbenchOptions options;
    options.corpus.hierarchy.areas_per_domain = 2;
    options.corpus.hierarchy.topics_per_area = 2;
    options.corpus.papers_per_topic = 60;
    options.corpus.papers_per_area = 20;
    options.corpus.papers_per_domain = 15;
    options.corpus.num_surveys = 100;
    options.corpus.seed = 33;
    wb_ = Workbench::Create(options).value().release();
  }
  static void TearDownTestSuite() {
    delete wb_;
    wb_ = nullptr;
  }

  /// First bank entry with a non-empty L3 label.
  static const surveybank::SurveyEntry& AnyEntry() {
    for (size_t i = 0; i < wb_->bank().size(); ++i) {
      if (!wb_->bank().Get(i).label_l3.empty()) return wb_->bank().Get(i);
    }
    return wb_->bank().Get(0);
  }

  static const Workbench* wb_;
};

const Workbench* WorkbenchFixture::wb_ = nullptr;

TEST_F(WorkbenchFixture, SubstratesAreWired) {
  EXPECT_GT(wb_->corpus().num_papers(), 1000u);
  EXPECT_GT(wb_->bank().size(), 20u);
  EXPECT_EQ(wb_->pagerank().size(), wb_->corpus().num_papers());
  EXPECT_EQ(wb_->venue_scores().size(), wb_->corpus().num_papers());
  EXPECT_EQ(wb_->titles().size(), wb_->years().size());
}

TEST_F(WorkbenchFixture, RePagerProducesPathAndRanking) {
  const auto& entry = AnyEntry();
  core::RePagerOptions options;
  options.year_cutoff = entry.year;
  options.exclude = {entry.paper};
  auto result = wb_->repager().Generate(entry.query, options).value();
  const std::vector<PaperId> ranked =
      wb_->repager().Rank(entry.query, options).value();

  EXPECT_FALSE(ranked.empty());
  EXPECT_EQ(result.initial_seeds.size(), 30u);
  EXPECT_FALSE(result.path.empty());
  EXPECT_GT(result.subgraph_nodes, result.path.size());

  // Ranking has no duplicates and respects exclusion + cutoff.
  std::unordered_set<PaperId> seen;
  for (PaperId p : ranked) {
    EXPECT_TRUE(seen.insert(p).second) << "duplicate " << p;
    EXPECT_NE(p, entry.paper);
    EXPECT_LE(wb_->years()[p], entry.year);
  }
  // All terminals are in the path and the ranking.
  std::unordered_set<PaperId> path_nodes(result.path.nodes().begin(),
                                         result.path.nodes().end());
  for (PaperId t : result.terminals) {
    EXPECT_TRUE(path_nodes.contains(t));
    EXPECT_TRUE(seen.contains(t));
  }
}

TEST_F(WorkbenchFixture, RePagerIsDeterministic) {
  const auto& entry = AnyEntry();
  core::RePagerOptions options;
  options.year_cutoff = entry.year;
  options.exclude = {entry.paper};
  auto a = wb_->repager().Generate(entry.query, options).value();
  auto b = wb_->repager().Generate(entry.query, options).value();
  EXPECT_EQ(wb_->repager().Rank(entry.query, options).value(),
            wb_->repager().Rank(entry.query, options).value());
  EXPECT_EQ(a.path.nodes(), b.path.nodes());
  EXPECT_EQ(a.path.edges(), b.path.edges());
}

TEST_F(WorkbenchFixture, RePagerRejectsBadInput) {
  EXPECT_TRUE(wb_->repager().Generate("").status().IsInvalidArgument());
  core::RePagerOptions options;
  options.num_initial_seeds = 0;
  EXPECT_TRUE(
      wb_->repager().Generate("x", options).status().IsInvalidArgument());
  EXPECT_TRUE(wb_->repager()
                  .Generate("zzzz qqqq xxxx vvvv")
                  .status()
                  .IsNotFound());
}

TEST_F(WorkbenchFixture, RankFailsWithGeneratesStatus) {
  const std::string query = "zzzz qqqq xxxx vvvv";
  const Status generated = wb_->repager().Generate(query).status();
  const Status ranked = wb_->repager().Rank(query, {}).status();
  ASSERT_TRUE(generated.IsNotFound());
  EXPECT_TRUE(ranked.IsNotFound());
  EXPECT_EQ(ranked.ToString(), generated.ToString());
}

TEST_F(WorkbenchFixture, UnsortedExclusionsNeverReachTheResult) {
  const auto& entry = AnyEntry();
  core::RePagerOptions options;
  options.year_cutoff = entry.year;
  const std::vector<PaperId> base =
      wb_->repager().Rank(entry.query, options).value();
  ASSERT_GE(base.size(), 12u);
  // Papers from the head and the tail of the ranking, in descending id
  // order and with a duplicate, so the exclusion list arrives unsorted.
  std::vector<PaperId> exclude(base.begin(), base.begin() + 3);
  exclude.insert(exclude.end(), base.end() - 6, base.end());
  std::sort(exclude.rbegin(), exclude.rend());
  exclude.push_back(exclude.front());
  options.exclude = exclude;
  auto result = wb_->repager().Generate(entry.query, options).value();
  const std::vector<PaperId> ranked =
      wb_->repager().Rank(entry.query, options).value();
  const std::unordered_set<PaperId> excluded(exclude.begin(), exclude.end());
  for (PaperId p : ranked) EXPECT_FALSE(excluded.contains(p)) << p;
  for (PaperId p : result.path.nodes()) {
    EXPECT_FALSE(excluded.contains(p)) << p;
  }
  EXPECT_EQ(result.subgraph_nodes, ranked.size());
}

TEST_F(WorkbenchFixture, ReadingPathEdgesFollowYears) {
  const auto& entry = AnyEntry();
  core::RePagerOptions options;
  options.year_cutoff = entry.year;
  options.exclude = {entry.paper};
  auto result = wb_->repager().Generate(entry.query, options).value();
  for (const auto& [first, next] : result.path.edges()) {
    EXPECT_LE(wb_->years()[first], wb_->years()[next]);
  }
  // Flattened order never reads a paper before its prerequisite.
  auto order = result.path.FlattenedOrder(wb_->years());
  std::unordered_map<PaperId, size_t> position;
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (const auto& [first, next] : result.path.edges()) {
    EXPECT_LT(position[first], position[next]);
  }
}

TEST_F(WorkbenchFixture, AllMethodsProduceValidRankings) {
  const auto& entry = AnyEntry();
  QuerySpec spec{entry.query, entry.year, entry.paper};
  for (Method method : AllMethods()) {
    auto ranked_or = RankedListFor(*wb_, method, spec, 30);
    ASSERT_TRUE(ranked_or.ok()) << MethodName(method);
    const auto& ranked = ranked_or.value();
    EXPECT_FALSE(ranked.empty()) << MethodName(method);
    EXPECT_LE(ranked.size(), 30u) << MethodName(method);
    std::unordered_set<PaperId> seen;
    for (PaperId p : ranked) {
      EXPECT_TRUE(seen.insert(p).second) << MethodName(method);
      EXPECT_NE(p, entry.paper) << MethodName(method);
      EXPECT_LE(wb_->years()[p], entry.year) << MethodName(method);
    }
  }
}

TEST_F(WorkbenchFixture, EvaluatorProducesSaneMetrics) {
  auto sample = Evaluator::SampleEntries(wb_->bank(), 8, 1);
  ASSERT_FALSE(sample.empty());
  Evaluator evaluator(wb_, sample);
  auto grid =
      evaluator.RunSweep(Method::kNewst, {30}, {LabelLevel::kAtLeast1}).value();
  const CellResult& cell = grid[0][0];
  EXPECT_GT(cell.f1, 0.0);
  EXPECT_LE(cell.precision, 1.0);
  EXPECT_LE(cell.recall, 1.0);
  EXPECT_EQ(cell.queries, sample.size());
}

TEST_F(WorkbenchFixture, MoreRelaxedLabelsNeverHurtRecallAtFixedK) {
  // L3 ⊆ L1, so recall against L3 >= recall against L1 is NOT implied,
  // but precision against L1 >= precision against L3 is (more targets).
  auto sample = Evaluator::SampleEntries(wb_->bank(), 6, 3);
  Evaluator evaluator(wb_, sample);
  auto l1 =
      evaluator.RunSweep(Method::kNewst, {30}, {LabelLevel::kAtLeast1}).value();
  auto l3 =
      evaluator.RunSweep(Method::kNewst, {30}, {LabelLevel::kAtLeast3}).value();
  EXPECT_GE(l1[0][0].precision, l3[0][0].precision);
}

TEST_F(WorkbenchFixture, OverlapRatiosIncreaseWithOrder) {
  OverlapOptions options;
  options.top_k = 30;
  options.subset_size = 15;
  auto result = RunOverlapExperiment(*wb_, options).value();
  EXPECT_GT(result.surveys, 0u);
  for (int label = 0; label < 3; ++label) {
    EXPECT_LE(result.ratio[0][label], result.ratio[1][label] + 1e-9);
    EXPECT_LE(result.ratio[1][label], result.ratio[2][label] + 1e-9);
    for (int order = 0; order < 3; ++order) {
      EXPECT_GE(result.ratio[order][label], 0.0);
      EXPECT_LE(result.ratio[order][label], 1.0);
    }
  }
}

TEST_F(WorkbenchFixture, PreferenceStudyVotesSumToOne) {
  PreferenceOptions options;
  options.queries_per_domain = 5;
  options.participants = 3;
  auto result = RunPreferenceStudy(*wb_, 0, options).value();
  EXPECT_GT(result.queries, 0u);
  for (const CriterionOutcome* o :
       {&result.prerequisite, &result.relevance, &result.completeness}) {
    EXPECT_NEAR(o->prefer_a + o->same + o->prefer_b, 1.0, 1e-9);
  }
  // NEWST must dominate the prerequisite axis (it is the only system
  // with reading order).
  EXPECT_GT(result.prerequisite.prefer_b, 0.5);
}

TEST_F(WorkbenchFixture, AblationVariantsAllRun) {
  const auto& entry = AnyEntry();
  for (core::SeedMode mode :
       {core::SeedMode::kReallocated, core::SeedMode::kInitial,
        core::SeedMode::kUnion, core::SeedMode::kIntersection}) {
    core::RePagerOptions options;
    options.seed_mode = mode;
    options.year_cutoff = entry.year;
    options.exclude = {entry.paper};
    auto ranked = wb_->repager().Rank(entry.query, options);
    ASSERT_TRUE(ranked.ok());
    EXPECT_FALSE(ranked->empty());
  }
  for (bool node_weights : {true, false}) {
    for (bool edge_weights : {true, false}) {
      core::RePagerOptions options;
      options.newst.use_node_weights = node_weights;
      options.newst.use_edge_weights = edge_weights;
      options.year_cutoff = entry.year;
      options.exclude = {entry.paper};
      ASSERT_TRUE(wb_->repager().Generate(entry.query, options).ok());
    }
  }
  core::RePagerOptions no_steiner;
  no_steiner.run_steiner = false;
  no_steiner.year_cutoff = entry.year;
  no_steiner.exclude = {entry.paper};
  auto result = wb_->repager().Generate(entry.query, no_steiner).value();
  EXPECT_TRUE(result.path.empty());
  EXPECT_FALSE(wb_->repager().Rank(entry.query, no_steiner).value().empty());
}

TEST_F(WorkbenchFixture, SeedCountChangesSubgraphScale) {
  const auto& entry = AnyEntry();
  core::RePagerOptions small, large;
  small.num_initial_seeds = 10;
  large.num_initial_seeds = 50;
  small.year_cutoff = large.year_cutoff = entry.year;
  small.exclude = large.exclude = {entry.paper};
  auto a = wb_->repager().Generate(entry.query, small).value();
  auto b = wb_->repager().Generate(entry.query, large).value();
  EXPECT_LE(a.subgraph_nodes, b.subgraph_nodes);
}

// ------------------------------------------------------ planted bridge

/// The one property the Steiner step exists for (§IV-A step 5): a paper
/// that no seed cites twice, so co-occurrence never makes it a terminal,
/// joins the result because it is the only bridge between two terminal
/// clusters. Seeds A1, A2 cite TA and B1, B2 cite TB; TA and TB both cite
/// Z, which none of the seeds cites. Years grow older down the chain,
/// and filler papers that do not match the query sit outside the
/// subgraph.
class PlantedBridgeTest : public ::testing::Test {
 protected:
  enum : PaperId { kA1, kA2, kB1, kB2, kTA, kTB, kZ, kNumPlanted };
  static constexpr size_t kNumFillers = 4;
  static constexpr size_t kNumPapers = kNumPlanted + kNumFillers;
  static constexpr const char* kQuery = "planted bridge";

  void SetUp() override {
    graph::GraphBuilder builder(kNumPapers);
    builder.AddCitation(kA1, kTA);
    builder.AddCitation(kA2, kTA);
    builder.AddCitation(kB1, kTB);
    builder.AddCitation(kB2, kTB);
    builder.AddCitation(kTA, kZ);
    builder.AddCitation(kTB, kZ);
    for (PaperId f = kNumPlanted; f + 1 < kNumPapers; ++f) {
      builder.AddCitation(f + 1, f);
    }
    graph_ = std::make_unique<graph::CitationGraph>(builder.Build().value());

    struct Planted {
      const char* title;
      uint16_t year;
    };
    const Planted planted[kNumPlanted] = {
        {"planted bridge study one", 2020},
        {"planted bridge study two", 2020},
        {"planted bridge report one", 2020},
        {"planted bridge report two", 2020},
        {"prerequisite alpha method", 2010},
        {"prerequisite beta method", 2010},
        {"foundational theory", 2000}};
    std::vector<search::EngineDocument> docs;
    for (PaperId p = 0; p < kNumPapers; ++p) {
      const Planted paper = p < kNumPlanted
                                ? planted[p]
                                : Planted{"unrelated filler paper", 2015};
      years_.push_back(paper.year);
      docs.push_back({paper.title, "", paper.year, graph_->InDegree(p)});
    }
    engine_ = search::SearchEngine::Create(
                  std::make_shared<const search::InvertedIndex>(
                      search::InvertedIndex::Build(docs)),
                  docs, search::GoogleScholarProfile())
                  .value();
    weights_ = std::make_unique<rank::WeightModel>(
        graph_.get(), rank::NormalizeByMax(rank::PageRank(*graph_)),
        std::vector<double>(kNumPapers, 0.5));
    repager_ = std::make_unique<core::RePaGer>(graph_.get(), engine_.get(),
                                               weights_.get(), &years_);
  }

  /// Position of `p` in `ranked`.
  static size_t RankOf(const std::vector<PaperId>& ranked, PaperId p) {
    return std::find(ranked.begin(), ranked.end(), p) - ranked.begin();
  }

  std::unique_ptr<graph::CitationGraph> graph_;
  std::vector<uint16_t> years_;
  std::unique_ptr<search::SearchEngine> engine_;
  std::unique_ptr<rank::WeightModel> weights_;
  std::unique_ptr<core::RePaGer> repager_;
};

TEST_F(PlantedBridgeTest, SteinerStepAddsTheBridge) {
  auto result = repager_->Generate(kQuery).value();
  std::vector<PaperId> seeds = result.initial_seeds;
  std::sort(seeds.begin(), seeds.end());
  ASSERT_EQ(seeds, (std::vector<PaperId>{kA1, kA2, kB1, kB2}));
  std::vector<PaperId> terminals = result.terminals;
  std::sort(terminals.begin(), terminals.end());
  EXPECT_EQ(terminals, (std::vector<PaperId>{kTA, kTB}));
  EXPECT_EQ(result.path.nodes(), (std::vector<PaperId>{kTA, kTB, kZ}));

  // The bridge ranks in the tree block, ahead of every seed.
  const std::vector<PaperId> ranked = repager_->Rank(kQuery, {}).value();
  ASSERT_EQ(ranked.size(), 7u);
  EXPECT_EQ(RankOf(ranked, kZ), 2u);
  for (PaperId seed : seeds) {
    EXPECT_GT(RankOf(ranked, seed), RankOf(ranked, kZ));
  }
}

TEST_F(PlantedBridgeTest, WithoutSteinerTheBridgeRanksAfterTheSeeds) {
  core::RePagerOptions no_steiner;
  no_steiner.run_steiner = false;
  const std::vector<PaperId> ranked =
      repager_->Rank(kQuery, no_steiner).value();
  ASSERT_EQ(ranked.size(), 7u);
  for (PaperId seed : {kA1, kA2, kB1, kB2}) {
    EXPECT_LT(RankOf(ranked, seed), RankOf(ranked, kZ));
  }
}

}  // namespace
}  // namespace rpg::eval
