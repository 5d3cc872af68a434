#include <gtest/gtest.h>

#include <memory>

#include "search/bm25.h"
#include "search/inverted_index.h"
#include "search/search_engine.h"

namespace rpg::search {
namespace {

// ------------------------------------------------------------------ BM25

TEST(Bm25Test, IdfDecreasesAsMoreDocumentsHoldTheTerm) {
  EXPECT_GT(Bm25Idf(1, 1000), Bm25Idf(10, 1000));
  EXPECT_GT(Bm25Idf(10, 1000), Bm25Idf(500, 1000));
  EXPECT_GE(Bm25Idf(1000, 1000), 0.0);  // never negative
}

TEST(Bm25Test, TermScoreSaturatesWithTf) {
  Bm25Params params;
  double idf = 2.0;
  double s1 = Bm25TermScore(1, 10, 10, idf, params);
  double s5 = Bm25TermScore(5, 10, 10, idf, params);
  double s50 = Bm25TermScore(50, 10, 10, idf, params);
  EXPECT_GT(s5, s1);
  EXPECT_GT(s50, s5);
  // Diminishing returns: the jump 5 -> 50 is smaller than 10x.
  EXPECT_LT(s50, 2.0 * s5);
  // Bounded by idf * (k1 + 1).
  EXPECT_LT(s50, idf * (params.k1 + 1.0));
}

TEST(Bm25Test, LongDocumentsPenalized) {
  Bm25Params params;
  double short_doc = Bm25TermScore(2, 5, 10, 1.5, params);
  double long_doc = Bm25TermScore(2, 50, 10, 1.5, params);
  EXPECT_GT(short_doc, long_doc);
}

TEST(Bm25Test, ZeroTfScoresZero) {
  EXPECT_DOUBLE_EQ(Bm25TermScore(0, 10, 10, 2.0, {}), 0.0);
}

// --------------------------------------------------------- InvertedIndex

TEST(InvertedIndexTest, TitleWeightBoostsTermFrequency) {
  const InvertedIndex index = InvertedIndex::Build(
      {{"neural parsing", "parsing abstracts discuss parsing"}});
  const auto& postings = index.PostingsFor("pars");  // stemmed
  ASSERT_EQ(postings.size(), 1u);
  // 1 title occurrence (weight 3) + 2 abstract occurrences = 5.
  EXPECT_FLOAT_EQ(postings[0].weighted_tf, 5.0f);
}

TEST(InvertedIndexTest, QueriesAreStemmed) {
  const InvertedIndex index = InvertedIndex::Build({{"citation networks", ""}});
  auto terms = InvertedIndex::AnalyzeQuery("Citations Network");
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_FALSE(index.PostingsFor(terms[0]).empty());
  EXPECT_FALSE(index.PostingsFor(terms[1]).empty());
}

TEST(InvertedIndexTest, UnknownTermHasEmptyPostings) {
  const InvertedIndex index = InvertedIndex::Build({{"a", "b"}});
  EXPECT_TRUE(index.PostingsFor("zzz").empty());
}

TEST(InvertedIndexTest, PostingsListEveryDocumentInIdOrder) {
  const InvertedIndex index = InvertedIndex::Build({{"graph algorithms", ""},
                                                    {"speech recognition", ""},
                                                    {"graph theory", "graph"}});
  const auto& graph = index.PostingsFor("graph");
  ASSERT_EQ(graph.size(), 2u);
  EXPECT_EQ(graph[0].doc, 0u);
  EXPECT_EQ(graph[1].doc, 2u);
  EXPECT_FLOAT_EQ(graph[1].weighted_tf, 4.0f);  // title 3 + abstract 1
  EXPECT_EQ(index.num_documents(), 3u);
  EXPECT_DOUBLE_EQ(index.average_doc_length(), 19.0 / 3.0);
}

// ------------------------------------------------------------ SearchEngine

std::vector<EngineDocument> TestDocs() {
  return {
      {"steiner tree algorithms", "steiner tree optimization", 2000, 500},
      {"steiner tree in networks", "network steiner applications", 2010, 50},
      {"reading path generation", "survey reading paths", 2020, 5},
      {"unrelated biology paper", "genome sequencing", 2015, 1000},
  };
}

/// An engine with `profile` over its own index of `docs`.
std::unique_ptr<SearchEngine> MakeEngine(
    const std::vector<EngineDocument>& docs, const EngineProfile& profile) {
  return SearchEngine::Create(
             std::make_shared<const InvertedIndex>(InvertedIndex::Build(docs)),
             docs, profile)
      .value();
}

TEST(SearchEngineTest, RanksLexicalMatchesFirst) {
  auto engine = MakeEngine(TestDocs(), GoogleScholarProfile());
  auto hits = engine->Search("steiner tree", 10, INT32_MAX);
  ASSERT_GE(hits.size(), 2u);
  EXPECT_TRUE(hits[0].doc == 0 || hits[0].doc == 1);
  // The biology paper does not match at all.
  for (const auto& h : hits) EXPECT_NE(h.doc, 3u);
}

TEST(SearchEngineTest, YearCutoffFilters) {
  auto engine = MakeEngine(TestDocs(), GoogleScholarProfile());
  auto hits = engine->Search("steiner tree", 10, 2005);
  for (const auto& h : hits) {
    EXPECT_LE(TestDocs()[h.doc].year, 2005);
  }
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc, 0u);
}

TEST(SearchEngineTest, ExclusionRemovesDocuments) {
  auto engine = MakeEngine(TestDocs(), GoogleScholarProfile());
  auto hits = engine->Search("steiner tree", 10, INT32_MAX, {0});
  for (const auto& h : hits) EXPECT_NE(h.doc, 0u);
}

TEST(SearchEngineTest, TopKTruncates) {
  auto engine = MakeEngine(TestDocs(), GoogleScholarProfile());
  auto hits = engine->Search("steiner tree reading", 1, INT32_MAX);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(SearchEngineTest, NoMatchesYieldsEmpty) {
  auto engine = MakeEngine(TestDocs(), GoogleScholarProfile());
  EXPECT_TRUE(engine->Search("quantum chromodynamics", 10, INT32_MAX).empty());
  EXPECT_TRUE(engine->Search("", 10, INT32_MAX).empty());
}

TEST(SearchEngineTest, ScoresAreSortedDescending) {
  auto engine = MakeEngine(TestDocs(), GoogleScholarProfile());
  auto hits = engine->Search("steiner tree network reading", 10, INT32_MAX);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].score, hits[i].score);
  }
}

TEST(SearchEngineTest, EmptyCorpusRejected) {
  auto empty = std::make_shared<const InvertedIndex>(InvertedIndex::Build({}));
  EXPECT_TRUE(SearchEngine::Create(empty, {}, GoogleScholarProfile())
                  .status()
                  .IsInvalidArgument());
}

TEST(SearchEngineTest, IndexOverOtherDocumentsRejected) {
  std::vector<EngineDocument> docs = TestDocs();
  auto index =
      std::make_shared<const InvertedIndex>(InvertedIndex::Build(docs));
  docs.pop_back();
  EXPECT_TRUE(SearchEngine::Create(index, docs, GoogleScholarProfile())
                  .status()
                  .IsInvalidArgument());
}

TEST(SearchEngineTest, CitationBoostBreaksLexicalTies) {
  // Two identical documents except citations; Scholar prefers the cited.
  std::vector<EngineDocument> docs = {
      {"steiner tree", "same abstract", 2000, 0},
      {"steiner tree", "same abstract", 2000, 10000},
  };
  auto engine = MakeEngine(docs, GoogleScholarProfile());
  auto hits = engine->Search("steiner tree", 2, INT32_MAX);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc, 1u);
}

TEST(SearchEngineTest, RecencyBoostPrefersNewer) {
  std::vector<EngineDocument> docs = {
      {"steiner tree", "same abstract", 1990, 10},
      {"steiner tree", "same abstract", 2020, 10},
  };
  auto engine = MakeEngine(docs, AMinerProfile());
  auto hits = engine->Search("steiner tree", 2, INT32_MAX);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc, 1u);
}

TEST(SearchEngineTest, TiesAtTheTopKBoundaryKeepTheLowestDocIds) {
  // Ten identical documents score identically; the doc-id tiebreak must
  // pick ids 0..3 in ascending order, not any four of the ten.
  std::vector<EngineDocument> docs(10, {"steiner tree", "same", 2000, 7});
  auto engine = MakeEngine(docs, GoogleScholarProfile());
  auto hits = engine->Search("steiner tree", 4, INT32_MAX);
  ASSERT_EQ(hits.size(), 4u);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].doc, i);
    EXPECT_EQ(hits[i].score, hits[0].score);
  }
  // With the lowest ids excluded the next-lowest take their place.
  hits = engine->Search("steiner tree", 4, INT32_MAX, {0, 2});
  std::vector<DocId> ids;
  for (const auto& h : hits) ids.push_back(h.doc);
  EXPECT_EQ(ids, (std::vector<DocId>{1, 3, 4, 5}));
}

TEST(SearchEngineTest, RepeatedQueryTermCountsTwice) {
  auto engine = MakeEngine(TestDocs(), GoogleScholarProfile());
  auto once = engine->Search("reading", 10, INT32_MAX);
  auto twice = engine->Search("reading reading", 10, INT32_MAX);
  ASSERT_EQ(once.size(), 1u);
  ASSERT_EQ(twice.size(), 1u);
  EXPECT_EQ(twice[0].doc, once[0].doc);
  // Doubling is exact in binary floating point, boost factor included.
  EXPECT_EQ(twice[0].score, 2.0 * once[0].score);
}

TEST(SearchEngineTest, ReusedScratchMatchesFreshCalls) {
  auto engine = MakeEngine(TestDocs(), AMinerProfile());
  struct Call {
    std::string query;
    size_t top_k;
    int year_cutoff;
    std::vector<DocId> exclude;
  };
  const std::vector<Call> calls = {
      {"steiner tree network reading", 10, INT32_MAX, {}},
      {"steiner tree", 1, INT32_MAX, {0}},
      {"genome reading paths", 10, 2015, {}},
      {"quantum chromodynamics", 10, INT32_MAX, {}},
      {"steiner steiner tree", 2, 2010, {1, 3}},
      {"steiner tree network reading", 10, INT32_MAX, {}},
  };
  SearchScratch scratch;
  for (const Call& c : calls) {
    SCOPED_TRACE(c.query);
    auto fresh = engine->Search(c.query, c.top_k, c.year_cutoff, c.exclude);
    auto reused =
        engine->Search(c.query, c.top_k, c.year_cutoff, c.exclude, &scratch);
    ASSERT_EQ(reused.size(), fresh.size());
    for (size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(reused[i].doc, fresh[i].doc);
      EXPECT_EQ(reused[i].score, fresh[i].score);
    }
  }
}

TEST(SearchEngineTest, ProfilesHaveDistinctNames) {
  EXPECT_EQ(GoogleScholarProfile().name, "Google");
  EXPECT_EQ(MicrosoftAcademicProfile().name, "Microsoft");
  EXPECT_EQ(AMinerProfile().name, "Aminer");
}

}  // namespace
}  // namespace rpg::search
