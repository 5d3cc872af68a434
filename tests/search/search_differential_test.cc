// SearchEngine::Search against a reference: the straightforward
// implementation (a node-based hash map of scores, a hash set of
// excluded ids, a full sort of every scored document, then truncation).
// The engine's accumulator and top-k selection must return the same doc
// ids and bit-equal scores for every SurveyBank query, with and without
// the survey's year cutoff and self-exclusion, on every profile — from
// one thread or from several, each with its own SearchScratch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "eval/workbench.h"
#include "search/search_engine.h"

namespace rpg::search {
namespace {

/// Reference ranking over the engine's public index. `years` and
/// `citations` are the per-document metadata the engine was built with.
std::vector<SearchResult> ReferenceSearch(
    const SearchEngine& engine, const std::vector<uint16_t>& years,
    const std::vector<uint64_t>& citations, const std::string& query,
    size_t top_k, int year_cutoff, const std::vector<DocId>& exclude) {
  const InvertedIndex& index = engine.index();
  const EngineProfile& profile = engine.profile();
  std::unordered_map<DocId, double> scores;
  const size_t n = index.num_documents();
  for (const auto& term : InvertedIndex::AnalyzeQuery(query)) {
    const auto& postings = index.PostingsFor(term);
    if (postings.empty()) continue;
    double idf = Bm25Idf(postings.size(), n);
    for (const Posting& p : postings) {
      scores[p.doc] += Bm25TermScore(p.weighted_tf, index.DocLength(p.doc),
                                     index.average_doc_length(), idf,
                                     profile.bm25);
    }
  }
  std::unordered_set<DocId> excluded(exclude.begin(), exclude.end());
  double log_max_citations =
      std::log1p(static_cast<double>(engine.max_citations()));
  double year_span =
      static_cast<double>(engine.max_year() - engine.min_year());
  std::vector<SearchResult> hits;
  for (const auto& [doc, bm25] : scores) {
    if (bm25 <= 0.0) continue;
    if (years[doc] > year_cutoff) continue;
    if (excluded.contains(doc)) continue;
    double score = bm25;
    if (profile.citation_boost > 0.0 && log_max_citations > 0.0) {
      score *= 1.0 + profile.citation_boost *
                         std::log1p(static_cast<double>(citations[doc])) /
                         log_max_citations;
    }
    if (profile.recency_boost > 0.0 && year_span > 0.0) {
      score *= 1.0 + profile.recency_boost *
                         static_cast<double>(years[doc] - engine.min_year()) /
                         year_span;
    }
    hits.push_back({doc, score});
  }
  std::sort(hits.begin(), hits.end(),
            [](const SearchResult& a, const SearchResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (hits.size() > top_k) hits.resize(top_k);
  return hits;
}

struct Call {
  const std::string* query;
  size_t top_k;
  int year_cutoff;
  std::vector<DocId> exclude;
};

class SearchDifferentialTest : public ::testing::Test {
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
    citations_ = new std::vector<uint64_t>();
    for (size_t i = 0; i < wb_->corpus().num_papers(); ++i) {
      citations_->push_back(wb_->corpus().citations.CitationCount(
          static_cast<graph::PaperId>(i)));
    }
  }
  static void TearDownTestSuite() {
    delete citations_;
    citations_ = nullptr;
    delete wb_;
    wb_ = nullptr;
  }

  /// Every SurveyBank query × top_k {10, 30, 50} × {no restriction, the
  /// survey's year cutoff plus self-exclusion}.
  static std::vector<Call> Calls() {
    std::vector<Call> calls;
    for (const auto& entry : wb_->bank().entries()) {
      for (size_t top_k : {10, 30, 50}) {
        calls.push_back({&entry.query, top_k, INT32_MAX, {}});
        calls.push_back({&entry.query, top_k, entry.year, {entry.paper}});
      }
    }
    return calls;
  }

  static void ExpectSameHits(const std::vector<SearchResult>& got,
                             const std::vector<SearchResult>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].doc, want[i].doc) << "rank " << i;
      EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
    }
  }

  static const eval::Workbench* wb_;
  static std::vector<uint64_t>* citations_;
};

const eval::Workbench* SearchDifferentialTest::wb_ = nullptr;
std::vector<uint64_t>* SearchDifferentialTest::citations_ = nullptr;

TEST_F(SearchDifferentialTest, EveryQueryMatchesTheReference) {
  ASSERT_GT(wb_->bank().size(), 0u);
  for (const SearchEngine* engine :
       {&wb_->google(), &wb_->microsoft(), &wb_->aminer()}) {
    SCOPED_TRACE(engine->profile().name);
    SearchScratch scratch;
    size_t full_pages = 0;
    for (const Call& c : Calls()) {
      SCOPED_TRACE(*c.query);
      auto want = ReferenceSearch(*engine, wb_->years(), *citations_,
                                  *c.query, c.top_k, c.year_cutoff,
                                  c.exclude);
      if (want.size() == c.top_k) ++full_pages;
      ExpectSameHits(engine->Search(*c.query, c.top_k, c.year_cutoff,
                                    c.exclude, &scratch),
                     want);
      ExpectSameHits(
          engine->Search(*c.query, c.top_k, c.year_cutoff, c.exclude), want);
    }
    // The comparison means something only if top_k actually truncates.
    EXPECT_GT(full_pages, 0u);
  }
}

/// The workbench corpus as engine documents, with every citation count
/// replaced by `citations` and every year by `year` when those are set.
struct CorpusDocs {
  std::vector<EngineDocument> docs;
  std::vector<uint16_t> years;
  std::vector<uint64_t> citations;
};

CorpusDocs MakeCorpusDocs(const eval::Workbench& wb,
                          std::optional<uint64_t> citations,
                          std::optional<uint16_t> year) {
  CorpusDocs out;
  const auto& papers = wb.corpus().papers;
  for (size_t i = 0; i < papers.size(); ++i) {
    const uint64_t c = citations.value_or(wb.corpus().citations.CitationCount(
        static_cast<graph::PaperId>(i)));
    const uint16_t y = year.value_or(papers[i].year);
    out.docs.push_back({papers[i].title, papers[i].abstract_text, y, c});
    out.years.push_back(y);
    out.citations.push_back(c);
  }
  return out;
}

/// An engine with `profile` over an index of `corpus`.
std::unique_ptr<SearchEngine> MakeEngine(const CorpusDocs& corpus,
                                         const EngineProfile& profile) {
  return SearchEngine::Create(std::make_shared<const InvertedIndex>(
                                  InvertedIndex::Build(corpus.docs)),
                              corpus.docs, profile)
      .value();
}

/// Creates an engine over `corpus` with each profile that applies both a
/// citation and a recency boost, and holds every call to the reference.
void ExpectEveryCallMatches(const CorpusDocs& corpus,
                            const std::vector<Call>& calls) {
  for (const EngineProfile& profile :
       {MicrosoftAcademicProfile(), AMinerProfile()}) {
    SCOPED_TRACE(profile.name);
    auto engine = MakeEngine(corpus, profile);
    SearchScratch scratch;
    size_t hits = 0;
    for (const Call& c : calls) {
      SCOPED_TRACE(*c.query);
      auto want = ReferenceSearch(*engine, corpus.years, corpus.citations,
                                  *c.query, c.top_k, c.year_cutoff,
                                  c.exclude);
      auto got = engine->Search(*c.query, c.top_k, c.year_cutoff, c.exclude,
                                &scratch);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].doc, want[i].doc) << "rank " << i;
        EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
        EXPECT_TRUE(std::isfinite(got[i].score)) << "rank " << i;
      }
      hits += got.size();
    }
    EXPECT_GT(hits, 0u);
  }
}

TEST_F(SearchDifferentialTest, UncitedCorpusMatchesTheReference) {
  // max_citations 0: the citation boost is off for every document.
  CorpusDocs corpus = MakeCorpusDocs(*wb_, 0, std::nullopt);
  ASSERT_EQ(MakeEngine(corpus, AMinerProfile())->max_citations(), 0u);
  ExpectEveryCallMatches(corpus, Calls());
}

TEST_F(SearchDifferentialTest, SingleYearCorpusMatchesTheReference) {
  // Year span 0: the recency boost is off for every document.
  CorpusDocs corpus = MakeCorpusDocs(*wb_, std::nullopt, 2005);
  auto engine = MakeEngine(corpus, AMinerProfile());
  ASSERT_EQ(engine->min_year(), engine->max_year());
  ExpectEveryCallMatches(corpus, Calls());
}

/// The three profiles score from one shared index: threads spread over
/// the engines, each with its own scratch, read the same postings at
/// once and must each return their engine's serial results.
TEST_F(SearchDifferentialTest, ConcurrentScratchesMatchSerialResults) {
  const std::vector<const SearchEngine*> engines = {
      &wb_->google(), &wb_->microsoft(), &wb_->aminer()};
  for (const SearchEngine* engine : engines) {
    EXPECT_EQ(&engine->index(), &wb_->google().index());
  }
  const std::vector<Call> calls = Calls();
  std::vector<std::vector<std::vector<SearchResult>>> serial(engines.size());
  for (size_t e = 0; e < engines.size(); ++e) {
    for (const Call& c : calls) {
      serial[e].push_back(
          engines[e]->Search(*c.query, c.top_k, c.year_cutoff, c.exclude));
    }
  }
  constexpr size_t kThreads = 6;
  std::vector<std::vector<std::vector<SearchResult>>> got(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const SearchEngine& engine = *engines[t % engines.size()];
      SearchScratch scratch;
      for (const Call& c : calls) {
        got[t].push_back(engine.Search(*c.query, c.top_k, c.year_cutoff,
                                       c.exclude, &scratch));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    const size_t e = t % engines.size();
    SCOPED_TRACE(engines[e]->profile().name);
    ASSERT_EQ(got[t].size(), serial[e].size());
    for (size_t i = 0; i < serial[e].size(); ++i) {
      SCOPED_TRACE(*calls[i].query);
      ExpectSameHits(got[t][i], serial[e][i]);
    }
  }
}

}  // namespace
}  // namespace rpg::search
