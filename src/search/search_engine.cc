#include "search/search_engine.h"

#include <algorithm>
#include <cmath>

namespace rpg::search {

EngineProfile GoogleScholarProfile() {
  EngineProfile p;
  p.name = "Google";
  p.bm25 = {1.2, 0.75};
  p.citation_boost = 0.05;  // mild popularity prior on top of BM25
  p.recency_boost = 0.0;
  return p;
}

EngineProfile MicrosoftAcademicProfile() {
  EngineProfile p;
  p.name = "Microsoft";
  p.bm25 = {1.6, 0.6};      // different lexical normalization
  p.citation_boost = 0.03;  // saliency mixes popularity more lightly
  p.recency_boost = 0.1;
  return p;
}

EngineProfile AMinerProfile() {
  EngineProfile p;
  p.name = "Aminer";
  p.bm25 = {1.2, 0.5};
  p.citation_boost = 0.02;
  p.recency_boost = 0.35;   // favors recent work
  return p;
}

SearchEngine::SearchEngine(std::vector<EngineDocument> docs,
                           const EngineProfile& profile)
    : docs_(std::move(docs)), profile_(profile) {}

Result<std::unique_ptr<SearchEngine>> SearchEngine::Build(
    std::vector<EngineDocument> docs, const EngineProfile& profile) {
  if (docs.empty()) {
    return Status::InvalidArgument("cannot build engine over empty corpus");
  }
  auto engine =
      std::unique_ptr<SearchEngine>(new SearchEngine(std::move(docs), profile));
  engine->min_year_ = INT32_MAX;
  engine->max_year_ = INT32_MIN;
  for (const auto& d : engine->docs_) {
    engine->index_.AddDocument(d.title, d.abstract_text);
    engine->max_citations_ = std::max(engine->max_citations_, d.citations);
    engine->min_year_ = std::min(engine->min_year_, d.year);
    engine->max_year_ = std::max(engine->max_year_, d.year);
  }
  engine->index_.Finalize();
  return engine;
}

Result<std::unique_ptr<SearchEngine>> SearchEngine::Restore(
    std::vector<EngineDocument> docs, const EngineProfile& profile,
    InvertedIndex index, uint64_t max_citations, int min_year,
    int max_year) {
  if (docs.empty()) {
    return Status::InvalidArgument("cannot restore engine over empty corpus");
  }
  if (index.num_documents() != docs.size()) {
    return Status::InvalidArgument("engine restore: index/docs mismatch");
  }
  auto engine =
      std::unique_ptr<SearchEngine>(new SearchEngine(std::move(docs), profile));
  engine->index_ = std::move(index);
  engine->max_citations_ = max_citations;
  engine->min_year_ = min_year;
  engine->max_year_ = max_year;
  return engine;
}

std::vector<SearchResult> SearchEngine::Search(
    const std::string& query, size_t top_k, int year_cutoff,
    const std::vector<DocId>& exclude) const {
  SearchScratch scratch;
  return Search(query, top_k, year_cutoff, exclude, &scratch);
}

std::vector<SearchResult> SearchEngine::Search(
    const std::string& query, size_t top_k, int year_cutoff,
    const std::vector<DocId>& exclude, SearchScratch* scratch) const {
  std::vector<std::string> terms = InvertedIndex::AnalyzeQuery(query);
  FlatMap<DocId, double>& scores = scratch->scores_;
  scores.clear();
  const size_t n = index_.num_documents();
  // Each document's contributions sum in query-term order, so a score is
  // the same double whichever container accumulates it.
  for (const auto& term : terms) {
    const auto& postings = index_.PostingsFor(term);
    if (postings.empty()) continue;
    double idf = Bm25Idf(postings.size(), n);
    for (const Posting& p : postings) {
      scores[p.doc] += Bm25TermScore(p.weighted_tf, index_.DocLength(p.doc),
                                     index_.average_doc_length(), idf,
                                     profile_.bm25);
    }
  }
  // An excluded document's zeroed score fails the bm25 > 0 test below.
  for (DocId doc : exclude) {
    if (double* score = scores.Find(doc)) *score = 0.0;
  }
  double log_max_citations =
      std::log1p(static_cast<double>(max_citations_));
  double year_span = static_cast<double>(max_year_ - min_year_);

  std::vector<SearchResult>& hits = scratch->hits_;
  hits.clear();
  for (const auto& [doc, bm25] : scores) {
    if (bm25 <= 0.0) continue;
    const EngineDocument& d = docs_[doc];
    if (d.year > year_cutoff) continue;
    double score = bm25;
    if (profile_.citation_boost > 0.0 && log_max_citations > 0.0) {
      score *= 1.0 + profile_.citation_boost *
                         std::log1p(static_cast<double>(d.citations)) /
                         log_max_citations;
    }
    if (profile_.recency_boost > 0.0 && year_span > 0.0) {
      score *= 1.0 + profile_.recency_boost *
                         static_cast<double>(d.year - min_year_) / year_span;
    }
    hits.push_back({doc, score});
  }
  // A total order (doc id breaks score ties), so the top k are the same
  // whatever order the hits were collected in.
  const auto kept = hits.begin() + std::min(top_k, hits.size());
  std::partial_sort(hits.begin(), kept, hits.end(),
                    [](const SearchResult& a, const SearchResult& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.doc < b.doc;
                    });
  return std::vector<SearchResult>(hits.begin(), kept);
}

}  // namespace rpg::search
