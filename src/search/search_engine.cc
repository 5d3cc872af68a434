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

Result<std::unique_ptr<SearchEngine>> SearchEngine::Create(
    std::shared_ptr<const InvertedIndex> index,
    const std::vector<EngineDocument>& docs, const EngineProfile& profile) {
  if (docs.empty()) {
    return Status::InvalidArgument("cannot create engine over empty corpus");
  }
  if (index->num_documents() != docs.size()) {
    return Status::InvalidArgument("engine create: index/docs mismatch");
  }
  auto engine = std::unique_ptr<SearchEngine>(
      new SearchEngine(std::move(index), profile));
  engine->min_year_ = INT32_MAX;
  engine->max_year_ = INT32_MIN;
  for (const auto& d : docs) {
    engine->max_citations_ = std::max(engine->max_citations_, d.citations);
    engine->min_year_ = std::min(engine->min_year_, d.year);
    engine->max_year_ = std::max(engine->max_year_, d.year);
  }
  engine->ComputeDocConstants(docs);
  return engine;
}

void SearchEngine::ComputeDocConstants(
    const std::vector<EngineDocument>& docs) {
  // Each expression is the one Search used to evaluate per posting or
  // per hit, in the same order, so every score keeps its bits. Years are
  // subtracted as doubles: exact for any pair of ints.
  const Bm25Params& bm25 = profile_.bm25;
  const double avg_doc_length = index_->average_doc_length();
  const double log_max_citations =
      std::log1p(static_cast<double>(max_citations_));
  const double min_year = static_cast<double>(min_year_);
  const double year_span = static_cast<double>(max_year_) - min_year;
  const bool cite = profile_.citation_boost > 0.0 && log_max_citations > 0.0;
  const bool recent = profile_.recency_boost > 0.0 && year_span > 0.0;
  bm25_norm_.resize(docs.size());
  factors_.resize(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    const double doc_length = index_->DocLength(static_cast<DocId>(i));
    bm25_norm_[i] =
        avg_doc_length > 0.0
            ? bm25.k1 * (1.0 - bm25.b + bm25.b * doc_length / avg_doc_length)
            : bm25.k1;
    DocFactors& f = factors_[i];
    f.year = docs[i].year;
    const double citations = static_cast<double>(docs[i].citations);
    if (cite) {
      f.citation = 1.0 + profile_.citation_boost * std::log1p(citations) /
                             log_max_citations;
    }
    if (recent) {
      f.recency = 1.0 + profile_.recency_boost *
                            (static_cast<double>(f.year) - min_year) /
                            year_span;
    }
  }
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
  const size_t n = index_->num_documents();
  const double k1_plus_1 = profile_.bm25.k1 + 1.0;
  // Each document's contributions sum in query-term order, so a score is
  // the same double whichever container accumulates it. A contribution
  // is Bm25TermScore's expression with the document's norm precomputed.
  for (const auto& term : terms) {
    const auto& postings = index_->PostingsFor(term);
    if (postings.empty()) continue;
    double idf = Bm25Idf(postings.size(), n);
    for (const Posting& p : postings) {
      const double tf = p.weighted_tf;
      double& score = scores[p.doc];
      if (tf <= 0.0) continue;
      score += idf * tf * k1_plus_1 / (tf + bm25_norm_[p.doc]);
    }
  }
  // An excluded document's zeroed score fails the bm25 > 0 test below.
  for (DocId doc : exclude) {
    if (double* score = scores.Find(doc)) *score = 0.0;
  }

  std::vector<SearchResult>& hits = scratch->hits_;
  hits.clear();
  for (const auto& [doc, bm25] : scores) {
    if (bm25 <= 0.0) continue;
    const DocFactors& f = factors_[doc];
    if (f.year > year_cutoff) continue;
    // A factor that is off is exactly 1.0, so multiplying by it is exact.
    hits.push_back({doc, bm25 * f.citation * f.recency});
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
