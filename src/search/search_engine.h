#ifndef RPG_SEARCH_SEARCH_ENGINE_H_
#define RPG_SEARCH_SEARCH_ENGINE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/result.h"
#include "search/bm25.h"
#include "search/inverted_index.h"

namespace rpg::search {

/// One ranked hit.
struct SearchResult {
  DocId doc = 0;
  double score = 0.0;
};

/// Ranking profile. The three baseline engines of the paper are modeled
/// as BM25 plus engine-specific popularity/recency boosts — all of them
/// score documents *independently*, with no citation-chain awareness,
/// which is the deficiency (§II-A Observation I) RePaGer addresses.
struct EngineProfile {
  std::string name;
  Bm25Params bm25;
  /// Multiplicative boost 1 + w * log1p(citations) / log1p(max_citations).
  double citation_boost = 0.0;
  /// Multiplicative boost 1 + w * (year - min_year) / (max_year - min_year).
  double recency_boost = 0.0;
};

/// Built-in profiles emulating Google Scholar / Microsoft Academic /
/// AMiner.
EngineProfile GoogleScholarProfile();
EngineProfile MicrosoftAcademicProfile();
EngineProfile AMinerProfile();

/// Reusable working memory for SearchEngine::Search: the per-document
/// BM25 accumulator and the scored-hit list. After the first query both
/// are warm, so a search allocates only the returned top-k. Like
/// core::QueryScratch it carries no state between calls and refers to no
/// engine, so one scratch serves any engine, and results are
/// bit-identical with a fresh or a reused scratch. One per thread.
class SearchScratch {
 public:
  SearchScratch() = default;
  SearchScratch(const SearchScratch&) = delete;
  SearchScratch& operator=(const SearchScratch&) = delete;

 private:
  friend class SearchEngine;
  FlatMap<DocId, double> scores_;
  std::vector<SearchResult> hits_;
};

/// BM25 retrieval engine: one ranking profile over a shared, immutable
/// inverted index. The three baseline engines of a corpus share one
/// index and differ only in their profile and per-document constants.
class SearchEngine {
 public:
  /// An engine scoring `index` with `profile`. `docs` are the indexed
  /// documents (document ids are their positions); only their year and
  /// citation count are read, so a snapshot may leave the text empty.
  /// The citation maximum and the year range the boosts divide by are
  /// derived from `docs`. Fails with InvalidArgument on an empty corpus
  /// or when the index covers a different number of documents.
  static Result<std::unique_ptr<SearchEngine>> Create(
      std::shared_ptr<const InvertedIndex> index,
      const std::vector<EngineDocument>& docs, const EngineProfile& profile);

  /// Returns the top-k documents for a free-text query, restricted to
  /// documents with year <= year_cutoff (pass INT32_MAX for no cutoff).
  /// `exclude` (may be empty) lists doc ids to drop from the ranking —
  /// used to remove the queried survey itself. Hits are ordered by score
  /// descending, then doc id ascending. Builds a fresh SearchScratch.
  std::vector<SearchResult> Search(const std::string& query, size_t top_k,
                                   int year_cutoff,
                                   const std::vector<DocId>& exclude = {}) const;

  /// Same results, with the working memory in `scratch`. The engine is
  /// shared by every solver thread, so the scratch is per thread: never
  /// pass one scratch to concurrent calls.
  std::vector<SearchResult> Search(const std::string& query, size_t top_k,
                                   int year_cutoff,
                                   const std::vector<DocId>& exclude,
                                   SearchScratch* scratch) const;

  const EngineProfile& profile() const { return profile_; }
  size_t num_documents() const { return bm25_norm_.size(); }

  /// The shared index, and the aggregates the boosts divide by (the
  /// snapshot writer records them for provenance).
  const InvertedIndex& index() const { return *index_; }
  uint64_t max_citations() const { return max_citations_; }
  int min_year() const { return min_year_; }
  int max_year() const { return max_year_; }

 private:
  /// The query-independent part of a document's score, computed once
  /// when the engine is created.
  struct DocFactors {
    /// 1 + citation_boost * log1p(citations) / log1p(max_citations),
    /// exactly 1.0 when the boost is off or no document is cited.
    double citation = 1.0;
    /// 1 + recency_boost * (year - min_year) / (max_year - min_year),
    /// exactly 1.0 when the boost is off or the year span is empty.
    double recency = 1.0;
    int year = 0;
  };

  SearchEngine(std::shared_ptr<const InvertedIndex> index,
               const EngineProfile& profile)
      : profile_(profile), index_(std::move(index)) {}

  /// Fills bm25_norm_ and factors_ from the index, the aggregates and
  /// each document's year and citation count.
  void ComputeDocConstants(const std::vector<EngineDocument>& docs);

  EngineProfile profile_;
  /// Per document: BM25's length norm k1 * (1 - b + b * len / avgdl)
  /// (k1 alone when avgdl is 0), read once per posting.
  std::vector<double> bm25_norm_;
  /// Per document: the factors and year read once per scored hit.
  std::vector<DocFactors> factors_;
  std::shared_ptr<const InvertedIndex> index_;
  uint64_t max_citations_ = 0;
  int min_year_ = 0;
  int max_year_ = 0;
};

}  // namespace rpg::search

#endif  // RPG_SEARCH_SEARCH_ENGINE_H_
