#ifndef RPG_SEARCH_SEARCH_ENGINE_H_
#define RPG_SEARCH_SEARCH_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/flat_hash.h"
#include "common/result.h"
#include "search/bm25.h"
#include "search/inverted_index.h"

namespace rpg::search {

/// A document handed to the engine at build time. `citations` is the
/// paper's current citation count (used for popularity boosts) and `year`
/// its publication year (used for time-range restriction, mirroring the
/// paper's "anytime .. survey year" search setting).
struct EngineDocument {
  std::string title;
  std::string abstract_text;
  int year = 0;
  uint64_t citations = 0;
};

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

/// BM25 retrieval engine over a fixed document collection.
class SearchEngine {
 public:
  /// Builds the index. Document ids are their positions in `docs`.
  static Result<std::unique_ptr<SearchEngine>> Build(
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

  /// Snapshot support — rebuilds an engine from a restored index plus
  /// the per-document metadata Search() consults at query time (year and
  /// citation count; title/abstract text is only needed at index-build
  /// time and is ignored). The max/min aggregates are stored rather
  /// than recomputed so the restored engine scores bit-identically. Any
  /// aggregates are accepted: a boost whose range is empty (max_citations
  /// 0, max_year <= min_year) is left out, as in a built engine.
  static Result<std::unique_ptr<SearchEngine>> Restore(
      const std::vector<EngineDocument>& docs, const EngineProfile& profile,
      InvertedIndex index, uint64_t max_citations, int min_year,
      int max_year);

  /// Snapshot support — read access to the serialized representation.
  const InvertedIndex& index() const { return index_; }
  uint64_t max_citations() const { return max_citations_; }
  int min_year() const { return min_year_; }
  int max_year() const { return max_year_; }

 private:
  /// The query-independent part of a document's score, computed once
  /// when the engine is built or restored.
  struct DocFactors {
    /// 1 + citation_boost * log1p(citations) / log1p(max_citations),
    /// exactly 1.0 when the boost is off or no document is cited.
    double citation = 1.0;
    /// 1 + recency_boost * (year - min_year) / (max_year - min_year),
    /// exactly 1.0 when the boost is off or the year span is empty.
    double recency = 1.0;
    int year = 0;
  };

  explicit SearchEngine(const EngineProfile& profile) : profile_(profile) {}

  /// Fills bm25_norm_ and factors_ from the finalized index, the
  /// aggregates and each document's year and citation count.
  void ComputeDocConstants(const std::vector<EngineDocument>& docs);

  EngineProfile profile_;
  /// Per document: BM25's length norm k1 * (1 - b + b * len / avgdl)
  /// (k1 alone when avgdl is 0), read once per posting.
  std::vector<double> bm25_norm_;
  /// Per document: the factors and year read once per scored hit.
  std::vector<DocFactors> factors_;
  InvertedIndex index_;
  uint64_t max_citations_ = 0;
  int min_year_ = 0;
  int max_year_ = 0;
};

}  // namespace rpg::search

#endif  // RPG_SEARCH_SEARCH_ENGINE_H_
