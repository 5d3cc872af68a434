#ifndef RPG_MATCH_SEMANTIC_MATCHER_H_
#define RPG_MATCH_SEMANTIC_MATCHER_H_

#include <span>
#include <string>
#include <vector>

#include "match/hashed_embedder.h"

namespace rpg::match {

/// Ranked match.
struct Match {
  uint32_t doc = 0;
  double score = 0.0;
};

/// The SciBERT-baseline re-ranker of §VI-A: scores the matching degree of
/// a query against paper titles+abstracts and re-ranks an expanded
/// candidate set purely by semantic similarity. Embeds the whole
/// collection once at construction, into one flat row-major float matrix
/// (`num_docs x dim`). Only the evaluation baselines use it; the RePaGer
/// serving pipeline reads no embeddings.
class SemanticMatcher {
 public:
  /// `titles` and `abstracts` are parallel per-document arrays.
  SemanticMatcher(const std::vector<std::string>& titles,
                  const std::vector<std::string>& abstracts,
                  const HashedEmbedderOptions& options = {});

  /// Similarity of the query to one document.
  double Score(const Embedding& query, uint32_t doc) const {
    return CosineSimilarity(query, doc_embedding(doc));
  }

  /// Re-ranks `candidates` by query similarity (descending, stable for
  /// equal scores by doc id). Returns at most top_k.
  std::vector<Match> Rerank(const std::string& query,
                            const std::vector<uint32_t>& candidates,
                            size_t top_k) const;

  const HashedEmbedder& embedder() const { return embedder_; }

  size_t num_docs() const { return num_docs_; }

  /// One document's embedding row.
  std::span<const float> doc_embedding(uint32_t doc) const {
    const size_t dim = static_cast<size_t>(embedder_.dim());
    return std::span<const float>(embeddings_).subspan(doc * dim, dim);
  }

 private:
  HashedEmbedder embedder_;
  std::vector<float> embeddings_;
  size_t num_docs_ = 0;
};

}  // namespace rpg::match

#endif  // RPG_MATCH_SEMANTIC_MATCHER_H_
