#include "match/semantic_matcher.h"

#include <algorithm>

#include "common/logging.h"

namespace rpg::match {

SemanticMatcher::SemanticMatcher(const std::vector<std::string>& titles,
                                 const std::vector<std::string>& abstracts,
                                 const HashedEmbedderOptions& options)
    : embedder_(options) {
  RPG_CHECK(titles.size() == abstracts.size());
  num_docs_ = titles.size();
  const size_t dim = static_cast<size_t>(embedder_.dim());
  embeddings_.reserve(num_docs_ * dim);
  for (size_t i = 0; i < num_docs_; ++i) {
    Embedding e = embedder_.EmbedDocument(titles[i], abstracts[i]);
    embeddings_.insert(embeddings_.end(), e.begin(), e.end());
  }
}

std::vector<Match> SemanticMatcher::Rerank(
    const std::string& query, const std::vector<uint32_t>& candidates,
    size_t top_k) const {
  Embedding q = embedder_.EmbedQuery(query);
  std::vector<Match> matches;
  matches.reserve(candidates.size());
  for (uint32_t doc : candidates) {
    if (doc >= num_docs_) continue;
    matches.push_back({doc, Score(q, doc)});
  }
  std::sort(matches.begin(), matches.end(), [](const Match& a, const Match& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  });
  if (matches.size() > top_k) matches.resize(top_k);
  return matches;
}

}  // namespace rpg::match
