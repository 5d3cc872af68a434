#ifndef RPG_MATCH_HASHED_EMBEDDER_H_
#define RPG_MATCH_HASHED_EMBEDDER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace rpg::match {

/// Dense embedding produced by feature hashing.
using Embedding = std::vector<float>;

struct HashedEmbedderOptions {
  /// Embedding dimensionality.
  int dim = 256;
  /// Include word bigrams ("neural_parsing") in addition to unigrams.
  bool use_bigrams = true;
  /// Title tokens contribute this weight; abstract tokens contribute 1.
  double title_weight = 2.0;
};

/// Text embedder standing in for SciBERT (see README.md, Reproduction):
/// stemmed unigrams + bigrams are signed-hashed into a fixed-dimension
/// vector (the "hashing trick"), which is then L2-normalized. Like a frozen
/// sentence encoder, it maps any text to a dense vector whose cosine
/// similarity reflects lexical-semantic overlap — with zero knowledge of
/// the citation graph.
class HashedEmbedder {
 public:
  explicit HashedEmbedder(const HashedEmbedderOptions& options = {});

  /// Embeds a title/abstract pair.
  Embedding EmbedDocument(const std::string& title,
                          const std::string& abstract_text) const;

  /// Embeds a free-text query.
  Embedding EmbedQuery(const std::string& query) const;

  int dim() const { return options_.dim; }
  const HashedEmbedderOptions& options() const { return options_; }

 private:
  void Accumulate(const std::string& text, double field_weight,
                  std::vector<double>* acc) const;
  static Embedding Normalize(const std::vector<double>& acc);

  HashedEmbedderOptions options_;
};

/// Cosine similarity of two embeddings (0 when either is all-zero or
/// dimensions mismatch). Spans let it score against rows of the
/// matcher's flat embedding matrix without a copy.
double CosineSimilarity(std::span<const float> a, std::span<const float> b);

}  // namespace rpg::match

#endif  // RPG_MATCH_HASHED_EMBEDDER_H_
