#ifndef RPG_SEARCH_INVERTED_INDEX_H_
#define RPG_SEARCH_INVERTED_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "text/vocabulary.h"

namespace rpg::search {

using DocId = uint32_t;

/// One posting: a document and the (field-weighted) term frequency.
struct Posting {
  DocId doc;
  float weighted_tf;
};

/// A document handed to the index and the engines at build time.
/// `citations` is the paper's current citation count (used for
/// popularity boosts) and `year` its publication year (used for
/// time-range restriction, mirroring the paper's "anytime .. survey
/// year" search setting).
struct EngineDocument {
  std::string title;
  std::string abstract_text;
  int year = 0;
  uint64_t citations = 0;
};

/// A title occurrence contributes this much term frequency; an abstract
/// occurrence contributes 1.
inline constexpr double kTitleWeight = 3.0;

/// Field-weighted inverted index over title + abstract text. Terms are
/// lowercased and Porter-stemmed. Immutable once built: every engine
/// profile over one corpus scores from the same index, because the
/// statistics it holds do not depend on a profile's parameters.
class InvertedIndex {
 public:
  /// Indexes every document's title and abstract. Document ids are
  /// their positions in `docs`, so each posting list comes out sorted
  /// by doc id.
  static InvertedIndex Build(const std::vector<EngineDocument>& docs);

  size_t num_documents() const { return doc_lengths_.size(); }
  double average_doc_length() const { return avg_doc_length_; }
  double DocLength(DocId d) const { return doc_lengths_[d]; }

  /// Postings for one (stemmed) term; empty when unseen.
  const std::vector<Posting>& PostingsFor(const std::string& stemmed_term) const;

  /// Tokenizes + stems a free-text query into index terms.
  static std::vector<std::string> AnalyzeQuery(const std::string& query);

  /// Snapshot support — rebuilds an index from serialized parts without
  /// re-tokenizing any text. `avg_doc_length` is stored rather than
  /// recomputed: a relabeled file lists the lengths in another order,
  /// and their float sum would round differently. Fails with
  /// InvalidArgument on inconsistent shapes (postings vs vocab size, doc
  /// ids out of range or out of order).
  static Result<InvertedIndex> Restore(
      text::Vocabulary vocab, std::vector<std::vector<Posting>> postings,
      std::vector<float> doc_lengths, double avg_doc_length);

  /// Snapshot support — read access to the serialized representation.
  const text::Vocabulary& vocab() const { return vocab_; }
  const std::vector<std::vector<Posting>>& postings() const {
    return postings_;
  }
  const std::vector<float>& doc_lengths() const { return doc_lengths_; }

 private:
  InvertedIndex() = default;

  text::Vocabulary vocab_;
  std::vector<std::vector<Posting>> postings_;  // by term id
  std::vector<float> doc_lengths_;              // weighted length per doc
  double avg_doc_length_ = 0.0;
};

}  // namespace rpg::search

#endif  // RPG_SEARCH_INVERTED_INDEX_H_
