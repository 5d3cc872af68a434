#include "search/inverted_index.h"

#include <unordered_map>

#include "text/porter_stemmer.h"
#include "text/tokenizer.h"

namespace rpg::search {

namespace {
const std::vector<Posting> kEmptyPostings;
}  // namespace

std::vector<std::string> InvertedIndex::AnalyzeQuery(const std::string& query) {
  std::vector<std::string> out;
  for (const auto& tok : text::Tokenize(query)) {
    out.push_back(text::PorterStem(tok));
  }
  return out;
}

InvertedIndex InvertedIndex::Build(const std::vector<EngineDocument>& docs) {
  InvertedIndex index;
  index.doc_lengths_.reserve(docs.size());
  std::unordered_map<text::TermId, float> tf;
  double total = 0.0;
  for (const EngineDocument& d : docs) {
    const DocId doc = static_cast<DocId>(index.doc_lengths_.size());
    tf.clear();
    double length = 0.0;
    for (const auto& tok : text::Tokenize(d.title)) {
      text::TermId id = index.vocab_.GetOrAdd(text::PorterStem(tok));
      tf[id] += static_cast<float>(kTitleWeight);
      length += kTitleWeight;
    }
    for (const auto& tok : text::Tokenize(d.abstract_text)) {
      text::TermId id = index.vocab_.GetOrAdd(text::PorterStem(tok));
      tf[id] += 1.0f;
      length += 1.0;
    }
    index.doc_lengths_.push_back(static_cast<float>(length));
    total += index.doc_lengths_.back();
    if (index.vocab_.size() > index.postings_.size()) {
      index.postings_.resize(index.vocab_.size());
    }
    // Documents arrive in id order, so every list stays sorted by doc.
    for (const auto& [term, weighted_tf] : tf) {
      index.postings_[term].push_back({doc, weighted_tf});
    }
  }
  index.avg_doc_length_ =
      docs.empty() ? 0.0 : total / static_cast<double>(docs.size());
  return index;
}

Result<InvertedIndex> InvertedIndex::Restore(
    text::Vocabulary vocab, std::vector<std::vector<Posting>> postings,
    std::vector<float> doc_lengths, double avg_doc_length) {
  if (postings.size() != vocab.size()) {
    return Status::InvalidArgument("index restore: postings/vocab mismatch");
  }
  const size_t num_docs = doc_lengths.size();
  for (const auto& plist : postings) {
    for (size_t i = 0; i < plist.size(); ++i) {
      if (plist[i].doc >= num_docs) {
        return Status::InvalidArgument("index restore: doc id out of range");
      }
      if (i > 0 && plist[i].doc <= plist[i - 1].doc) {
        return Status::InvalidArgument(
            "index restore: postings not strictly sorted by doc");
      }
    }
  }
  InvertedIndex index;
  index.vocab_ = std::move(vocab);
  index.postings_ = std::move(postings);
  index.doc_lengths_ = std::move(doc_lengths);
  index.avg_doc_length_ = avg_doc_length;
  return index;
}

const std::vector<Posting>& InvertedIndex::PostingsFor(
    const std::string& stemmed_term) const {
  text::TermId id = vocab_.Lookup(stemmed_term);
  if (id == text::kInvalidTerm) return kEmptyPostings;
  return postings_[id];
}

}  // namespace rpg::search
