#include "eval/workbench.h"

#include "rank/pagerank.h"

namespace rpg::eval {

Result<std::unique_ptr<Workbench>> Workbench::Create(
    const WorkbenchOptions& options) {
  auto wb = std::unique_ptr<Workbench>(new Workbench());

  RPG_ASSIGN_OR_RETURN(wb->corpus_, synth::GenerateCorpus(options.corpus));
  const synth::Corpus& corpus = *wb->corpus_;

  RPG_ASSIGN_OR_RETURN(surveybank::SurveyBank bank,
                       surveybank::BuildSurveyBank(corpus, options.bank));
  wb->bank_ = std::make_unique<surveybank::SurveyBank>(std::move(bank));

  // Flat metadata arrays.
  const size_t n = corpus.num_papers();
  wb->titles_.reserve(n);
  wb->years_.reserve(n);
  std::vector<std::string> abstracts;
  abstracts.reserve(n);
  std::vector<search::EngineDocument> docs;
  docs.reserve(n);
  wb->venue_scores_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const synth::Paper& p = corpus.papers[i];
    wb->titles_.push_back(p.title);
    wb->years_.push_back(p.year);
    abstracts.push_back(p.abstract_text);
    docs.push_back({p.title, p.abstract_text, p.year,
                    corpus.citations.CitationCount(
                        static_cast<graph::PaperId>(i))});
    wb->venue_scores_.push_back(corpus.venues.Score(p.venue));
  }

  // One index for the three engine profiles: BM25's statistics do not
  // depend on a profile's k1, b or boosts.
  auto index = std::make_shared<const search::InvertedIndex>(
      search::InvertedIndex::Build(docs));
  RPG_ASSIGN_OR_RETURN(wb->google_,
                       search::SearchEngine::Create(
                           index, docs, search::GoogleScholarProfile()));
  RPG_ASSIGN_OR_RETURN(wb->microsoft_,
                       search::SearchEngine::Create(
                           index, docs, search::MicrosoftAcademicProfile()));
  RPG_ASSIGN_OR_RETURN(wb->aminer_,
                       search::SearchEngine::Create(
                           std::move(index), docs, search::AMinerProfile()));

  // Global PageRank + weight model (which counts the Eq. (2) con table).
  wb->pagerank_norm_ =
      rank::NormalizeByMax(rank::PageRank(corpus.citations));
  wb->weights_ = std::make_unique<rank::WeightModel>(
      &corpus.citations, wb->pagerank_norm_, wb->venue_scores_,
      options.params);

  // Semantic matcher (SciBERT substitute).
  wb->matcher_ = std::make_unique<match::SemanticMatcher>(wb->titles_,
                                                          abstracts);

  // RePaGer wired to the Google profile (the paper's seed source).
  wb->repager_ = std::make_unique<core::RePaGer>(
      &corpus.citations, wb->google_.get(), wb->weights_.get(), &wb->years_);
  return wb;
}

}  // namespace rpg::eval
