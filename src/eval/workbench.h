#ifndef RPG_EVAL_WORKBENCH_H_
#define RPG_EVAL_WORKBENCH_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/repager.h"
#include "match/semantic_matcher.h"
#include "rank/weight_model.h"
#include "search/search_engine.h"
#include "surveybank/builder.h"
#include "surveybank/survey_bank.h"
#include "synth/corpus_generator.h"

namespace rpg::eval {

/// Everything an experiment needs, built once: corpus, SurveyBank, the
/// three baseline engines (profiles over one shared inverted index),
/// global PageRank + venue scores, the Eq. (2)/(3) weight model, the
/// semantic matcher, and a RePaGer wired to the Google Scholar profile
/// (the seed source used throughout §VI).
struct WorkbenchOptions {
  synth::CorpusOptions corpus;
  surveybank::BuilderOptions bank;
  rank::NewstParams params;  ///< {3, 2, 5, 0.7, 0.3}
};

class Workbench {
 public:
  /// Builds all substrates: about 2.2 s at the default 53,800 papers
  /// (4-vCPU VM, RelWithDebInfo), led by the semantic matcher (~0.7 s),
  /// the inverted index (~0.6 s) and the Eq. (2) con table (~0.4 s),
  /// then corpus generation (~0.3 s) and PageRank (~0.13 s). The three
  /// engines over the index take under 10 ms together.
  static Result<std::unique_ptr<Workbench>> Create(
      const WorkbenchOptions& options = {});

  const synth::Corpus& corpus() const { return *corpus_; }
  const surveybank::SurveyBank& bank() const { return *bank_; }

  const search::SearchEngine& google() const { return *google_; }
  const search::SearchEngine& microsoft() const { return *microsoft_; }
  const search::SearchEngine& aminer() const { return *aminer_; }

  const rank::WeightModel& weights() const { return *weights_; }
  const match::SemanticMatcher& matcher() const { return *matcher_; }
  const core::RePaGer& repager() const { return *repager_; }

  /// Max-normalized global PageRank (per paper).
  const std::vector<double>& pagerank() const { return pagerank_norm_; }
  /// Venue scores in [0, 1] (per paper).
  const std::vector<double>& venue_scores() const { return venue_scores_; }

  const std::vector<std::string>& titles() const { return titles_; }
  const std::vector<uint16_t>& years() const { return years_; }

  /// Display metadata bundle for path rendering.
  core::PaperInfo paper_info() const { return {&titles_, &years_}; }

 private:
  Workbench() = default;

  std::unique_ptr<synth::Corpus> corpus_;
  std::unique_ptr<surveybank::SurveyBank> bank_;
  std::unique_ptr<search::SearchEngine> google_;
  std::unique_ptr<search::SearchEngine> microsoft_;
  std::unique_ptr<search::SearchEngine> aminer_;
  std::unique_ptr<rank::WeightModel> weights_;
  std::unique_ptr<match::SemanticMatcher> matcher_;
  std::unique_ptr<core::RePaGer> repager_;
  std::vector<double> pagerank_norm_;
  std::vector<double> venue_scores_;
  std::vector<std::string> titles_;
  std::vector<uint16_t> years_;
};

}  // namespace rpg::eval

#endif  // RPG_EVAL_WORKBENCH_H_
