#ifndef RPG_SYNTH_CORPUS_GENERATOR_H_
#define RPG_SYNTH_CORPUS_GENERATOR_H_

#include <memory>

#include "common/result.h"
#include "synth/corpus.h"

namespace rpg::synth {

/// Knobs for the corpus generator. Defaults produce ~27k papers and ~300
/// surveys in a couple of seconds — the same *structure* as the paper's
/// 6M-node S2ORC graph at laptop scale (every experiment's workload shape
/// is preserved; see README.md, Reproduction).
struct CorpusOptions {
  TopicHierarchyOptions hierarchy;
  VenueTableOptions venue;

  /// Papers directly about each leaf topic. Large enough that an
  /// engine's top-30 is a small sample of each topic's literature (the
  /// real corpora behind Fig. 2 make engine/reference overlap low).
  int papers_per_topic = 200;
  /// Prerequisite papers about each area (parents of leaf topics). Their
  /// titles do NOT contain leaf-topic phrases, so lexical engines miss
  /// them; leaf papers cite them, so citation expansion finds them.
  int papers_per_area = 60;
  /// Foundational classics per domain (old, highly cited).
  int papers_per_domain = 50;

  /// Total surveys; allocated to domains proportionally to Table I.
  int num_surveys = 300;
  /// Fraction of surveys written about an area (vs. a leaf topic).
  double area_survey_fraction = 0.3;

  int min_year = 1980;
  int max_year = 2021;

  /// Mean reference-list length for regular papers / surveys. SurveyBank
  /// reports ~58 references per survey on average. Regular papers cite
  /// sparsely enough that co-citation by multiple search hits is a
  /// *selective* signal (in the paper's 6M-node graph it is rare).
  double regular_refs_mean = 14.0;
  double survey_refs_mean = 58.0;

  /// Fraction of papers (incl. surveys) with no recognizable venue; the
  /// paper's Table I reports 64.2% "Uncertain Topics".
  double missing_venue_fraction = 0.642;

  uint64_t seed = 42;
};

/// Generates the full synthetic corpus: topic tree, venues, papers (in
/// chronological order so all citation edges point to older papers),
/// citation graph with topic-aware preferential attachment, and surveys
/// with occurrence-weighted reference lists.
Result<std::unique_ptr<Corpus>> GenerateCorpus(const CorpusOptions& options);

/// The scale axis: derives CorpusOptions whose total paper count lands
/// within a few percent of `target_papers` (valid from ~10^3 up to 10^7
/// and beyond), keeping the structural shape — skewed Table I survey
/// allocation, Zipf-ish topic sizes, sparse regular / dense survey
/// reference lists — intact as the corpus grows. The topic tree widens as
/// sqrt(target) so leaves deepen at the same rate they multiply.
/// Deterministic: the same (target, seed) always yields the same options
/// and therefore (via the seeded generator) the same corpus bytes.
CorpusOptions ScaledCorpusOptions(uint64_t target_papers, uint64_t seed);

/// Relative Table I domain weights (AI = 12.3 ... HCI = 0.9), used to
/// allocate surveys across domains. Exposed for tests/stats.
const std::vector<double>& TableOneDomainWeights();

}  // namespace rpg::synth

#endif  // RPG_SYNTH_CORPUS_GENERATOR_H_
