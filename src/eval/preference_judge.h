#ifndef RPG_EVAL_PREFERENCE_JUDGE_H_
#define RPG_EVAL_PREFERENCE_JUDGE_H_

#include <cstdint>

#include "common/result.h"
#include "eval/workbench.h"

namespace rpg::eval {

/// Simulated replacement for the 16-participant human study of §VI-C
/// (Table V). Each virtual participant scores the two systems' results on
/// the questionnaire's three axes and votes Prefer-A / Same / Prefer-B;
/// per-participant Gaussian noise models rater disagreement. See
/// README.md (Reproduction) for why this substitution preserves the
/// study's shape.
struct PreferenceOptions {
  size_t queries_per_domain = 20;  ///< paper: 20 queries per domain
  int participants = 8;           ///< paper: 8 raters per domain
  /// Results examined per system. The engine shows a page of hits; the
  /// RePaGer UI presents the whole reading path, which is larger.
  size_t list_size_a = 30;
  size_t list_size_b = 60;
  double noise_stddev = 0.15;
  /// Score gaps below this read as "prefer the two systems equally".
  double same_threshold = 0.10;
  uint64_t seed = 99;
};

/// Vote shares for one questionnaire criterion (sum to 1).
struct CriterionOutcome {
  double prefer_a = 0.0;  ///< Google Scholar
  double same = 0.0;
  double prefer_b = 0.0;  ///< NEWST / RePaGer
};

struct PreferenceResult {
  CriterionOutcome prerequisite;
  CriterionOutcome relevance;
  CriterionOutcome completeness;
  size_t queries = 0;
};

/// Runs the study for surveys of one CCF domain (A = Google Scholar
/// top-K, B = the RePaGer reading path).
///
/// Criterion scores per query:
///  - prerequisite: coverage of the ground-truth references that belong
///    to ancestor topics (the "how to read"/"how to understand" papers),
///    plus a structure bonus for systems that provide a reading order;
///  - relevance: fraction of returned papers about the queried topic (or
///    a descendant);
///  - completeness: recall of the survey's full reference list.
Result<PreferenceResult> RunPreferenceStudy(const Workbench& wb,
                                            uint32_t domain_index,
                                            const PreferenceOptions& options);

}  // namespace rpg::eval

#endif  // RPG_EVAL_PREFERENCE_JUDGE_H_
