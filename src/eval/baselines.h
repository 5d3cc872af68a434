#ifndef RPG_EVAL_BASELINES_H_
#define RPG_EVAL_BASELINES_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "eval/workbench.h"

namespace rpg::eval {

/// The six compared systems of §VI (Fig. 8).
enum class Method {
  kGoogle,
  kMicrosoft,
  kAminer,
  kPageRank,
  kSciBert,  ///< the semantic-matcher substitute (README.md, Reproduction)
  kNewst,
};

const char* MethodName(Method m);
std::vector<Method> AllMethods();

/// A query instance: the survey's key phrases, its year (time-range
/// cutoff), and the survey paper itself (excluded to avoid data leakage,
/// §VI-A).
struct QuerySpec {
  std::string query;
  int year_cutoff = INT32_MAX;
  graph::PaperId exclude = graph::kInvalidPaper;
};

/// Produces a ranked list of >= k papers (when available) for a query
/// under the given method.
///
/// - Engines: their native top-k ranking.
/// - PageRank: expand the Google top-30 seeds to 2nd-order neighbors,
///   re-rank seed+candidates by *global* PageRank (§VI-A).
/// - SciBERT substitute: same expansion, re-rank by semantic similarity.
/// - NEWST: RePaGer::Rank, the candidates of one full pipeline run.
Result<std::vector<graph::PaperId>> RankedListFor(const Workbench& wb,
                                                  Method method,
                                                  const QuerySpec& spec,
                                                  size_t k,
                                                  int num_seeds = 30);

/// Expansion shared by the PageRank/SciBERT baselines: Google top-`seeds`
/// + their 1st/2nd-order references, year-filtered, survey excluded.
std::vector<graph::PaperId> ExpandSeeds(const Workbench& wb,
                                        const QuerySpec& spec, int num_seeds);

}  // namespace rpg::eval

#endif  // RPG_EVAL_BASELINES_H_
