#ifndef RPG_EVAL_EVALUATOR_H_
#define RPG_EVAL_EVALUATOR_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "eval/baselines.h"
#include "eval/metrics.h"
#include "eval/workbench.h"

namespace rpg::eval {

/// Which occurrence threshold defines the ground truth (L1/L2/L3).
enum class LabelLevel { kAtLeast1 = 1, kAtLeast2 = 2, kAtLeast3 = 3 };

const std::vector<graph::PaperId>& LabelsOf(const surveybank::SurveyEntry& e,
                                            LabelLevel level);

/// Averaged metrics for one (method, K, label) cell of Fig. 8.
struct CellResult {
  double f1 = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  size_t queries = 0;
};

/// Evaluation driver over a set of SurveyBank entries.
class Evaluator {
 public:
  /// `entry_indices` selects the evaluation queries (e.g. a sampled test
  /// split). Entries whose ground truth is smaller than 20 references are
  /// kept (the bank construction already guarantees >= 20 for L1).
  Evaluator(const Workbench* wb, std::vector<size_t> entry_indices);

  /// A caller-supplied ranked-list producer (used by the Table III
  /// ablations, which need custom RePagerOptions).
  using ListProducer = std::function<Result<std::vector<graph::PaperId>>(
      const QuerySpec&, size_t k)>;

  /// Averages P@K / F1@K over all queries for one method, for the full
  /// Fig. 8 sweep: computes each query's ranked list once (at max K) and
  /// evaluates every (K, label-level) cell from it. `num_seeds` feeds
  /// the seed-count sweep of Table II. Returns grid[level_index][k_index].
  Result<std::vector<std::vector<CellResult>>> RunSweep(
      Method method, const std::vector<size_t>& ks,
      const std::vector<LabelLevel>& levels, int num_seeds = 30) const;

  /// Sweep with a caller-supplied producer.
  Result<std::vector<std::vector<CellResult>>> RunCustomSweep(
      const ListProducer& producer, const std::vector<size_t>& ks,
      const std::vector<LabelLevel>& levels) const;

  const std::vector<size_t>& entries() const { return entry_indices_; }

  /// Deterministically samples `n` evaluation queries from the bank
  /// (entries with non-empty L3 so all label levels are exercised).
  static std::vector<size_t> SampleEntries(const surveybank::SurveyBank& bank,
                                           size_t n, uint64_t seed);

 private:
  const Workbench* wb_;
  std::vector<size_t> entry_indices_;
};

}  // namespace rpg::eval

#endif  // RPG_EVAL_EVALUATOR_H_
