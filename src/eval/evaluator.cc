#include "eval/evaluator.h"

#include <algorithm>

#include "common/rng.h"

namespace rpg::eval {

const std::vector<graph::PaperId>& LabelsOf(const surveybank::SurveyEntry& e,
                                            LabelLevel level) {
  switch (level) {
    case LabelLevel::kAtLeast1:
      return e.label_l1;
    case LabelLevel::kAtLeast2:
      return e.label_l2;
    case LabelLevel::kAtLeast3:
      return e.label_l3;
  }
  return e.label_l1;
}

Evaluator::Evaluator(const Workbench* wb, std::vector<size_t> entry_indices)
    : wb_(wb), entry_indices_(std::move(entry_indices)) {}

Result<std::vector<std::vector<CellResult>>> Evaluator::RunSweep(
    Method method, const std::vector<size_t>& ks,
    const std::vector<LabelLevel>& levels, int num_seeds) const {
  return RunCustomSweep(
      [&](const QuerySpec& spec, size_t kk) {
        return RankedListFor(*wb_, method, spec, kk, num_seeds);
      },
      ks, levels);
}

Result<std::vector<std::vector<CellResult>>> Evaluator::RunCustomSweep(
    const ListProducer& producer, const std::vector<size_t>& ks,
    const std::vector<LabelLevel>& levels) const {
  if (ks.empty() || levels.empty()) {
    return Status::InvalidArgument("empty sweep axes");
  }
  size_t max_k = *std::max_element(ks.begin(), ks.end());
  struct Acc {
    MeanAccumulator f1, precision, recall;
  };
  std::vector<std::vector<Acc>> acc(levels.size(),
                                    std::vector<Acc>(ks.size()));
  size_t evaluable = 0;
  for (size_t index : entry_indices_) {
    const surveybank::SurveyEntry& entry = wb_->bank().Get(index);
    QuerySpec spec{entry.query, entry.year, entry.paper};
    auto ranked_or = producer(spec, max_k);
    std::vector<graph::PaperId> empty_list;
    const std::vector<graph::PaperId>& ranked =
        ranked_or.ok() ? ranked_or.value() : empty_list;
    bool counted = false;
    for (size_t li = 0; li < levels.size(); ++li) {
      const auto& truth = LabelsOf(entry, levels[li]);
      if (truth.empty()) continue;
      counted = true;
      for (size_t ki = 0; ki < ks.size(); ++ki) {
        PrfAtK m = ComputePrfAtK(ranked, truth, ks[ki]);
        acc[li][ki].f1.Add(m.f1);
        acc[li][ki].precision.Add(m.precision);
        acc[li][ki].recall.Add(m.recall);
      }
    }
    if (counted) ++evaluable;
  }
  if (evaluable == 0) {
    return Status::FailedPrecondition("no evaluable queries");
  }
  std::vector<std::vector<CellResult>> grid(
      levels.size(), std::vector<CellResult>(ks.size()));
  for (size_t li = 0; li < levels.size(); ++li) {
    for (size_t ki = 0; ki < ks.size(); ++ki) {
      grid[li][ki].f1 = acc[li][ki].f1.mean();
      grid[li][ki].precision = acc[li][ki].precision.mean();
      grid[li][ki].recall = acc[li][ki].recall.mean();
      grid[li][ki].queries = acc[li][ki].f1.count();
    }
  }
  return grid;
}

std::vector<size_t> Evaluator::SampleEntries(
    const surveybank::SurveyBank& bank, size_t n, uint64_t seed) {
  std::vector<size_t> eligible;
  for (size_t i = 0; i < bank.size(); ++i) {
    if (!bank.Get(i).label_l3.empty()) eligible.push_back(i);
  }
  Rng rng(seed);
  rng.Shuffle(&eligible);
  if (eligible.size() > n) eligible.resize(n);
  std::sort(eligible.begin(), eligible.end());
  return eligible;
}

}  // namespace rpg::eval
