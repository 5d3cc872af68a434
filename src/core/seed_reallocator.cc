#include "core/seed_reallocator.h"

#include <algorithm>
#include <span>

namespace rpg::core {

using graph::PaperId;

void CountCoOccurrence(const graph::CitationGraph& g,
                       const std::vector<PaperId>& seeds,
                       std::vector<PaperId>* seed_set,
                       FlatMap<PaperId, int>* counts) {
  seed_set->assign(seeds.begin(), seeds.end());
  std::sort(seed_set->begin(), seed_set->end());
  seed_set->erase(std::unique(seed_set->begin(), seed_set->end()),
                  seed_set->end());
  counts->clear();
  for (PaperId s : *seed_set) {
    if (s >= g.num_nodes()) continue;
    for (PaperId cited : g.OutNeighbors(s)) ++(*counts)[cited];
  }
}

std::vector<PaperId> DeriveTerminals(const graph::CitationGraph& g,
                                     const std::vector<PaperId>& initial,
                                     const std::vector<PaperId>& seed_set,
                                     const FlatMap<PaperId, int>& counts,
                                     SeedMode mode, int min_cooccurrence) {
  if (mode == SeedMode::kInitial) return initial;
  // At least one citing seed, whatever the threshold: a seed cited only
  // by itself is not co-cited.
  const int min_count = std::max(min_cooccurrence, 1);
  std::vector<PaperId> result;
  if (mode == SeedMode::kIntersection) {
    // Initial seeds that are themselves highly co-cited *by the other
    // seeds*: a seed's citation of itself does not count. A counted seed
    // is cited, hence in range; its span is sorted.
    for (PaperId s : initial) {
      const int* c = counts.Find(s);
      if (c == nullptr) continue;
      const std::span<const PaperId> cited = g.OutNeighbors(s);
      const int self = std::binary_search(cited.begin(), cited.end(), s);
      if (*c - self >= min_count) result.push_back(s);
    }
    return result;
  }
  // Fully re-sorted with a total-order tiebreak, so FlatMap insertion
  // order never shows.
  std::vector<std::pair<PaperId, int>> scored;
  for (const auto& [p, c] : counts) {
    if (c >= min_count &&
        !std::binary_search(seed_set.begin(), seed_set.end(), p)) {
      scored.emplace_back(p, c);
    }
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  for (const auto& [p, c] : scored) result.push_back(p);
  if (mode == SeedMode::kUnion) {
    result.insert(result.end(), initial.begin(), initial.end());
    std::sort(result.begin(), result.end());
    result.erase(std::unique(result.begin(), result.end()), result.end());
  }
  return result;
}

std::vector<PaperId> CoOccurrencePapers(const graph::CitationGraph& g,
                                        const std::vector<PaperId>& seeds,
                                        int min_cooccurrence) {
  std::vector<PaperId> seed_set;
  FlatMap<PaperId, int> counts;
  CountCoOccurrence(g, seeds, &seed_set, &counts);
  return DeriveTerminals(g, seeds, seed_set, counts, SeedMode::kReallocated,
                         min_cooccurrence);
}

std::vector<PaperId> ReallocateSeeds(const graph::CitationGraph& g,
                                     const std::vector<PaperId>& initial,
                                     SeedMode mode, int min_cooccurrence) {
  std::vector<PaperId> seed_set;
  FlatMap<PaperId, int> counts;
  CountCoOccurrence(g, initial, &seed_set, &counts);
  std::vector<PaperId> result = DeriveTerminals(g, initial, seed_set, counts,
                                                mode, min_cooccurrence);
  if (result.empty()) result = initial;
  return result;
}

}  // namespace rpg::core
