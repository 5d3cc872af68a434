#ifndef RPG_CORE_SEED_REALLOCATOR_H_
#define RPG_CORE_SEED_REALLOCATOR_H_

#include <vector>

#include "common/flat_hash.h"
#include "graph/citation_graph.h"

namespace rpg::core {

/// How the compulsory terminal set for NEWST is formed from the initial
/// engine seeds and the co-occurrence papers (§VI-B seed-reallocation
/// ablation, Table III left).
enum class SeedMode {
  kReallocated,   ///< NEWST:   high co-occurrence papers
  kInitial,       ///< NEWST-W: the engine's top-K seeds unchanged
  kUnion,         ///< NEWST-U: union of the two
  kIntersection,  ///< NEWST-I: intersection of the two
};

/// Counts co-occurrence once (§IV-A step 4): `seed_set` gets the
/// distinct `seeds`, sorted (test it with std::binary_search), `counts`
/// how many in-range seeds cite each paper (a seed citing itself
/// included). Terminals and RePaGer's rank evidence both come from it.
/// Both outputs are overwritten.
void CountCoOccurrence(const graph::CitationGraph& g,
                       const std::vector<graph::PaperId>& seeds,
                       std::vector<graph::PaperId>* seed_set,
                       FlatMap<graph::PaperId, int>* counts);

/// `mode`'s terminals from a CountCoOccurrence of `initial` (its sorted
/// `seed_set` and its `counts`), possibly empty. kUnion sorts and
/// de-duplicates; kIntersection keeps the order of `initial` and counts
/// only citations by *other* seeds.
std::vector<graph::PaperId> DeriveTerminals(
    const graph::CitationGraph& g, const std::vector<graph::PaperId>& initial,
    const std::vector<graph::PaperId>& seed_set,
    const FlatMap<graph::PaperId, int>& counts, SeedMode mode,
    int min_cooccurrence);

/// Papers cited by at least `min_cooccurrence` distinct initial seeds
/// (§IV-A step 4). Such papers are likely prerequisites: several articles
/// directly relevant to the topic mention them. The initial seeds
/// themselves are excluded; the result is sorted by descending
/// co-occurrence count (ties: ascending id).
std::vector<graph::PaperId> CoOccurrencePapers(
    const graph::CitationGraph& g, const std::vector<graph::PaperId>& seeds,
    int min_cooccurrence);

/// Applies a SeedMode. Falls back to `initial` when the mode produces an
/// empty set (e.g. no co-occurring papers exist).
std::vector<graph::PaperId> ReallocateSeeds(
    const graph::CitationGraph& g, const std::vector<graph::PaperId>& initial,
    SeedMode mode, int min_cooccurrence);

}  // namespace rpg::core

#endif  // RPG_CORE_SEED_REALLOCATOR_H_
