#ifndef RPG_RANK_PAGERANK_H_
#define RPG_RANK_PAGERANK_H_

#include <vector>

#include "graph/citation_graph.h"

namespace rpg::rank {

struct PageRankOptions {
  double damping = 0.85;
  int max_iterations = 100;
  /// Stop when the L1 change between iterations drops below this.
  double tolerance = 1e-9;
};

/// PageRank over the citation graph: importance flows from a citing paper
/// to the papers it cites (a citation is an endorsement), with dangling
/// mass redistributed uniformly. Returns one score per node; scores sum
/// to 1.
std::vector<double> PageRank(const graph::CitationGraph& g,
                             const PageRankOptions& options = {});

/// Divides by the max so the top paper scores 1 (used by the node-weight
/// formula so pgscore and venue score share a scale). No-op on empty
/// input; all-zero input stays all-zero.
std::vector<double> NormalizeByMax(std::vector<double> scores);

}  // namespace rpg::rank

#endif  // RPG_RANK_PAGERANK_H_
