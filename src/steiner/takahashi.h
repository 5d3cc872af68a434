#ifndef RPG_STEINER_TAKAHASHI_H_
#define RPG_STEINER_TAKAHASHI_H_

#include <vector>

#include "common/result.h"
#include "steiner/newst.h"
#include "steiner/weighted_graph.h"

namespace rpg::steiner {

/// Takahashi-Matsuyama (1980) shortest-path heuristic, generalized to
/// node weights: grow the tree from one terminal, repeatedly attaching
/// the terminal closest to the current tree via its cheapest path. Same
/// 2(1 - 1/l) guarantee as KMB but a different construction — implemented
/// as the alternative the heuristic-ablation bench compares against
/// (src/steiner/README.md). The tree grows incrementally: one persistent
/// distance-from-tree Dijkstra is re-seeded from the nodes that join the
/// tree each round, rather than recomputed per terminal. Interface
/// matches SolveNewst; terminals disconnected from the first terminal are
/// reported in unreachable_terminals and left out of the tree.
Result<SteinerResult> SolveTakahashiMatsuyama(
    const WeightedGraph& g, const std::vector<uint32_t>& terminals,
    const NewstOptions& options = {});

}  // namespace rpg::steiner

#endif  // RPG_STEINER_TAKAHASHI_H_
