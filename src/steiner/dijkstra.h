#ifndef RPG_STEINER_DIJKSTRA_H_
#define RPG_STEINER_DIJKSTRA_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/dary_heap.h"
#include "steiner/stats.h"
#include "steiner/weighted_graph.h"

namespace rpg::steiner {

/// The Dijkstra frontier: a 4-ary min-heap of (dist, node) entries under
/// lexicographic order, a total order, so every pop sequence is fixed.
using DijkstraHeap = DaryHeap<std::pair<double, uint32_t>>;

/// Result of a single-source shortest-path computation. Unreachable
/// nodes have dist == +inf and parent == UINT32_MAX.
struct ShortestPathTree {
  std::vector<double> dist;
  std::vector<uint32_t> parent;

  /// Reconstructs source -> target (inclusive); empty when unreachable.
  std::vector<uint32_t> PathTo(uint32_t target) const;
};

/// Dijkstra over a node-and-edge weighted graph. The distance of a path
/// source = v0, v1, ..., vk = target is
///
///   sum of edge costs + sum of node weights of v1..vk
///
/// i.e. every node except the source contributes its weight (§IV-B:
/// "a path whose distance, including node costs and edge weights, is
/// minimal"). Counting the target once and the source never makes the
/// metric-closure MST of KMB consistent: each tree node's weight appears
/// exactly once along the union of paths.
///
/// When `include_node_weights` is false, node weights are ignored
/// (the NEWST-N ablation). When `stats` is non-null, settled-node and
/// heap-push counters are accumulated into it.
ShortestPathTree Dijkstra(const WeightedGraph& g, uint32_t source,
                          bool include_node_weights = true,
                          SteinerStats* stats = nullptr);

/// Voronoi partition of the graph around a set of source nodes, computed
/// by ONE multi-source Dijkstra (Mehlhorn 1988). For every node v:
///   dist[v]   — distance to the nearest source (same node-weight
///               semantics as Dijkstra above: the owning source's weight
///               is never counted, v's own weight is),
///   parent[v] — predecessor on the shortest path back to that source,
///   source[v] — *index into `sources`* of the owning source
///               (UINT32_MAX when v is unreachable from every source).
/// Sources themselves have dist 0 and source[s] = their own index; a
/// duplicate source id keeps the first index.
struct VoronoiPartition {
  std::vector<double> dist;
  std::vector<uint32_t> parent;
  std::vector<uint32_t> source;
};

VoronoiPartition MultiSourceDijkstra(const WeightedGraph& g,
                                     const std::vector<uint32_t>& sources,
                                     bool include_node_weights = true,
                                     SteinerStats* stats = nullptr);

/// Same partition, written into `*out` with `*heap` as the frontier;
/// both keep their capacity from earlier calls (SteinerScratch).
void MultiSourceDijkstra(const WeightedGraph& g,
                         const std::vector<uint32_t>& sources,
                         bool include_node_weights, SteinerStats* stats,
                         DijkstraHeap* heap, VoronoiPartition* out);

}  // namespace rpg::steiner

#endif  // RPG_STEINER_DIJKSTRA_H_
