#ifndef RPG_STEINER_MST_H_
#define RPG_STEINER_MST_H_

#include <cstdint>
#include <vector>

#include "steiner/weighted_graph.h"

namespace rpg::steiner {

/// An explicit weighted edge (for Kruskal over edge lists that do not
/// live in a WeightedGraph, e.g. the metric closure).
struct Edge {
  uint32_t u = 0;
  uint32_t v = 0;
  double cost = 0.0;
};

/// Union-find with path compression + union by rank.
class DisjointSets {
 public:
  DisjointSets() = default;
  explicit DisjointSets(size_t n);
  /// Back to n singletons, keeping the arrays' capacity.
  void Reset(size_t n);
  uint32_t Find(uint32_t x);
  /// Returns false when x and y were already in the same set.
  bool Union(uint32_t x, uint32_t y);

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint8_t> rank_;
};

/// Kruskal MST over an explicit edge list on nodes [0, n). Returns the
/// chosen edges; for a disconnected input this is a minimum spanning
/// forest. Ties are broken deterministically by (cost, u, v).
std::vector<Edge> KruskalMst(size_t n, std::vector<Edge> edges);

/// Same forest, sorting `*edges` in place and writing it into `*tree`,
/// with `*sets` as the union-find; all three keep their capacity.
void KruskalMst(size_t n, std::vector<Edge>* edges, DisjointSets* sets,
                std::vector<Edge>* tree);

/// Prim MST of the connected component of `start` in g. Returns tree
/// edges (u, v) with their costs.
std::vector<Edge> PrimMst(const WeightedGraph& g, uint32_t start);

}  // namespace rpg::steiner

#endif  // RPG_STEINER_MST_H_
