#include "steiner/dijkstra.h"

#include <algorithm>
#include <limits>

namespace rpg::steiner {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

std::vector<uint32_t> ShortestPathTree::PathTo(uint32_t target) const {
  if (target >= dist.size() || dist[target] == kInf) {
    return {};
  }
  std::vector<uint32_t> path;
  uint32_t cur = target;
  while (cur != UINT32_MAX) {
    path.push_back(cur);
    cur = parent[cur];
  }
  std::reverse(path.begin(), path.end());
  return path;
}

ShortestPathTree Dijkstra(const WeightedGraph& g, uint32_t source,
                          bool include_node_weights, SteinerStats* stats) {
  const size_t n = g.num_nodes();
  ShortestPathTree tree;
  tree.dist.assign(n, kInf);
  tree.parent.assign(n, UINT32_MAX);
  if (source >= n) return tree;

  DijkstraHeap pq;
  tree.dist[source] = 0.0;
  pq.emplace(0.0, source);
  uint64_t settled = 0, pushes = 1;
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > tree.dist[u]) continue;  // stale entry
    ++settled;
    for (const auto& [v, cost] : g.Neighbors(u)) {
      double nd = d + cost;
      if (include_node_weights) nd += g.NodeWeight(v);
      if (nd < tree.dist[v]) {
        tree.dist[v] = nd;
        tree.parent[v] = u;
        pq.emplace(nd, v);
        ++pushes;
      }
    }
  }
  if (stats != nullptr) {
    stats->nodes_settled += settled;
    stats->heap_pushes += pushes;
    ++stats->dijkstra_runs;
  }
  return tree;
}

VoronoiPartition MultiSourceDijkstra(const WeightedGraph& g,
                                     const std::vector<uint32_t>& sources,
                                     bool include_node_weights,
                                     SteinerStats* stats) {
  VoronoiPartition vp;
  DijkstraHeap heap;
  MultiSourceDijkstra(g, sources, include_node_weights, stats, &heap, &vp);
  return vp;
}

void MultiSourceDijkstra(const WeightedGraph& g,
                         const std::vector<uint32_t>& sources,
                         bool include_node_weights, SteinerStats* stats,
                         DijkstraHeap* heap, VoronoiPartition* out) {
  const size_t n = g.num_nodes();
  VoronoiPartition& vp = *out;
  vp.dist.assign(n, kInf);
  vp.parent.assign(n, UINT32_MAX);
  vp.source.assign(n, UINT32_MAX);

  DijkstraHeap& pq = *heap;
  pq.clear();
  uint64_t settled = 0, pushes = 0;
  for (uint32_t i = 0; i < sources.size(); ++i) {
    uint32_t s = sources[i];
    if (s >= n || vp.source[s] != UINT32_MAX) continue;  // skip duplicates
    vp.dist[s] = 0.0;
    vp.source[s] = i;
    pq.emplace(0.0, s);
    ++pushes;
  }
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > vp.dist[u]) continue;
    ++settled;
    uint32_t owner = vp.source[u];
    for (const auto& [v, cost] : g.Neighbors(u)) {
      double nd = d + cost;
      if (include_node_weights) nd += g.NodeWeight(v);
      if (nd < vp.dist[v]) {
        vp.dist[v] = nd;
        vp.parent[v] = u;
        vp.source[v] = owner;
        pq.emplace(nd, v);
        ++pushes;
      }
    }
  }
  if (stats != nullptr) {
    stats->nodes_settled += settled;
    stats->heap_pushes += pushes;
    ++stats->dijkstra_runs;
  }
}

}  // namespace rpg::steiner
