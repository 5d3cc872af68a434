#include "steiner/mst.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "common/dary_heap.h"

namespace rpg::steiner {

DisjointSets::DisjointSets(size_t n) { Reset(n); }

void DisjointSets::Reset(size_t n) {
  parent_.resize(n);
  for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<uint32_t>(i);
  rank_.assign(n, 0);
}

uint32_t DisjointSets::Find(uint32_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];
    x = parent_[x];
  }
  return x;
}

bool DisjointSets::Union(uint32_t x, uint32_t y) {
  uint32_t rx = Find(x), ry = Find(y);
  if (rx == ry) return false;
  if (rank_[rx] < rank_[ry]) std::swap(rx, ry);
  parent_[ry] = rx;
  if (rank_[rx] == rank_[ry]) ++rank_[rx];
  return true;
}

std::vector<Edge> KruskalMst(size_t n, std::vector<Edge> edges) {
  DisjointSets sets;
  std::vector<Edge> tree;
  KruskalMst(n, &edges, &sets, &tree);
  return tree;
}

void KruskalMst(size_t n, std::vector<Edge>* edges, DisjointSets* sets,
                std::vector<Edge>* tree) {
  std::sort(edges->begin(), edges->end(), [](const Edge& a, const Edge& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  });
  sets->Reset(n);
  tree->clear();
  for (const Edge& e : *edges) {
    if (sets->Union(e.u, e.v)) tree->push_back(e);
  }
}

std::vector<Edge> PrimMst(const WeightedGraph& g, uint32_t start) {
  const size_t n = g.num_nodes();
  std::vector<Edge> tree;
  if (start >= n) return tree;
  std::vector<bool> in_tree(n, false);
  // (cost, to, from); lexicographic min-order is total, so the d-ary
  // heap pops the same edge sequence the binary heap did.
  using Entry = std::tuple<double, uint32_t, uint32_t>;
  DaryHeap<Entry> pq;
  in_tree[start] = true;
  for (const auto& [v, c] : g.Neighbors(start)) pq.emplace(c, v, start);
  while (!pq.empty()) {
    auto [cost, to, from] = pq.top();
    pq.pop();
    if (in_tree[to]) continue;
    in_tree[to] = true;
    tree.push_back({from, to, cost});
    for (const auto& [v, c] : g.Neighbors(to)) {
      if (!in_tree[v]) pq.emplace(c, v, to);
    }
  }
  return tree;
}

}  // namespace rpg::steiner
