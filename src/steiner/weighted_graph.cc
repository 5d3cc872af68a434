#include "steiner/weighted_graph.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "common/logging.h"

namespace rpg::steiner {

double WeightedGraph::TreeCost(
    const std::vector<std::pair<uint32_t, uint32_t>>& edges) const {
  double cost = 0.0;
  std::vector<uint8_t> seen(num_nodes(), 0);
  for (const auto& [u, v] : edges) {
    cost += EdgeCost(u, v);
    if (!seen[u]) {
      seen[u] = 1;
      cost += node_weight_[u];
    }
    if (!seen[v]) {
      seen[v] = 1;
      cost += node_weight_[v];
    }
  }
  return cost;
}

double WeightedGraph::EdgeCost(uint32_t u, uint32_t v) const {
  std::span<const uint32_t> targets = Targets(u);
  auto it = std::lower_bound(targets.begin(), targets.end(), v);
  if (it == targets.end() || *it != v) {
    return std::numeric_limits<double>::infinity();
  }
  // Spans are sorted by (target, cost), so the first hit is the cheapest
  // parallel edge.
  return Costs(u)[static_cast<size_t>(it - targets.begin())];
}

WeightedGraph::Writer::Writer(WeightedGraph* out, size_t num_nodes,
                              size_t num_half_edges)
    : out_(out) {
  out_->offsets_.assign(1, 0);
  out_->offsets_.reserve(num_nodes + 1);
  out_->targets_.clear();
  out_->targets_.reserve(num_half_edges);
  out_->costs_.clear();
  out_->costs_.reserve(num_half_edges);
  out_->node_weight_.clear();
  out_->node_weight_.reserve(num_nodes);
}

void WeightedGraphBuilder::AddEdge(uint32_t u, uint32_t v, double cost) {
  RPG_CHECK(u < num_nodes() && v < num_nodes())
      << "edge endpoint out of range";
  RPG_CHECK(u != v) << "self loops are not allowed";
  RPG_CHECK(cost > 0.0) << "edge costs must be positive";
  half_edges_.push_back({u, v, cost});
  half_edges_.push_back({v, u, cost});
}

WeightedGraph WeightedGraphBuilder::Build() const {
  std::vector<HalfEdge> sorted = half_edges_;
  std::sort(sorted.begin(), sorted.end(),
            [](const HalfEdge& a, const HalfEdge& b) {
              return std::tie(a.from, a.to, a.cost) <
                     std::tie(b.from, b.to, b.cost);
            });
  WeightedGraph g;
  WeightedGraph::Writer writer(&g, num_nodes(), sorted.size());
  size_t i = 0;
  for (uint32_t v = 0; v < num_nodes(); ++v) {
    for (; i < sorted.size() && sorted[i].from == v; ++i) {
      writer.Add(sorted[i].to, sorted[i].cost);
    }
    writer.EndNode(node_weight_[v]);
  }
  return g;
}

WeightedGraph UnitCostCopy(const WeightedGraph& g) {
  WeightedGraph unit;
  unit.offsets_ = g.offsets_;
  unit.targets_ = g.targets_;
  unit.costs_.assign(g.costs_.size(), 1.0);
  unit.node_weight_ = g.node_weight_;
  return unit;
}

}  // namespace rpg::steiner
