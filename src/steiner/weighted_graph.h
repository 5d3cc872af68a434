#ifndef RPG_STEINER_WEIGHTED_GRAPH_H_
#define RPG_STEINER_WEIGHTED_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace rpg::steiner {

/// Undirected graph with positive edge costs and non-negative node
/// weights — the input to the NEWST solver (G = (V, E, S, w, c) of
/// §IV-B). Node ids are dense local ids 0..n-1; the RePaGer pipeline maps
/// them back to global paper ids.
///
/// Immutable compressed-sparse-row storage (same design as
/// graph::CitationGraph): flat offsets/targets/costs arrays, each node's
/// neighbor span sorted ascending by (target, cost). Written only by
/// Writer, either directly (core::BuildWeightedSubgraph) or through
/// WeightedGraphBuilder. Sorted spans give O(log d) EdgeCost via binary
/// search and cache-friendly sequential scans in the solver hot loops.
class WeightedGraph {
 public:
  /// Lightweight view over one node's (neighbor, cost) pairs, backed by
  /// the parallel targets/costs arrays. Iteration yields
  /// std::pair<uint32_t, double> by value, so existing structured-binding
  /// call sites (`for (const auto& [v, c] : g.Neighbors(u))`) work
  /// unchanged.
  class NeighborView {
   public:
    class iterator {
     public:
      iterator(const uint32_t* t, const double* c) : t_(t), c_(c) {}
      std::pair<uint32_t, double> operator*() const { return {*t_, *c_}; }
      iterator& operator++() {
        ++t_;
        ++c_;
        return *this;
      }
      bool operator==(const iterator& o) const { return t_ == o.t_; }
      bool operator!=(const iterator& o) const { return t_ != o.t_; }

     private:
      const uint32_t* t_;
      const double* c_;
    };

    NeighborView(const uint32_t* targets, const double* costs, size_t size)
        : targets_(targets), costs_(costs), size_(size) {}

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::pair<uint32_t, double> operator[](size_t i) const {
      return {targets_[i], costs_[i]};
    }
    iterator begin() const { return {targets_, costs_}; }
    iterator end() const { return {targets_ + size_, costs_ + size_}; }

   private:
    const uint32_t* targets_;
    const double* costs_;
    size_t size_;
  };

  /// The one CSR writer. Rewrites `*out` node by node in id order,
  /// reusing its array capacity: Add node 0's half-edges, EndNode(w(0)),
  /// then node 1's, and so on. Each node's half-edges must come in
  /// ascending (target, cost) order, and every undirected edge is added
  /// from both endpoints.
  class Writer {
   public:
    /// `num_nodes` and `num_half_edges` only size the reservation.
    Writer(WeightedGraph* out, size_t num_nodes, size_t num_half_edges);

    void Add(uint32_t target, double cost) {
      out_->targets_.push_back(target);
      out_->costs_.push_back(cost);
    }

    void EndNode(double weight) {
      out_->node_weight_.push_back(weight);
      out_->offsets_.push_back(out_->targets_.size());
    }

   private:
    WeightedGraph* out_;
  };

  WeightedGraph() = default;

  size_t num_nodes() const { return node_weight_.size(); }
  /// Undirected edges: every edge is stored from both endpoints.
  size_t num_edges() const { return targets_.size() / 2; }

  double NodeWeight(uint32_t v) const { return node_weight_[v]; }

  /// (neighbor, cost) pairs, sorted ascending by neighbor id.
  NeighborView Neighbors(uint32_t v) const {
    size_t b = offsets_[v], e = offsets_[v + 1];
    return {targets_.data() + b, costs_.data() + b, e - b};
  }

  /// Raw CSR spans for hot loops that want structure-of-arrays access.
  std::span<const uint32_t> Targets(uint32_t v) const {
    return {targets_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }
  std::span<const double> Costs(uint32_t v) const {
    return {costs_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }
  size_t Degree(uint32_t v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Total cost of a tree given by its edges: Eq. (1), i.e. the sum of
  /// edge costs plus the weights of all incident nodes (each counted
  /// once). An empty edge set with one node `lone` costs w(lone).
  double TreeCost(const std::vector<std::pair<uint32_t, uint32_t>>& edges)
      const;

  /// Cheapest direct edge cost between u and v; +inf when absent.
  /// O(log d) binary search over u's sorted neighbor span.
  double EdgeCost(uint32_t u, uint32_t v) const;

 private:
  friend WeightedGraph UnitCostCopy(const WeightedGraph& g);

  std::vector<uint64_t> offsets_;  // size num_nodes + 1 (empty graph: {0})
  std::vector<uint32_t> targets_;
  std::vector<double> costs_;
  std::vector<double> node_weight_;
};

/// Accumulates edges and node weights, then freezes them into the CSR
/// WeightedGraph. Parallel edges are allowed but the algorithms treat the
/// cheapest as effective. For tests, benches and baselines; the serving
/// pipeline writes its graph with WeightedGraph::Writer directly.
class WeightedGraphBuilder {
 public:
  explicit WeightedGraphBuilder(size_t num_nodes)
      : node_weight_(num_nodes, 0.0) {}

  /// Adds an undirected edge with a positive cost.
  void AddEdge(uint32_t u, uint32_t v, double cost);

  void SetNodeWeight(uint32_t v, double w) { node_weight_[v] = w; }

  size_t num_nodes() const { return node_weight_.size(); }
  size_t num_edges() const { return half_edges_.size() / 2; }

  /// Freezes into the immutable CSR form: sorts the half-edges by
  /// (node, target, cost) and feeds them to WeightedGraph::Writer.
  WeightedGraph Build() const;

 private:
  struct HalfEdge {
    uint32_t from, to;
    double cost;
  };
  std::vector<HalfEdge> half_edges_;
  std::vector<double> node_weight_;
};

/// Copy of g with every edge cost replaced by 1 (the NEWST-E ablation).
/// Shared by the NEWST, Takahashi-Matsuyama and exact solvers. With CSR
/// storage this is a flat array copy — no rebuild.
WeightedGraph UnitCostCopy(const WeightedGraph& g);

}  // namespace rpg::steiner

#endif  // RPG_STEINER_WEIGHTED_GRAPH_H_
