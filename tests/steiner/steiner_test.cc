#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "common/rng.h"
#include "steiner/dijkstra.h"
#include "steiner/mst.h"
#include "steiner/newst.h"
#include "steiner/weighted_graph.h"
#include "test_graphs.h"

namespace rpg::steiner {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// --------------------------------------------------------- WeightedGraph

TEST(WeightedGraphTest, EdgesAreUndirected) {
  WeightedGraphBuilder b(3);
  b.AddEdge(0, 1, 2.0);
  WeightedGraph g = b.Build();
  EXPECT_EQ(g.num_edges(), 1u);
  ASSERT_EQ(g.Neighbors(0).size(), 1u);
  ASSERT_EQ(g.Neighbors(1).size(), 1u);
  EXPECT_EQ(g.Neighbors(0)[0].first, 1u);
  EXPECT_EQ(g.Neighbors(1)[0].first, 0u);
}

TEST(WeightedGraphTest, EdgeCostPicksCheapestParallel) {
  WeightedGraphBuilder b(2);
  b.AddEdge(0, 1, 5.0);
  b.AddEdge(0, 1, 2.0);
  WeightedGraph g = b.Build();
  EXPECT_DOUBLE_EQ(g.EdgeCost(0, 1), 2.0);
  EXPECT_EQ(g.EdgeCost(0, 0), kInf);
}

TEST(WeightedGraphTest, NeighborsSortedByTarget) {
  WeightedGraphBuilder b(5);
  b.AddEdge(2, 4, 1.0);
  b.AddEdge(2, 0, 3.0);
  b.AddEdge(2, 3, 2.0);
  b.AddEdge(2, 1, 4.0);
  WeightedGraph g = b.Build();
  ASSERT_EQ(g.Neighbors(2).size(), 4u);
  std::vector<uint32_t> targets;
  for (const auto& [v, c] : g.Neighbors(2)) targets.push_back(v);
  EXPECT_EQ(targets, (std::vector<uint32_t>{0, 1, 3, 4}));
  // CSR spans expose the same data structure-of-arrays style.
  EXPECT_EQ(g.Targets(2).size(), 4u);
  EXPECT_EQ(g.Costs(2).size(), 4u);
  EXPECT_EQ(g.Degree(2), 4u);
  EXPECT_DOUBLE_EQ(g.EdgeCost(2, 3), 2.0);
  EXPECT_EQ(g.EdgeCost(2, 2), kInf);
}

TEST(WeightedGraphTest, TreeCostSumsEdgesAndNodes) {
  WeightedGraphBuilder b(3);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 2.0);
  b.SetNodeWeight(0, 10.0);
  b.SetNodeWeight(1, 20.0);
  b.SetNodeWeight(2, 30.0);
  WeightedGraph g = b.Build();
  EXPECT_DOUBLE_EQ(g.TreeCost({{0, 1}, {1, 2}}), 1.0 + 2.0 + 60.0);
  EXPECT_DOUBLE_EQ(g.TreeCost({{0, 1}}), 1.0 + 30.0);
  EXPECT_DOUBLE_EQ(g.TreeCost({}), 0.0);
}

TEST(WeightedGraphTest, UnitCostCopyKeepsTopology) {
  WeightedGraphBuilder b(3);
  b.AddEdge(0, 1, 7.5);
  b.AddEdge(1, 2, 0.25);
  b.SetNodeWeight(1, 4.0);
  WeightedGraph g = b.Build();
  WeightedGraph unit = UnitCostCopy(g);
  EXPECT_EQ(unit.num_nodes(), 3u);
  EXPECT_EQ(unit.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(unit.EdgeCost(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(unit.EdgeCost(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(unit.NodeWeight(1), 4.0);
  EXPECT_EQ(unit.EdgeCost(0, 2), kInf);
}

// -------------------------------------------------------------- Dijkstra

WeightedGraph Chain(const std::vector<double>& edge_costs,
                    const std::vector<double>& node_weights) {
  WeightedGraphBuilder b(node_weights.size());
  for (size_t i = 0; i < node_weights.size(); ++i) {
    b.SetNodeWeight(static_cast<uint32_t>(i), node_weights[i]);
  }
  for (size_t i = 0; i < edge_costs.size(); ++i) {
    b.AddEdge(static_cast<uint32_t>(i), static_cast<uint32_t>(i + 1),
              edge_costs[i]);
  }
  return b.Build();
}

TEST(DijkstraTest, ChainDistancesIncludeNodeWeights) {
  WeightedGraph g = Chain({1.0, 2.0}, {100.0, 5.0, 7.0});
  ShortestPathTree t = Dijkstra(g, 0);
  // Source weight never counted; each subsequent node's weight is.
  EXPECT_DOUBLE_EQ(t.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(t.dist[1], 1.0 + 5.0);
  EXPECT_DOUBLE_EQ(t.dist[2], 1.0 + 5.0 + 2.0 + 7.0);
}

TEST(DijkstraTest, NodeWeightsCanBeDisabled) {
  WeightedGraph g = Chain({1.0, 2.0}, {100.0, 5.0, 7.0});
  ShortestPathTree t = Dijkstra(g, 0, /*include_node_weights=*/false);
  EXPECT_DOUBLE_EQ(t.dist[2], 3.0);
}

TEST(DijkstraTest, HeavyNodeIsRoutedAround) {
  // 0-1-3 via cheap edges but heavy node 1; 0-2-3 longer edges, light node.
  WeightedGraphBuilder b(4);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 3, 1.0);
  b.AddEdge(0, 2, 2.0);
  b.AddEdge(2, 3, 2.0);
  b.SetNodeWeight(1, 50.0);
  b.SetNodeWeight(2, 1.0);
  WeightedGraph g = b.Build();
  ShortestPathTree t = Dijkstra(g, 0);
  EXPECT_EQ(t.PathTo(3), (std::vector<uint32_t>{0, 2, 3}));
}

TEST(DijkstraTest, UnreachableNodes) {
  WeightedGraphBuilder b(3);
  b.AddEdge(0, 1, 1.0);
  WeightedGraph g = b.Build();
  ShortestPathTree t = Dijkstra(g, 0);
  EXPECT_EQ(t.dist[2], kInf);
  EXPECT_TRUE(t.PathTo(2).empty());
}

TEST(DijkstraTest, PathToSelf) {
  WeightedGraphBuilder b(2);
  b.AddEdge(0, 1, 1.0);
  WeightedGraph g = b.Build();
  ShortestPathTree t = Dijkstra(g, 0);
  EXPECT_EQ(t.PathTo(0), (std::vector<uint32_t>{0}));
}

TEST(DijkstraTest, InvalidSourceYieldsAllUnreachable) {
  WeightedGraphBuilder b(2);
  b.AddEdge(0, 1, 1.0);
  WeightedGraph g = b.Build();
  ShortestPathTree t = Dijkstra(g, 7);
  EXPECT_EQ(t.dist[0], kInf);
}

TEST(DijkstraTest, StatsCountWork) {
  WeightedGraph g = Chain({1.0, 2.0, 3.0}, {0.0, 0.0, 0.0, 0.0});
  SteinerStats stats;
  Dijkstra(g, 0, true, &stats);
  EXPECT_EQ(stats.nodes_settled, 4u);
  EXPECT_GE(stats.heap_pushes, 4u);
  EXPECT_EQ(stats.dijkstra_runs, 1u);
}

TEST(DijkstraTest, MatchesBruteForceOnRandomGraphs) {
  // Property check: Dijkstra distance equals Bellman-Ford distance.
  Rng rng(404);
  for (int trial = 0; trial < 20; ++trial) {
    const uint32_t n = 12;
    WeightedGraphBuilder b(n);
    for (uint32_t v = 0; v < n; ++v) {
      b.SetNodeWeight(v, rng.UniformDouble(0.0, 5.0));
    }
    std::set<std::pair<uint32_t, uint32_t>> used;
    for (int e = 0; e < 25; ++e) {
      uint32_t u = static_cast<uint32_t>(rng.NextBounded(n));
      uint32_t v = static_cast<uint32_t>(rng.NextBounded(n));
      if (u == v) continue;
      if (!used.insert({std::min(u, v), std::max(u, v)}).second) continue;
      b.AddEdge(u, v, rng.UniformDouble(0.1, 4.0));
    }
    WeightedGraph g = b.Build();
    ShortestPathTree t = Dijkstra(g, 0);
    // Bellman-Ford over the same relaxation rule.
    std::vector<double> dist(n, kInf);
    dist[0] = 0.0;
    for (uint32_t round = 0; round < n; ++round) {
      for (uint32_t u = 0; u < n; ++u) {
        if (dist[u] == kInf) continue;
        for (const auto& [v, c] : g.Neighbors(u)) {
          double nd = dist[u] + c + g.NodeWeight(v);
          if (nd < dist[v]) dist[v] = nd;
        }
      }
    }
    for (uint32_t v = 0; v < n; ++v) {
      if (dist[v] == kInf) {
        EXPECT_EQ(t.dist[v], kInf);
      } else {
        EXPECT_NEAR(t.dist[v], dist[v], 1e-9) << "trial " << trial;
      }
    }
  }
}

// -------------------------------------------------- MultiSourceDijkstra

TEST(MultiSourceDijkstraTest, VoronoiCellsAndDistances) {
  // 0 - 1 - 2 - 3 - 4 chain, sources {0, 4}.
  WeightedGraph g = Chain({1.0, 1.0, 1.0, 1.0}, {0, 0, 0, 0, 0});
  VoronoiPartition vp = MultiSourceDijkstra(g, {0, 4}, false);
  EXPECT_DOUBLE_EQ(vp.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(vp.dist[4], 0.0);
  EXPECT_EQ(vp.source[0], 0u);
  EXPECT_EQ(vp.source[4], 1u);
  EXPECT_EQ(vp.source[1], 0u);
  EXPECT_EQ(vp.source[3], 1u);
  EXPECT_DOUBLE_EQ(vp.dist[1], 1.0);
  EXPECT_DOUBLE_EQ(vp.dist[3], 1.0);
  // Node 2 is equidistant; it belongs to exactly one of the two cells.
  EXPECT_DOUBLE_EQ(vp.dist[2], 2.0);
  EXPECT_TRUE(vp.source[2] == 0u || vp.source[2] == 1u);
}

TEST(MultiSourceDijkstraTest, MatchesPerSourceMinimum) {
  Rng rng(909);
  for (int trial = 0; trial < 10; ++trial) {
    const uint32_t n = 14;
    WeightedGraphBuilder b(n);
    for (uint32_t v = 0; v < n; ++v) {
      b.SetNodeWeight(v, rng.UniformDouble(0.0, 2.0));
    }
    for (uint32_t i = 0; i < n; ++i) {
      b.AddEdge(i, (i + 1) % n, rng.UniformDouble(0.2, 3.0));
    }
    for (int e = 0; e < 10; ++e) {
      uint32_t u = static_cast<uint32_t>(rng.NextBounded(n));
      uint32_t v = static_cast<uint32_t>(rng.NextBounded(n));
      if (u != v) b.AddEdge(u, v, rng.UniformDouble(0.2, 3.0));
    }
    WeightedGraph g = b.Build();
    std::vector<uint32_t> sources = {1, 5, 9};
    VoronoiPartition vp = MultiSourceDijkstra(g, sources, true);
    std::vector<ShortestPathTree> trees;
    for (uint32_t s : sources) trees.push_back(Dijkstra(g, s, true));
    for (uint32_t v = 0; v < n; ++v) {
      double best = kInf;
      for (const auto& t : trees) best = std::min(best, t.dist[v]);
      EXPECT_NEAR(vp.dist[v], best, 1e-9) << "node " << v;
      // The owning cell achieves the minimum distance.
      ASSERT_NE(vp.source[v], UINT32_MAX);
      EXPECT_NEAR(trees[vp.source[v]].dist[v], best, 1e-9);
    }
  }
}

TEST(MultiSourceDijkstraTest, UnreachableAndParentChain) {
  WeightedGraphBuilder b(5);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 1.0);
  // 3, 4 disconnected island.
  b.AddEdge(3, 4, 1.0);
  WeightedGraph g = b.Build();
  VoronoiPartition vp = MultiSourceDijkstra(g, {0}, false);
  EXPECT_EQ(vp.source[3], UINT32_MAX);
  EXPECT_EQ(vp.parent[3], UINT32_MAX);
  // 2's parent chain walks back to the source: 2 -> 1 -> 0.
  EXPECT_EQ(vp.parent[2], 1u);
  EXPECT_EQ(vp.parent[1], 0u);
  EXPECT_EQ(vp.parent[0], UINT32_MAX);
}

// ------------------------------------------------------------------- MST

TEST(DisjointSetsTest, UnionFindBasics) {
  DisjointSets s(4);
  EXPECT_NE(s.Find(0), s.Find(1));
  EXPECT_TRUE(s.Union(0, 1));
  EXPECT_FALSE(s.Union(0, 1));
  EXPECT_EQ(s.Find(0), s.Find(1));
  EXPECT_TRUE(s.Union(1, 2));
  EXPECT_EQ(s.Find(0), s.Find(2));
  EXPECT_NE(s.Find(0), s.Find(3));
}

TEST(KruskalTest, PicksCheapestSpanningEdges) {
  std::vector<Edge> edges = {{0, 1, 1.0}, {1, 2, 2.0}, {0, 2, 5.0}};
  auto mst = KruskalMst(3, edges);
  ASSERT_EQ(mst.size(), 2u);
  double total = 0.0;
  for (const auto& e : mst) total += e.cost;
  EXPECT_DOUBLE_EQ(total, 3.0);
}

TEST(KruskalTest, DisconnectedYieldsForest) {
  std::vector<Edge> edges = {{0, 1, 1.0}, {2, 3, 1.0}};
  auto mst = KruskalMst(4, edges);
  EXPECT_EQ(mst.size(), 2u);
}

TEST(KruskalTest, EmptyInput) {
  EXPECT_TRUE(KruskalMst(3, {}).empty());
}

TEST(PrimTest, MatchesKruskalCostOnRandomGraphs) {
  Rng rng(505);
  for (int trial = 0; trial < 15; ++trial) {
    const uint32_t n = 10;
    WeightedGraphBuilder b(n);
    std::vector<Edge> edges;
    // Ring + chords guarantees connectivity.
    for (uint32_t i = 0; i < n; ++i) {
      double c = rng.UniformDouble(0.1, 3.0);
      b.AddEdge(i, (i + 1) % n, c);
      edges.push_back({i, (i + 1) % n, c});
    }
    for (int e = 0; e < 8; ++e) {
      uint32_t u = static_cast<uint32_t>(rng.NextBounded(n));
      uint32_t v = static_cast<uint32_t>(rng.NextBounded(n));
      if (u == v) continue;
      double c = rng.UniformDouble(0.1, 3.0);
      b.AddEdge(u, v, c);
      edges.push_back({u, v, c});
    }
    WeightedGraph g = b.Build();
    auto prim = PrimMst(g, 0);
    auto kruskal = KruskalMst(n, edges);
    ASSERT_EQ(prim.size(), n - 1);
    ASSERT_EQ(kruskal.size(), n - 1);
    double prim_cost = 0.0, kruskal_cost = 0.0;
    for (const auto& e : prim) prim_cost += e.cost;
    for (const auto& e : kruskal) kruskal_cost += e.cost;
    EXPECT_NEAR(prim_cost, kruskal_cost, 1e-9);
  }
}

TEST(PrimTest, CoversOnlyStartComponent) {
  WeightedGraphBuilder b(4);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(2, 3, 1.0);
  WeightedGraph g = b.Build();
  EXPECT_EQ(PrimMst(g, 0).size(), 1u);
}

// ----------------------------------------------------------------- NEWST
//
// Every NEWST behaviour test runs in BOTH closure modes: the Mehlhorn
// single-pass construction is the default hot path, the classic
// per-terminal closure the verification mode — they must agree on all of
// these deterministic instances.

class NewstTest : public ::testing::TestWithParam<ClosureMode> {
 protected:
  NewstOptions Options() const {
    NewstOptions o;
    o.closure_mode = GetParam();
    return o;
  }
};

INSTANTIATE_TEST_SUITE_P(BothClosureModes, NewstTest,
                         ::testing::Values(ClosureMode::kMehlhorn,
                                           ClosureMode::kClassic),
                         [](const auto& info) {
                           return info.param == ClosureMode::kMehlhorn
                                      ? "Mehlhorn"
                                      : "Classic";
                         });

/// Validates that a SteinerResult is a forest spanning the terminals.
void CheckTreeInvariants(const WeightedGraph& g, const SteinerResult& r,
                         const std::vector<uint32_t>& terminals) {
  std::set<uint32_t> nodes(r.nodes.begin(), r.nodes.end());
  for (uint32_t t : terminals) {
    EXPECT_TRUE(nodes.contains(t)) << "terminal " << t << " missing";
  }
  // Every edge exists in g and connects tree nodes.
  for (const auto& [u, v] : r.edges) {
    EXPECT_LT(g.EdgeCost(u, v), kInf);
    EXPECT_TRUE(nodes.contains(u));
    EXPECT_TRUE(nodes.contains(v));
  }
  // Acyclic: |E| <= |V| - #components, verified via union-find.
  DisjointSets sets(g.num_nodes());
  for (const auto& [u, v] : r.edges) {
    EXPECT_TRUE(sets.Union(u, v)) << "cycle through " << u << "-" << v;
  }
}

TEST_P(NewstTest, SingleTerminalIsTrivial) {
  WeightedGraphBuilder b(3);
  b.AddEdge(0, 1, 1.0);
  WeightedGraph g = b.Build();
  auto r = SolveNewst(g, {1}, Options());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->nodes, (std::vector<uint32_t>{1}));
  EXPECT_TRUE(r->edges.empty());
}

TEST_P(NewstTest, TwoTerminalsUseShortestPath) {
  // 0 - 1 - 2 with cheap middle vs direct expensive edge.
  WeightedGraphBuilder b(3);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 1.0);
  b.AddEdge(0, 2, 10.0);
  WeightedGraph g = b.Build();
  auto r = SolveNewst(g, {0, 2}, Options());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->nodes, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(r->edges.size(), 2u);
  CheckTreeInvariants(g, r.value(), {0, 2});
}

TEST_P(NewstTest, NodeWeightSteersSteinerPoint) {
  // Terminals 0, 2; two possible connectors: 1 (heavy) and 3 (light).
  WeightedGraphBuilder b(4);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 1.0);
  b.AddEdge(0, 3, 1.0);
  b.AddEdge(3, 2, 1.0);
  b.SetNodeWeight(1, 100.0);
  b.SetNodeWeight(3, 0.5);
  WeightedGraph g = b.Build();
  auto r = SolveNewst(g, {0, 2}, Options());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(std::find(r->nodes.begin(), r->nodes.end(), 3) != r->nodes.end());
  EXPECT_TRUE(std::find(r->nodes.begin(), r->nodes.end(), 1) == r->nodes.end());
}

TEST_P(NewstTest, DisablingNodeWeightsChangesChoice) {
  WeightedGraphBuilder b(4);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 1.0);
  b.AddEdge(0, 3, 1.5);
  b.AddEdge(3, 2, 1.5);
  b.SetNodeWeight(1, 100.0);
  WeightedGraph g = b.Build();
  // With node weights: route via 3. Without: via 1 (cheaper edges).
  auto with = SolveNewst(g, {0, 2}, Options());
  NewstOptions options = Options();
  options.use_node_weights = false;
  auto without = SolveNewst(g, {0, 2}, options);
  ASSERT_TRUE(with.ok() && without.ok());
  EXPECT_TRUE(std::find(with->nodes.begin(), with->nodes.end(), 3) !=
              with->nodes.end());
  EXPECT_TRUE(std::find(without->nodes.begin(), without->nodes.end(), 1) !=
              without->nodes.end());
}

TEST_P(NewstTest, DisablingEdgeWeightsUsesFewestHops) {
  // Path 0-1-2 has 2 cheap hops; direct 0-2 is expensive but 1 hop.
  WeightedGraphBuilder b(3);
  b.AddEdge(0, 1, 0.1);
  b.AddEdge(1, 2, 0.1);
  b.AddEdge(0, 2, 9.0);
  WeightedGraph g = b.Build();
  NewstOptions options = Options();
  options.use_edge_weights = false;
  auto r = SolveNewst(g, {0, 2}, options);
  ASSERT_TRUE(r.ok());
  // With unit costs the direct edge (1 hop) wins.
  EXPECT_EQ(r->nodes, (std::vector<uint32_t>{0, 2}));
}

TEST_P(NewstTest, StarTerminalsShareTheHub) {
  // Terminals 1, 2, 3 all attach to hub 0.
  WeightedGraphBuilder b(4);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(0, 2, 1.0);
  b.AddEdge(0, 3, 1.0);
  WeightedGraph g = b.Build();
  auto r = SolveNewst(g, {1, 2, 3}, Options());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->nodes.size(), 4u);
  EXPECT_EQ(r->edges.size(), 3u);
  CheckTreeInvariants(g, r.value(), {1, 2, 3});
}

TEST_P(NewstTest, PrunesNonTerminalLeaves) {
  // A dangling high-value path must not survive in the tree.
  WeightedGraphBuilder b(4);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 1.0);
  b.AddEdge(1, 3, 0.01);  // tempting but dangling
  WeightedGraph g = b.Build();
  auto r = SolveNewst(g, {0, 2}, Options());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(std::find(r->nodes.begin(), r->nodes.end(), 3) == r->nodes.end());
}

TEST_P(NewstTest, DuplicateTerminalsCollapse) {
  WeightedGraphBuilder b(2);
  b.AddEdge(0, 1, 1.0);
  WeightedGraph g = b.Build();
  auto r = SolveNewst(g, {0, 0, 1, 1}, Options());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->nodes.size(), 2u);
  EXPECT_EQ(r->edges.size(), 1u);
}

TEST_P(NewstTest, EmptyTerminalsRejected) {
  WeightedGraphBuilder b(2);
  b.AddEdge(0, 1, 1.0);
  WeightedGraph g = b.Build();
  EXPECT_TRUE(SolveNewst(g, {}, Options()).status().IsInvalidArgument());
}

TEST_P(NewstTest, OutOfRangeTerminalRejected) {
  WeightedGraphBuilder b(2);
  b.AddEdge(0, 1, 1.0);
  WeightedGraph g = b.Build();
  EXPECT_TRUE(SolveNewst(g, {5}, Options()).status().IsInvalidArgument());
}

TEST_P(NewstTest, DisconnectedTerminalsReportUnreachable) {
  WeightedGraphBuilder b(4);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(2, 3, 1.0);
  WeightedGraph g = b.Build();
  auto r = SolveNewst(g, {0, 1, 2, 3}, Options());
  ASSERT_TRUE(r.ok());
  // Forest spans both islands; terminals outside component of 0 reported.
  EXPECT_EQ(r->edges.size(), 2u);
  EXPECT_EQ(r->unreachable_terminals, (std::vector<uint32_t>{2, 3}));
}

TEST_P(NewstTest, TotalCostMatchesTreeCost) {
  WeightedGraphBuilder b(5);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 2.0);
  b.AddEdge(2, 3, 1.5);
  b.AddEdge(3, 4, 0.5);
  b.AddEdge(0, 4, 10.0);
  for (uint32_t v = 0; v < 5; ++v) b.SetNodeWeight(v, 0.25 * (v + 1));
  WeightedGraph g = b.Build();
  auto r = SolveNewst(g, {0, 2, 4}, Options());
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->total_cost, g.TreeCost(r->edges), 1e-9);
}

TEST_P(NewstTest, StatsReflectClosureWork) {
  WeightedGraphBuilder b(6);
  for (uint32_t i = 0; i + 1 < 6; ++i) b.AddEdge(i, i + 1, 1.0);
  WeightedGraph g = b.Build();
  auto r = SolveNewst(g, {0, 2, 5}, Options());
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.nodes_settled, 0u);
  EXPECT_GT(r->stats.heap_pushes, 0u);
  EXPECT_GT(r->stats.closure_edges, 0u);
  EXPECT_GE(r->stats.closure_seconds, 0.0);
  // One multi-source run vs one per terminal.
  if (GetParam() == ClosureMode::kMehlhorn) {
    EXPECT_EQ(r->stats.dijkstra_runs, 1u);
  } else {
    EXPECT_EQ(r->stats.dijkstra_runs, 3u);
  }
}

/// Brute-force optimal Steiner tree by enumerating Steiner-node subsets
/// and MSTs over the induced metric (exact for small n via edge subsets).
double BruteForceSteinerCost(const WeightedGraph& g,
                             const std::vector<uint32_t>& terminals,
                             bool node_weights) {
  const uint32_t n = static_cast<uint32_t>(g.num_nodes());
  double best = kInf;
  // Enumerate every superset of terminals.
  std::set<uint32_t> term_set(terminals.begin(), terminals.end());
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    bool contains_all = true;
    for (uint32_t t : term_set) {
      if (!(mask & (1u << t))) {
        contains_all = false;
        break;
      }
    }
    if (!contains_all) continue;
    // MST over the induced subgraph; skip if disconnected.
    std::vector<uint32_t> nodes;
    for (uint32_t v = 0; v < n; ++v) {
      if (mask & (1u << v)) nodes.push_back(v);
    }
    std::map<uint32_t, uint32_t> compact;
    for (uint32_t i = 0; i < nodes.size(); ++i) compact[nodes[i]] = i;
    std::vector<Edge> edges;
    for (uint32_t u : nodes) {
      for (const auto& [v, c] : g.Neighbors(u)) {
        if (u < v && compact.contains(v)) {
          edges.push_back({compact[u], compact[v], c});
        }
      }
    }
    auto mst = KruskalMst(nodes.size(), edges);
    if (mst.size() != nodes.size() - 1) continue;  // disconnected
    double cost = 0.0;
    for (const auto& e : mst) cost += e.cost;
    if (node_weights) {
      for (uint32_t v : nodes) cost += g.NodeWeight(v);
    }
    best = std::min(best, cost);
  }
  return best;
}

TEST_P(NewstTest, WithinKmbBoundOfOptimumOnRandomGraphs) {
  Rng rng(606);
  int solved = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const uint32_t n = 9;
    WeightedGraphBuilder b(n);
    for (uint32_t v = 0; v < n; ++v) {
      b.SetNodeWeight(v, rng.UniformDouble(0.0, 2.0));
    }
    // Ring for connectivity + random chords.
    for (uint32_t i = 0; i < n; ++i) {
      b.AddEdge(i, (i + 1) % n, rng.UniformDouble(0.2, 3.0));
    }
    for (int e = 0; e < 6; ++e) {
      uint32_t u = static_cast<uint32_t>(rng.NextBounded(n));
      uint32_t v = static_cast<uint32_t>(rng.NextBounded(n));
      if (u != v) b.AddEdge(u, v, rng.UniformDouble(0.2, 3.0));
    }
    WeightedGraph g = b.Build();
    std::vector<uint32_t> terminals = RandomTerminals(&rng, n, 3);
    auto r = SolveNewst(g, terminals, Options());
    ASSERT_TRUE(r.ok());
    CheckTreeInvariants(g, r.value(), terminals);
    double opt = BruteForceSteinerCost(g, terminals, /*node_weights=*/true);
    ASSERT_LT(opt, kInf);
    // KMB guarantee: within 2(1 - 1/l) <= 2x of optimal.
    EXPECT_LE(r->total_cost, 2.0 * opt + 1e-9) << "trial " << trial;
    EXPECT_GE(r->total_cost, opt - 1e-9) << "trial " << trial;
    ++solved;
  }
  EXPECT_EQ(solved, 25);
}

}  // namespace
}  // namespace rpg::steiner
