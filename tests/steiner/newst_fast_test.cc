// Closure-mode equivalence suite (ISSUE 1): the Mehlhorn single-pass
// closure must stay within the KMB 2(1 - 1/l) bound of the true optimum,
// agree with the classic per-terminal closure wherever Voronoi regions
// are unambiguous, and report identical unreachable-terminal sets.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/rng.h"
#include "steiner/exact.h"
#include "steiner/newst.h"
#include "steiner/takahashi.h"
#include "steiner/weighted_graph.h"
#include "test_graphs.h"

namespace rpg::steiner {
namespace {

/// Two islands of `half` nodes each (rings), no edge between them.
WeightedGraph TwoIslands(Rng* rng, uint32_t half) {
  WeightedGraphBuilder b(2 * half);
  for (uint32_t i = 0; i < half; ++i) {
    b.AddEdge(i, (i + 1) % half, rng->UniformDouble(0.2, 2.0));
    b.AddEdge(half + i, half + (i + 1) % half, rng->UniformDouble(0.2, 2.0));
  }
  return b.Build();
}

NewstOptions Mode(ClosureMode m) {
  NewstOptions o;
  o.closure_mode = m;
  return o;
}

TEST(NewstFastTest, WithinKmbBoundOfExactOptimum) {
  // Mehlhorn-mode SolveNewst vs the Dreyfus-Wagner optimum on randomized graphs:
  // the Mehlhorn construction must keep the 2(1 - 1/l) <= 2x guarantee.
  Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    WeightedGraph g = RandomConnected(&rng, 14, 12);
    auto terminals = RandomTerminals(&rng, 14, 5);
    auto exact = SolveExactSteiner(g, terminals);
    auto fast = SolveNewst(g, terminals, Mode(ClosureMode::kMehlhorn));
    ASSERT_TRUE(exact.ok() && fast.ok());
    EXPECT_GE(fast->total_cost, exact->total_cost - 1e-9) << "trial " << trial;
    EXPECT_LE(fast->total_cost, 2.0 * exact->total_cost + 1e-9)
        << "trial " << trial;
  }
}

TEST(NewstFastTest, ClassicAndFastMutuallyBounded) {
  // Both modes are >= OPT and <= 2 OPT, so each is within 2x of the
  // other — on any instance, not just small ones.
  Rng rng(2025);
  for (int trial = 0; trial < 20; ++trial) {
    WeightedGraph g = RandomConnected(&rng, 60, 80);
    auto terminals = RandomTerminals(&rng, 60, 12);
    auto classic = SolveNewst(g, terminals, Mode(ClosureMode::kClassic));
    auto fast = SolveNewst(g, terminals, Mode(ClosureMode::kMehlhorn));
    ASSERT_TRUE(classic.ok() && fast.ok());
    EXPECT_LE(fast->total_cost, 2.0 * classic->total_cost + 1e-9);
    EXPECT_LE(classic->total_cost, 2.0 * fast->total_cost + 1e-9);
  }
}

TEST(NewstFastTest, ModesAgreeWhenVoronoiRegionsUnambiguous) {
  // A chain with strictly increasing edge costs: every node has a unique
  // nearest terminal, so both closures select the same paths and the
  // trees have identical cost.
  WeightedGraphBuilder b(7);
  double costs[] = {0.5, 0.7, 1.1, 1.3, 1.7, 1.9};
  for (uint32_t i = 0; i < 6; ++i) b.AddEdge(i, i + 1, costs[i]);
  for (uint32_t v = 0; v < 7; ++v) b.SetNodeWeight(v, 0.1 * v);
  WeightedGraph g = b.Build();
  for (std::vector<uint32_t> terminals :
       {std::vector<uint32_t>{0, 6}, std::vector<uint32_t>{0, 3, 6},
        std::vector<uint32_t>{1, 2, 5}}) {
    auto classic = SolveNewst(g, terminals, Mode(ClosureMode::kClassic));
    auto fast = SolveNewst(g, terminals, Mode(ClosureMode::kMehlhorn));
    ASSERT_TRUE(classic.ok() && fast.ok());
    EXPECT_NEAR(classic->total_cost, fast->total_cost, 1e-9);
    EXPECT_EQ(classic->nodes, fast->nodes);
    EXPECT_EQ(classic->edges, fast->edges);
  }
}

TEST(NewstFastTest, ModesAgreeOnStar) {
  WeightedGraphBuilder b(5);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(0, 2, 1.5);
  b.AddEdge(0, 3, 2.0);
  b.AddEdge(0, 4, 2.5);
  WeightedGraph g = b.Build();
  auto classic = SolveNewst(g, {1, 2, 3, 4}, Mode(ClosureMode::kClassic));
  auto fast = SolveNewst(g, {1, 2, 3, 4}, Mode(ClosureMode::kMehlhorn));
  ASSERT_TRUE(classic.ok() && fast.ok());
  EXPECT_NEAR(classic->total_cost, fast->total_cost, 1e-9);
  EXPECT_EQ(classic->nodes, fast->nodes);
}

TEST(NewstFastTest, UnreachableTerminalsParityRandomized) {
  // Regression: both closure modes (and Takahashi-Matsuyama) must report
  // the same unreachable set on disconnected graphs.
  Rng rng(2026);
  for (int trial = 0; trial < 15; ++trial) {
    const uint32_t half = 6;
    WeightedGraph g = TwoIslands(&rng, half);
    // Terminals straddle the two islands; terms[0] decides the "main"
    // component, everything on the other island must be reported.
    std::vector<uint32_t> terminals = {0, 2, 4, half, half + 3};
    auto classic = SolveNewst(g, terminals, Mode(ClosureMode::kClassic));
    auto fast = SolveNewst(g, terminals, Mode(ClosureMode::kMehlhorn));
    auto tm = SolveTakahashiMatsuyama(g, terminals);
    ASSERT_TRUE(classic.ok() && fast.ok() && tm.ok());
    EXPECT_EQ(classic->unreachable_terminals,
              (std::vector<uint32_t>{half, half + 3}));
    EXPECT_EQ(fast->unreachable_terminals, classic->unreachable_terminals);
    EXPECT_EQ(tm->unreachable_terminals, classic->unreachable_terminals);
    // Both modes still span the reachable islands as a forest.
    EXPECT_LE(fast->total_cost, 2.0 * classic->total_cost + 1e-9);
    EXPECT_LE(classic->total_cost, 2.0 * fast->total_cost + 1e-9);
  }
}

TEST(NewstFastTest, AblationFlagsWorkInFastMode) {
  Rng rng(2027);
  WeightedGraph g = RandomConnected(&rng, 12, 10);
  auto terminals = RandomTerminals(&rng, 12, 4);
  for (bool node_weights : {true, false}) {
    for (bool edge_weights : {true, false}) {
      NewstOptions options = Mode(ClosureMode::kMehlhorn);
      options.use_node_weights = node_weights;
      options.use_edge_weights = edge_weights;
      auto exact = SolveExactSteiner(g, terminals, options);
      auto fast = SolveNewst(g, terminals, options);
      ASSERT_TRUE(exact.ok() && fast.ok());
      EXPECT_LE(exact->total_cost, fast->total_cost + 1e-9);
      EXPECT_LE(fast->total_cost, 2.0 * exact->total_cost + 1e-9);
    }
  }
}

TEST(NewstFastTest, FastModeDoesAsymptoticallyLessWork) {
  // On a |S| = 16 instance the classic closure runs 16 Dijkstras and
  // settles ~16x the nodes; the Mehlhorn closure settles each node once.
  Rng rng(2028);
  const uint32_t n = 400;
  WeightedGraph g = RandomConnected(&rng, n, 800);
  auto terminals = RandomTerminals(&rng, n, 16);
  auto classic = SolveNewst(g, terminals, Mode(ClosureMode::kClassic));
  auto fast = SolveNewst(g, terminals, Mode(ClosureMode::kMehlhorn));
  ASSERT_TRUE(classic.ok() && fast.ok());
  EXPECT_EQ(classic->stats.dijkstra_runs, 16u);
  EXPECT_EQ(fast->stats.dijkstra_runs, 1u);
  EXPECT_LE(fast->stats.nodes_settled, n);
  EXPECT_GE(classic->stats.nodes_settled, 8u * fast->stats.nodes_settled);
  EXPECT_GT(classic->stats.heap_pushes, fast->stats.heap_pushes);
  // The Mehlhorn closure graph is also far sparser than all-pairs.
  EXPECT_LE(fast->stats.closure_edges, classic->stats.closure_edges * 2);
}

TEST(NewstFastTest, TotalCostMatchesTreeCostInFastMode) {
  Rng rng(2029);
  for (int trial = 0; trial < 10; ++trial) {
    WeightedGraph g = RandomConnected(&rng, 30, 40);
    auto terminals = RandomTerminals(&rng, 30, 8);
    auto fast = SolveNewst(g, terminals, Mode(ClosureMode::kMehlhorn));
    ASSERT_TRUE(fast.ok());
    EXPECT_NEAR(fast->total_cost, g.TreeCost(fast->edges), 1e-9);
    EXPECT_TRUE(fast->unreachable_terminals.empty());
  }
}

}  // namespace
}  // namespace rpg::steiner
