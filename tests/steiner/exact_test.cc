#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "steiner/exact.h"
#include "steiner/newst.h"
#include "steiner/takahashi.h"
#include "test_graphs.h"

namespace rpg::steiner {
namespace {

TEST(ExactSteinerTest, SingleTerminal) {
  WeightedGraphBuilder b(3);
  b.AddEdge(0, 1, 1.0);
  b.SetNodeWeight(2, 4.0);
  WeightedGraph g = b.Build();
  auto r = SolveExactSteiner(g, {2});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->nodes, (std::vector<uint32_t>{2}));
  EXPECT_DOUBLE_EQ(r->total_cost, 4.0);
}

TEST(ExactSteinerTest, TwoTerminalsIsShortestPath) {
  WeightedGraphBuilder b(4);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 1.0);
  b.AddEdge(0, 3, 5.0);
  b.AddEdge(3, 2, 5.0);
  WeightedGraph g = b.Build();
  auto r = SolveExactSteiner(g, {0, 2});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->nodes, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(r->total_cost, 2.0);
}

TEST(ExactSteinerTest, RejectsBadInput) {
  WeightedGraphBuilder b(2);
  b.AddEdge(0, 1, 1.0);
  WeightedGraph g = b.Build();
  EXPECT_TRUE(SolveExactSteiner(g, {}).status().IsInvalidArgument());
  EXPECT_TRUE(SolveExactSteiner(g, {9}).status().IsInvalidArgument());
  std::vector<uint32_t> too_many;
  for (uint32_t i = 0; i < 13; ++i) too_many.push_back(i);
  WeightedGraphBuilder big_builder(13);
  for (uint32_t i = 0; i + 1 < 13; ++i) big_builder.AddEdge(i, i + 1, 1.0);
  WeightedGraph big = big_builder.Build();
  EXPECT_TRUE(SolveExactSteiner(big, too_many).status().IsInvalidArgument());
}

TEST(ExactSteinerTest, DisconnectedTerminalsFail) {
  WeightedGraphBuilder b(4);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(2, 3, 1.0);
  WeightedGraph g = b.Build();
  EXPECT_EQ(SolveExactSteiner(g, {0, 2}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ExactSteinerTest, NeverWorseThanHeuristics) {
  Rng rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    WeightedGraph g = RandomConnected(&rng, 12, 10);
    auto terminals = RandomTerminals(&rng, 12, 4);
    auto exact = SolveExactSteiner(g, terminals);
    auto kmb = SolveNewst(g, terminals);
    auto tm = SolveTakahashiMatsuyama(g, terminals);
    ASSERT_TRUE(exact.ok() && kmb.ok() && tm.ok());
    EXPECT_LE(exact->total_cost, kmb->total_cost + 1e-9) << trial;
    EXPECT_LE(exact->total_cost, tm->total_cost + 1e-9) << trial;
    // KMB guarantee relative to the true optimum.
    EXPECT_LE(kmb->total_cost, 2.0 * exact->total_cost + 1e-9) << trial;
    EXPECT_LE(tm->total_cost, 2.0 * exact->total_cost + 1e-9) << trial;
  }
}

TEST(ExactSteinerTest, EdgeWeightedTreesWithinTheKmbBound) {
  // Kou, Markowsky and Berman: on an edge-weighted instance the tree
  // costs at most 2(1 - 1/l) times the optimum, l the number of leaves
  // of an optimal tree. Both closure modes must keep that bound; node
  // weights are off, since the bound is for edge costs alone.
  for (ClosureMode mode : {ClosureMode::kMehlhorn, ClosureMode::kClassic}) {
    NewstOptions options;
    options.use_node_weights = false;
    options.closure_mode = mode;
    Rng rng(780);  // the same instances in both modes
    std::vector<double> ratios;
    for (int trial = 0; trial < 300; ++trial) {
      const auto n = static_cast<uint32_t>(8 + rng.NextBounded(9));
      WeightedGraph g = RandomConnected(&rng, n, static_cast<int>(n));
      auto terminals = RandomTerminals(
          &rng, n, static_cast<uint32_t>(2 + rng.NextBounded(7)));
      auto exact = SolveExactSteiner(g, terminals, options);
      auto kmb = SolveNewst(g, terminals, options);
      ASSERT_TRUE(exact.ok() && kmb.ok()) << trial;
      std::vector<int> degree(n, 0);
      for (const auto& [a, b] : exact->edges) {
        ++degree[a];
        ++degree[b];
      }
      const auto leaves = std::count(degree.begin(), degree.end(), 1);
      ASSERT_GE(leaves, 2) << trial;
      const double factor = 2.0 * (1.0 - 1.0 / static_cast<double>(leaves));
      EXPECT_LE(kmb->total_cost, factor * exact->total_cost + 1e-9)
          << "trial " << trial << ": " << leaves << " leaves";
      ratios.push_back(kmb->total_cost / exact->total_cost);
    }
    std::sort(ratios.begin(), ratios.end());
    std::printf("%s closure: tree/optimum cost ratio min %.4f median %.4f "
                "max %.4f over %zu instances\n",
                mode == ClosureMode::kMehlhorn ? "Mehlhorn" : "classic",
                ratios.front(), ratios[ratios.size() / 2], ratios.back(),
                ratios.size());
  }
}

TEST(ExactSteinerTest, AblationFlagsRespected) {
  Rng rng(778);
  WeightedGraph g = RandomConnected(&rng, 10, 8);
  auto terminals = RandomTerminals(&rng, 10, 3);
  for (bool node_weights : {true, false}) {
    for (bool edge_weights : {true, false}) {
      NewstOptions options;
      options.use_node_weights = node_weights;
      options.use_edge_weights = edge_weights;
      auto exact = SolveExactSteiner(g, terminals, options);
      auto kmb = SolveNewst(g, terminals, options);
      ASSERT_TRUE(exact.ok() && kmb.ok());
      EXPECT_LE(exact->total_cost, kmb->total_cost + 1e-9);
    }
  }
}

TEST(TakahashiTest, SingleAndTwoTerminals) {
  WeightedGraphBuilder b(3);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 1.0);
  WeightedGraph g = b.Build();
  auto one = SolveTakahashiMatsuyama(g, {1});
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->nodes, (std::vector<uint32_t>{1}));
  auto two = SolveTakahashiMatsuyama(g, {0, 2});
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two->nodes, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(two->edges.size(), 2u);
}

TEST(TakahashiTest, AvoidsHeavyNodes) {
  WeightedGraphBuilder b(4);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 1.0);
  b.AddEdge(0, 3, 1.2);
  b.AddEdge(3, 2, 1.2);
  b.SetNodeWeight(1, 50.0);
  WeightedGraph g = b.Build();
  auto r = SolveTakahashiMatsuyama(g, {0, 2});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(std::find(r->nodes.begin(), r->nodes.end(), 3) !=
              r->nodes.end());
}

TEST(TakahashiTest, UnreachableTerminalsReported) {
  WeightedGraphBuilder b(4);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(2, 3, 1.0);
  WeightedGraph g = b.Build();
  auto r = SolveTakahashiMatsuyama(g, {0, 2});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->unreachable_terminals, (std::vector<uint32_t>{2}));
}

TEST(TakahashiTest, CostMatchesTreeCost) {
  Rng rng(779);
  WeightedGraph g = RandomConnected(&rng, 15, 12);
  auto terminals = RandomTerminals(&rng, 15, 5);
  auto r = SolveTakahashiMatsuyama(g, terminals);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->total_cost, g.TreeCost(r->edges), 1e-9);
}

}  // namespace
}  // namespace rpg::steiner
