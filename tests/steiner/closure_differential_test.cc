// Differential harness for the two metric-closure constructions. The
// exact solver stops at 12 terminals, so past that range the two
// closures can only be held to each other: sweep randomized graphs x
// terminal-set sizes and hold the Mehlhorn single-pass closure and the
// classic per-terminal closure to each other — per-instance cross
// bounds from the shared 2(1 - 1/l) guarantee, an aggregate tree-cost
// delta bound (the fast path was adopted on a measured <1% mean delta;
// this gate keeps it from silently regressing), identical
// unreachable-terminal behavior, and TreeCost-recompute consistency for
// every tree either mode emits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/rng.h"
#include "steiner/newst.h"
#include "steiner/weighted_graph.h"
#include "test_graphs.h"

namespace rpg::steiner {
namespace {

NewstOptions Mode(ClosureMode m) {
  NewstOptions o;
  o.closure_mode = m;
  return o;
}

/// Structural sanity any emitted tree must satisfy, regardless of mode.
void ExpectValidTree(const WeightedGraph& g, const SteinerResult& r,
                     const std::vector<uint32_t>& terminals) {
  EXPECT_TRUE(std::is_sorted(r.nodes.begin(), r.nodes.end()));
  // A forest with f components has nodes - f edges; when every terminal
  // sits in one component this is exactly nodes - 1.
  if (!r.nodes.empty()) {
    EXPECT_LE(r.edges.size(), r.nodes.size() - 1);
    if (r.unreachable_terminals.empty()) {
      EXPECT_EQ(r.edges.size(), r.nodes.size() - 1);
    }
  }
  for (const auto& [u, v] : r.edges) {
    EXPECT_LT(u, v);
    EXPECT_TRUE(std::binary_search(r.nodes.begin(), r.nodes.end(), u));
    EXPECT_TRUE(std::binary_search(r.nodes.begin(), r.nodes.end(), v));
  }
  // Every terminal is spanned by some component tree of the forest —
  // "unreachable" only marks those outside the first terminal's
  // component, not ones missing from the result.
  for (uint32_t t : terminals) {
    EXPECT_TRUE(std::binary_search(r.nodes.begin(), r.nodes.end(), t))
        << "terminal " << t;
  }
  // TreeCost counts node weights of edge-incident nodes, so it only
  // reproduces total_cost for trees with at least one edge.
  if (!r.edges.empty()) {
    EXPECT_NEAR(r.total_cost, g.TreeCost(r.edges), 1e-9);
  }
}

TEST(ClosureDifferentialTest, RandomSweepCostsMutuallyBounded) {
  // 3 graph sizes x 3 terminal-set sizes x trials. Aggregate the
  // relative cost delta across the sweep: individual instances may
  // disagree (different shortest-path tie-breaks), but on average the
  // two constructions must stay within a few percent of each other.
  Rng rng(20240808);
  double sum_rel_delta = 0.0;
  int instances = 0;
  for (uint32_t n : {24u, 60u, 150u}) {
    for (uint32_t k : {3u, 6u, 12u}) {
      for (int trial = 0; trial < 8; ++trial) {
        WeightedGraph g = RandomConnected(&rng, n, static_cast<int>(n));
        auto terminals = RandomTerminals(&rng, n, k);
        auto classic = SolveNewst(g, terminals, Mode(ClosureMode::kClassic));
        auto fast = SolveNewst(g, terminals, Mode(ClosureMode::kMehlhorn));
        ASSERT_TRUE(classic.ok()) << classic.status().ToString();
        ASSERT_TRUE(fast.ok()) << fast.status().ToString();
        ExpectValidTree(g, classic.value(), terminals);
        ExpectValidTree(g, fast.value(), terminals);
        // Connected graph: nothing may be dropped by either mode.
        EXPECT_TRUE(classic->unreachable_terminals.empty());
        EXPECT_TRUE(fast->unreachable_terminals.empty());
        // Both are within 2 OPT, so within 2x of each other.
        EXPECT_LE(fast->total_cost, 2.0 * classic->total_cost + 1e-9);
        EXPECT_LE(classic->total_cost, 2.0 * fast->total_cost + 1e-9);
        sum_rel_delta += std::abs(fast->total_cost - classic->total_cost) /
                         classic->total_cost;
        ++instances;
      }
    }
  }
  // Mean relative delta across the sweep. Measured ~0.1-1%; 5% leaves
  // headroom for RNG drift while still catching a broken closure.
  EXPECT_LT(sum_rel_delta / instances, 0.05);
}

TEST(ClosureDifferentialTest, SingleTerminalAndFullTerminalAgreeExactly) {
  Rng rng(31);
  WeightedGraph g = RandomConnected(&rng, 40, 50);
  {
    // One terminal: the tree is that node alone in both modes.
    auto classic = SolveNewst(g, {7}, Mode(ClosureMode::kClassic));
    auto fast = SolveNewst(g, {7}, Mode(ClosureMode::kMehlhorn));
    ASSERT_TRUE(classic.ok() && fast.ok());
    EXPECT_EQ(classic->nodes, fast->nodes);
    EXPECT_EQ(classic->edges, fast->edges);
    EXPECT_DOUBLE_EQ(classic->total_cost, fast->total_cost);
  }
  {
    // All nodes terminal: both modes must produce a spanning tree, and
    // spanning-tree cost equals sum of node weights + chosen edges; the
    // node-weight part is fixed, so costs agree whenever both pick an
    // MST. Hold them to each other within the approximation bound.
    std::vector<uint32_t> all(g.num_nodes());
    for (uint32_t v = 0; v < g.num_nodes(); ++v) all[v] = v;
    auto classic = SolveNewst(g, all, Mode(ClosureMode::kClassic));
    auto fast = SolveNewst(g, all, Mode(ClosureMode::kMehlhorn));
    ASSERT_TRUE(classic.ok() && fast.ok());
    EXPECT_EQ(classic->nodes, fast->nodes);
    EXPECT_EQ(classic->edges.size(), fast->edges.size());
    // Both are spanning trees over identical node weights; edge choices
    // may differ where shortest-path expansions tie, but costs must stay
    // mutually bounded like every other instance.
    EXPECT_LE(fast->total_cost, 2.0 * classic->total_cost + 1e-9);
    EXPECT_LE(classic->total_cost, 2.0 * fast->total_cost + 1e-9);
  }
}

TEST(ClosureDifferentialTest, DisconnectedTerminalsDroppedIdentically) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    // Two rings with no bridge; terminals scattered over both.
    const uint32_t half = 12;
    WeightedGraphBuilder b(2 * half);
    for (uint32_t i = 0; i < half; ++i) {
      b.AddEdge(i, (i + 1) % half, rng.UniformDouble(0.2, 2.0));
      b.AddEdge(half + i, half + (i + 1) % half, rng.UniformDouble(0.2, 2.0));
    }
    WeightedGraph g = b.Build();
    auto terminals = RandomTerminals(&rng, 2 * half, 6);
    auto classic = SolveNewst(g, terminals, Mode(ClosureMode::kClassic));
    auto fast = SolveNewst(g, terminals, Mode(ClosureMode::kMehlhorn));
    ASSERT_TRUE(classic.ok() && fast.ok());
    // The dropped set is determined by components, not closure mode.
    EXPECT_EQ(classic->unreachable_terminals, fast->unreachable_terminals)
        << "trial " << trial;
    ExpectValidTree(g, classic.value(), terminals);
    ExpectValidTree(g, fast.value(), terminals);
  }
}

TEST(ClosureDifferentialTest, SolverOutputsMatchGoldenFingerprint) {
  // Bit-identity pin for the solver itself (ISSUE 9 satellite): the
  // mutual-bound sweeps above tolerate mode-to-mode drift by design, so
  // a hot-path rewrite (d-ary heap, kernel swap) that moved BOTH modes
  // the same way would sail through them. This hashes the exact trees —
  // node sets, edge lists, unreachable terminals, µ-quantized costs —
  // both modes emit across a randomized sweep and compares against a
  // constant captured before the d-ary-heap/intersect-kernel rewrite.
  // The d-ary heap must pop (dist, node) entries in the identical total
  // order the binary std::priority_queue did, so this constant must NOT
  // move. Re-capture with RPG_PRINT_FINGERPRINTS=1 only for a deliberate
  // solver-semantics change.
  uint64_t h = 1469598103934665603ULL;
  auto add = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  };
  Rng rng(987654321);
  for (uint32_t n : {16u, 48u, 110u}) {
    for (uint32_t k : {3u, 9u}) {
      for (int trial = 0; trial < 4; ++trial) {
        WeightedGraph g = RandomConnected(&rng, n, static_cast<int>(n) / 2);
        auto terminals = RandomTerminals(&rng, n, k);
        for (ClosureMode mode :
             {ClosureMode::kClassic, ClosureMode::kMehlhorn}) {
          auto r = SolveNewst(g, terminals, Mode(mode));
          ASSERT_TRUE(r.ok());
          add(r->nodes.size());
          for (uint32_t v : r->nodes) add(v);
          for (const auto& [u, v] : r->edges) {
            add(u);
            add(v);
          }
          for (uint32_t t : r->unreachable_terminals) add(t);
          add(static_cast<uint64_t>(std::llround(r->total_cost * 1e6)));
          add(r->stats.nodes_settled);
          add(r->stats.heap_pushes);
        }
      }
    }
  }
  if (std::getenv("RPG_PRINT_FINGERPRINTS") != nullptr) {
    std::printf("FINGERPRINT kGoldenSolver = 0x%016llxULL\n",
                static_cast<unsigned long long>(h));
  }
  constexpr uint64_t kGoldenSolver = 0x4e0a1ca8e28d7899ULL;
  EXPECT_EQ(h, kGoldenSolver)
      << "solver outputs changed — heap/kernel swaps must be "
         "pop-order-identical (see comment above)";
}

TEST(ClosureDifferentialTest, AblationFlagsRespectedInBothModes) {
  // -N / -E ablations must change the objective identically in both
  // closure modes (the flags act on the shared distance function).
  Rng rng(5);
  WeightedGraph g = RandomConnected(&rng, 50, 60);
  auto terminals = RandomTerminals(&rng, 50, 8);
  for (bool node_weights : {true, false}) {
    for (bool edge_weights : {true, false}) {
      NewstOptions classic_options = Mode(ClosureMode::kClassic);
      classic_options.use_node_weights = node_weights;
      classic_options.use_edge_weights = edge_weights;
      NewstOptions fast_options = classic_options;
      fast_options.closure_mode = ClosureMode::kMehlhorn;
      auto classic = SolveNewst(g, terminals, classic_options);
      auto fast = SolveNewst(g, terminals, fast_options);
      ASSERT_TRUE(classic.ok() && fast.ok());
      EXPECT_LE(fast->total_cost, 2.0 * classic->total_cost + 1e-9);
      EXPECT_LE(classic->total_cost, 2.0 * fast->total_cost + 1e-9);
    }
  }
}

}  // namespace
}  // namespace rpg::steiner
