#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/citation_graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"

namespace rpg::graph {
namespace {

std::vector<uint32_t> ToVector(std::span<const uint32_t> s) {
  return {s.begin(), s.end()};
}

CitationGraph BuildDiamond() {
  // 0 cites 1 and 2; 1 and 2 cite 3.
  GraphBuilder b(4);
  b.AddCitation(0, 1);
  b.AddCitation(0, 2);
  b.AddCitation(1, 3);
  b.AddCitation(2, 3);
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(GraphBuilderTest, BasicCounts) {
  CitationGraph g = BuildDiamond();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(3), 2u);
  EXPECT_EQ(g.CitationCount(3), 2u);
  EXPECT_EQ(g.OutDegree(3), 0u);
  EXPECT_EQ(g.InDegree(0), 0u);
}

TEST(GraphBuilderTest, NeighborsAreSorted) {
  GraphBuilder b(5);
  b.AddCitation(0, 4);
  b.AddCitation(0, 2);
  b.AddCitation(0, 3);
  b.AddCitation(4, 0);
  b.AddCitation(2, 0);
  auto g = b.Build().value();
  auto out = g.OutNeighbors(0);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  auto in = g.InNeighbors(0);
  EXPECT_TRUE(std::is_sorted(in.begin(), in.end()));
}

TEST(GraphBuilderTest, DropsDuplicatesAndSelfLoops) {
  GraphBuilder b(3);
  b.AddCitation(0, 1);
  b.AddCitation(0, 1);
  b.AddCitation(1, 1);
  auto g = b.Build().value();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.OutDegree(1), 0u);
}

TEST(GraphBuilderTest, RejectsOutOfRangeIds) {
  GraphBuilder b(2);
  b.AddCitation(0, 5);
  EXPECT_TRUE(b.Build().status().IsInvalidArgument());
}

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder b(3);
  auto g = b.Build().value();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.OutNeighbors(0).empty());
}

// ------------------------------------------------------------- traversal

TEST(TraversalTest, KHopOutLevels) {
  CitationGraph g = BuildDiamond();
  KHopResult r = KHopNeighborhood(g, {0}, 2, Direction::kOut);
  ASSERT_EQ(r.levels.size(), 3u);
  EXPECT_EQ(r.levels[0], (std::vector<PaperId>{0}));
  EXPECT_EQ(r.levels[1], (std::vector<PaperId>{1, 2}));
  EXPECT_EQ(r.levels[2], (std::vector<PaperId>{3}));
  EXPECT_EQ(r.TotalCount(), 4u);
  EXPECT_EQ(r.AllNodes().size(), 4u);
}

TEST(TraversalTest, KHopInDirection) {
  CitationGraph g = BuildDiamond();
  KHopResult r = KHopNeighborhood(g, {3}, 2, Direction::kIn);
  EXPECT_EQ(r.levels[1], (std::vector<PaperId>{1, 2}));
  EXPECT_EQ(r.levels[2], (std::vector<PaperId>{0}));
}

TEST(TraversalTest, KHopDeduplicatesSeeds) {
  CitationGraph g = BuildDiamond();
  KHopResult r = KHopNeighborhood(g, {0, 0, 0}, 1, Direction::kOut);
  EXPECT_EQ(r.levels[0].size(), 1u);
}

TEST(TraversalTest, KHopSkipsInvalidSeeds) {
  CitationGraph g = BuildDiamond();
  KHopResult r = KHopNeighborhood(g, {99}, 1, Direction::kOut);
  EXPECT_TRUE(r.levels[0].empty());
}

TEST(TraversalTest, KHopZeroHops) {
  CitationGraph g = BuildDiamond();
  KHopResult r = KHopNeighborhood(g, {0}, 0, Direction::kOut);
  EXPECT_EQ(r.levels.size(), 1u);
}

TEST(TraversalTest, NodesVisitedOnceAcrossLevels) {
  // 0 -> 1 -> 2 and 0 -> 2: node 2 is reachable at hop 1 and 2 but must
  // appear only once (at hop 1).
  GraphBuilder b(3);
  b.AddCitation(0, 1);
  b.AddCitation(1, 2);
  b.AddCitation(0, 2);
  auto g = b.Build().value();
  KHopResult r = KHopNeighborhood(g, {0}, 2, Direction::kOut);
  EXPECT_EQ(r.levels[1], (std::vector<PaperId>{1, 2}));
  EXPECT_TRUE(r.levels[2].empty());
}

TEST(TraversalTest, KHopScratchReuseMatchesOneShot) {
  CitationGraph g = BuildDiamond();
  TraversalScratch scratch;
  KHopResult reused;
  // Successive traversals with one scratch/result pair — including a
  // wider run followed by a narrower one — must match fresh calls.
  struct Case {
    std::vector<PaperId> seeds;
    int hops;
    Direction dir;
  };
  std::vector<Case> cases = {{{0}, 2, Direction::kOut},
                             {{3}, 2, Direction::kIn},
                             {{0}, 0, Direction::kOut},
                             {{1, 2}, 1, Direction::kUndirected},
                             {{0}, 2, Direction::kOut}};
  for (const Case& c : cases) {
    KHopNeighborhood(g, c.seeds, c.hops, c.dir, &scratch, &reused);
    KHopResult fresh = KHopNeighborhood(g, c.seeds, c.hops, c.dir);
    EXPECT_EQ(reused.levels, fresh.levels);
  }
}

TEST(TraversalTest, ConnectedComponents) {
  GraphBuilder b(6);
  b.AddCitation(0, 1);
  b.AddCitation(2, 3);
  // 4 and 5 isolated.
  auto g = b.Build().value();
  size_t n = 0;
  auto comp = ConnectedComponents(g, &n);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[5]);
  EXPECT_EQ(LargestComponentSize(g), 2u);
}

TEST(TraversalTest, ComponentsIgnoreDirection) {
  GraphBuilder b(3);
  b.AddCitation(0, 1);
  b.AddCitation(2, 1);
  auto g = b.Build().value();
  EXPECT_EQ(LargestComponentSize(g), 3u);
}

// -------------------------------------------------------------- subgraph

TEST(SubgraphTest, InducedEdgesOnly) {
  CitationGraph g = BuildDiamond();
  Subgraph sg(g, {0, 1, 3});
  EXPECT_EQ(sg.num_nodes(), 3u);
  // Edges 0->1 and 1->3 survive; 0->2->3 is cut.
  EXPECT_EQ(sg.num_edges(), 2u);
  uint32_t l0 = sg.ToLocal(0), l1 = sg.ToLocal(1), l3 = sg.ToLocal(3);
  EXPECT_EQ(ToVector(sg.OutNeighbors(l0)), (std::vector<uint32_t>{l1}));
  EXPECT_EQ(ToVector(sg.InNeighbors(l3)), (std::vector<uint32_t>{l1}));
}

TEST(SubgraphTest, LocalGlobalRoundTrip) {
  CitationGraph g = BuildDiamond();
  Subgraph sg(g, {3, 1});
  for (uint32_t local = 0; local < sg.num_nodes(); ++local) {
    EXPECT_EQ(sg.ToLocal(sg.ToGlobal(local)), local);
  }
  // Locals assigned in first-appearance order.
  EXPECT_EQ(sg.ToGlobal(0), 3u);
  EXPECT_EQ(sg.ToGlobal(1), 1u);
}

TEST(SubgraphTest, ContainsAndMisses) {
  CitationGraph g = BuildDiamond();
  Subgraph sg(g, {0, 2});
  EXPECT_TRUE(sg.Contains(0));
  EXPECT_FALSE(sg.Contains(1));
  EXPECT_EQ(sg.ToLocal(1), UINT32_MAX);
}

TEST(SubgraphTest, DuplicatesAndInvalidIdsIgnored) {
  CitationGraph g = BuildDiamond();
  Subgraph sg(g, {0, 0, 99, 2});
  EXPECT_EQ(sg.num_nodes(), 2u);
}

TEST(SubgraphTest, EdgeIdsIndexTheSourceOutCsr) {
  // Diamond out-CSR: 0->1 is edge 0, 0->2 edge 1, 1->3 edge 2, 2->3
  // edge 3. Locals: 0 -> 0, 1 -> 1, 3 -> 2.
  CitationGraph g = BuildDiamond();
  Subgraph sg(g, {0, 1, 3});
  auto ids = [](std::span<const uint64_t> s) {
    return std::vector<uint64_t>(s.begin(), s.end());
  };
  EXPECT_EQ(ids(sg.OutEdgeIds(0)), (std::vector<uint64_t>{0}));
  EXPECT_EQ(ids(sg.OutEdgeIds(1)), (std::vector<uint64_t>{2}));
  EXPECT_TRUE(sg.OutEdgeIds(2).empty());
  EXPECT_TRUE(sg.InEdgeIds(0).empty());
  EXPECT_EQ(ids(sg.InEdgeIds(1)), (std::vector<uint64_t>{0}));
  EXPECT_EQ(ids(sg.InEdgeIds(2)), (std::vector<uint64_t>{2}));
}

TEST(SubgraphTest, AssignWithSharedScratchMatchesFreshBuilds) {
  CitationGraph diamond = BuildDiamond();
  // A second, larger graph, as a reused QueryScratch meets after an
  // epoch flip; the walk then goes back to the diamond.
  GraphBuilder b(8);
  b.AddCitation(7, 0);
  b.AddCitation(7, 5);
  b.AddCitation(5, 4);
  b.AddCitation(4, 0);
  b.AddCitation(6, 5);
  CitationGraph larger = b.Build().value();
  SubgraphScratch scratch;
  Subgraph reused;
  // Re-assigning the same object with one scratch must reproduce every
  // fresh single-shot build, including after shrinking node sets and
  // switching graphs.
  const std::vector<std::pair<const CitationGraph*, std::vector<PaperId>>>
      inputs = {{&diamond, {0, 1, 2, 3}}, {&diamond, {0, 1, 3}},
                {&diamond, {3, 1}},       {&diamond, {2}},
                {&diamond, {0, 1, 2, 3}}, {&larger, {7, 5, 4, 0, 6}},
                {&diamond, {3, 2}}};
  for (const auto& [g, nodes] : inputs) {
    reused.Assign(*g, nodes, &scratch);
    Subgraph fresh(*g, nodes);
    ASSERT_EQ(reused.num_nodes(), fresh.num_nodes());
    ASSERT_EQ(reused.num_edges(), fresh.num_edges());
    for (uint32_t local = 0; local < fresh.num_nodes(); ++local) {
      EXPECT_EQ(reused.ToGlobal(local), fresh.ToGlobal(local));
      EXPECT_EQ(ToVector(reused.OutNeighbors(local)),
                ToVector(fresh.OutNeighbors(local)));
      EXPECT_EQ(ToVector(reused.InNeighbors(local)),
                ToVector(fresh.InNeighbors(local)));
    }
    for (PaperId p = 0; p < larger.num_nodes(); ++p) {
      EXPECT_EQ(reused.ToLocal(p), fresh.ToLocal(p)) << p;
    }
    // Ids beyond every graph seen read as absent, not out of bounds.
    for (PaperId p : {PaperId{99}, PaperId{UINT32_MAX - 1}}) {
      EXPECT_EQ(reused.ToLocal(p), UINT32_MAX);
      EXPECT_EQ(fresh.ToLocal(p), UINT32_MAX);
      EXPECT_FALSE(reused.Contains(p));
      EXPECT_FALSE(fresh.Contains(p));
    }
  }
}

TEST(SubgraphTest, DefaultConstructedIsEmpty) {
  Subgraph sg;
  EXPECT_EQ(sg.num_nodes(), 0u);
  EXPECT_EQ(sg.num_edges(), 0u);
  EXPECT_FALSE(sg.Contains(0));
}

// -------------------------------------------------------------- graph io

// Snapshot loads hand disk bytes to FromOutCsr, so it must reject every
// CSR that would make an accessor read out of bounds or break the
// sorted, duplicate-free span rule, with InvalidArgument and no crash.
// The same shapes are fuzz seeds under fuzz/corpus/graph_io/.

TEST(GraphIoTest, FromOutCsrAcceptsValidCsrAndTransposesSorted) {
  // 0 -> {2, 3}, 1 -> {3}, 2 -> {}, 3 -> {0, 1, 2}.
  auto g = GraphIo::FromOutCsr({0, 2, 3, 3, 6}, {2, 3, 3, 0, 1, 2});
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_nodes(), 4u);
  EXPECT_EQ(g->num_edges(), 6u);
  EXPECT_EQ(ToVector(g->OutNeighbors(3)), (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_TRUE(g->OutNeighbors(2).empty());
  // In-spans are the transpose, each sorted ascending.
  EXPECT_EQ(ToVector(g->InNeighbors(0)), std::vector<uint32_t>{3});
  EXPECT_EQ(ToVector(g->InNeighbors(1)), std::vector<uint32_t>{3});
  EXPECT_EQ(ToVector(g->InNeighbors(2)), (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(ToVector(g->InNeighbors(3)), (std::vector<uint32_t>{0, 1}));

  // A builder graph's out-CSR round-trips to the same graph.
  CitationGraph built = BuildDiamond();
  std::vector<PaperId> targets;
  for (PaperId p = 0; p < built.num_nodes(); ++p) {
    for (PaperId t : built.OutNeighbors(p)) targets.push_back(t);
  }
  auto copy = GraphIo::FromOutCsr(GraphIo::OutOffsets(built), targets);
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  ASSERT_EQ(copy->num_nodes(), built.num_nodes());
  for (PaperId p = 0; p < built.num_nodes(); ++p) {
    EXPECT_EQ(ToVector(copy->OutNeighbors(p)), ToVector(built.OutNeighbors(p)));
    EXPECT_EQ(ToVector(copy->InNeighbors(p)), ToVector(built.InNeighbors(p)));
  }
}

TEST(GraphIoTest, EmptyOffsetsRejected) {
  EXPECT_TRUE(GraphIo::FromOutCsr({}, {}).status().IsInvalidArgument());
}

TEST(GraphIoTest, NonMonotonicOffsetsRejected) {
  auto g = GraphIo::FromOutCsr({0, 2, 1}, {1, 0, 1});  // walks backwards
  ASSERT_TRUE(g.status().IsInvalidArgument());
  EXPECT_NE(g.status().ToString().find("monotonic"), std::string::npos);
}

TEST(GraphIoTest, OffsetsNotStartingAtZeroRejected) {
  EXPECT_TRUE(
      GraphIo::FromOutCsr({1, 1, 2}, {1, 0}).status().IsInvalidArgument());
}

TEST(GraphIoTest, TargetOutOfRangeRejected) {
  // Node 1 cites node 9 of a 2-node graph: traversal would read
  // in_offsets_[10] off the end.
  auto g = GraphIo::FromOutCsr({0, 1, 2}, {1, 9});
  ASSERT_TRUE(g.status().IsInvalidArgument());
  EXPECT_NE(g.status().ToString().find("out of range"), std::string::npos);
}

TEST(GraphIoTest, OffsetsTargetsLengthMismatchRejected) {
  // offsets.back() says 3 edges, targets has 2.
  EXPECT_TRUE(
      GraphIo::FromOutCsr({0, 1, 3}, {1, 0}).status().IsInvalidArgument());
}

TEST(GraphIoTest, NonAscendingSpanRejected) {
  // A duplicate target: the intersection kernels behind Con() assume
  // duplicate-free spans.
  auto dup = GraphIo::FromOutCsr({0, 2, 2, 2}, {1, 1});
  ASSERT_TRUE(dup.status().IsInvalidArgument());
  EXPECT_NE(dup.status().ToString().find("ascending"), std::string::npos);
  // An unsorted span.
  auto unsorted = GraphIo::FromOutCsr({0, 0, 2, 2}, {2, 0});
  ASSERT_TRUE(unsorted.status().IsInvalidArgument());
  EXPECT_NE(unsorted.status().ToString().find("ascending"),
            std::string::npos);
  // Equal targets in adjacent spans are fine: the rule is per span.
  EXPECT_TRUE(GraphIo::FromOutCsr({0, 1, 2, 2}, {2, 2}).ok());
}

TEST(GraphIoTest, DotContainsInducedEdgesOnly) {
  CitationGraph g = BuildDiamond();
  std::string dot = GraphIo::ToDot(g, {0, 1});
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_EQ(dot.find("n1 -> n3"), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(GraphIoTest, DotUsesLabelsWhenProvided) {
  CitationGraph g = BuildDiamond();
  std::string dot = GraphIo::ToDot(g, {0}, {"BERT paper"});
  EXPECT_NE(dot.find("BERT paper"), std::string::npos);
}

}  // namespace
}  // namespace rpg::graph
