// SolveNewst with a reused SteinerScratch against fresh calls. The
// scratch keeps its arrays across solves, so a solve that read anything
// an earlier one left behind (a stale Voronoi cell, closure candidate,
// pair index entry, Gs flag or prune counter) would show here: one
// scratch runs a call list whose graphs grow and shrink, under both
// closure modes and the -N / -E ablations, and every result must equal
// a fresh call's field by field — nodes, edges, the bits of total_cost,
// the unreachable terminals and every work counter.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "steiner/newst.h"
#include "steiner/weighted_graph.h"
#include "test_graphs.h"

namespace rpg::steiner {
namespace {

/// Two random connected parts of `n` / 2 nodes each and no edge between
/// them, so terminals on both sides leave some unreachable.
WeightedGraph TwoParts(Rng* rng, uint32_t n) {
  const uint32_t half = n / 2;
  WeightedGraphBuilder b(2 * half);
  for (uint32_t part = 0; part < 2; ++part) {
    const uint32_t base = part * half;
    for (uint32_t i = 0; i < half; ++i) {
      b.SetNodeWeight(base + i, rng->UniformDouble(0.0, 2.0));
      b.AddEdge(base + i, base + (i + 1) % half, rng->UniformDouble(0.2, 3.0));
    }
    for (uint32_t e = 0; e < half; ++e) {
      uint32_t u = base + static_cast<uint32_t>(rng->NextBounded(half));
      uint32_t v = base + static_cast<uint32_t>(rng->NextBounded(half));
      if (u != v) b.AddEdge(u, v, rng->UniformDouble(0.2, 3.0));
    }
  }
  return b.Build();
}

struct Instance {
  WeightedGraph graph;
  std::vector<uint32_t> terminals;
};

/// Graph sizes that grow and shrink from one solve to the next, with
/// terminal sets from a single node up to a few dozen (duplicates
/// included), and every other graph split in two.
std::vector<Instance> Instances() {
  Rng rng(20261018);
  std::vector<Instance> out;
  const uint32_t sizes[] = {40, 400, 12, 150, 6, 600, 60, 300, 20};
  const uint32_t terminal_counts[] = {5, 30, 1, 12, 3, 40, 8, 20, 4};
  for (size_t i = 0; i < std::size(sizes); ++i) {
    const uint32_t n = sizes[i];
    Instance instance;
    instance.graph = i % 2 == 1 ? TwoParts(&rng, n)
                                : RandomConnected(&rng, n, static_cast<int>(n));
    const uint32_t nodes = static_cast<uint32_t>(instance.graph.num_nodes());
    instance.terminals = RandomTerminals(&rng, nodes, terminal_counts[i]);
    if (instance.terminals.size() > 2) {
      instance.terminals.push_back(instance.terminals.front());
    }
    out.push_back(std::move(instance));
  }
  return out;
}

/// Both closure modes × {NEWST, -N, -E, -N-E}.
std::vector<NewstOptions> AllOptions() {
  std::vector<NewstOptions> out;
  for (ClosureMode mode : {ClosureMode::kMehlhorn, ClosureMode::kClassic}) {
    for (bool node_weights : {true, false}) {
      for (bool edge_weights : {true, false}) {
        NewstOptions o;
        o.closure_mode = mode;
        o.use_node_weights = node_weights;
        o.use_edge_weights = edge_weights;
        out.push_back(o);
      }
    }
  }
  return out;
}

void ExpectSameResult(const SteinerResult& got, const SteinerResult& want) {
  EXPECT_EQ(got.nodes, want.nodes);
  EXPECT_EQ(got.edges, want.edges);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.total_cost),
            std::bit_cast<uint64_t>(want.total_cost));
  EXPECT_EQ(got.unreachable_terminals, want.unreachable_terminals);
  EXPECT_EQ(got.stats.nodes_settled, want.stats.nodes_settled);
  EXPECT_EQ(got.stats.heap_pushes, want.stats.heap_pushes);
  EXPECT_EQ(got.stats.closure_edges, want.stats.closure_edges);
  EXPECT_EQ(got.stats.dijkstra_runs, want.stats.dijkstra_runs);
}

TEST(SteinerScratchTest, ReusedScratchMatchesFreshCalls) {
  const std::vector<Instance> instances = Instances();
  SteinerScratch scratch;
  size_t trees = 0, forests = 0;
  // Twice through, so the second pass starts on a scratch sized by the
  // largest graph.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < instances.size(); ++i) {
      const Instance& in = instances[i];
      for (const NewstOptions& options : AllOptions()) {
        SCOPED_TRACE(testing::Message()
                     << "pass " << pass << " instance " << i << " mode "
                     << static_cast<int>(options.closure_mode) << " N "
                     << options.use_node_weights << " E "
                     << options.use_edge_weights);
        auto fresh = SolveNewst(in.graph, in.terminals, options);
        auto reused = SolveNewst(in.graph, in.terminals, options, &scratch);
        ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
        ASSERT_TRUE(reused.ok()) << reused.status().ToString();
        ExpectSameResult(*reused, *fresh);
        if (!fresh->edges.empty()) ++trees;
        if (!fresh->unreachable_terminals.empty()) ++forests;
      }
    }
  }
  // The comparison covers real trees and forests, not just singletons.
  EXPECT_GT(trees, 0u);
  EXPECT_GT(forests, 0u);
}

TEST(SteinerScratchTest, RejectedCallsLeaveTheScratchUsable) {
  Rng rng(7);
  WeightedGraph g = RandomConnected(&rng, 50, 50);
  const std::vector<uint32_t> terminals = RandomTerminals(&rng, 50, 6);
  SteinerScratch scratch;
  ASSERT_TRUE(SolveNewst(g, terminals, {}, &scratch).ok());
  EXPECT_TRUE(SolveNewst(g, {}, {}, &scratch).status().IsInvalidArgument());
  EXPECT_TRUE(
      SolveNewst(g, {3, 50}, {}, &scratch).status().IsInvalidArgument());
  auto fresh = SolveNewst(g, terminals);
  auto reused = SolveNewst(g, terminals, {}, &scratch);
  ASSERT_TRUE(fresh.ok() && reused.ok());
  ExpectSameResult(*reused, *fresh);
}

TEST(SteinerScratchTest, ConcurrentScratchesMatchSerialResults) {
  const std::vector<Instance> instances = Instances();
  const std::vector<NewstOptions> all_options = AllOptions();
  std::vector<SteinerResult> serial;
  for (const Instance& in : instances) {
    for (const NewstOptions& options : all_options) {
      serial.push_back(SolveNewst(in.graph, in.terminals, options).value());
    }
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<SteinerResult>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SteinerScratch scratch;
      for (const Instance& in : instances) {
        for (const NewstOptions& options : all_options) {
          got[t].push_back(
              SolveNewst(in.graph, in.terminals, options, &scratch).value());
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "thread " << t << " call " << i);
      ExpectSameResult(got[t][i], serial[i]);
    }
  }
}

}  // namespace
}  // namespace rpg::steiner
