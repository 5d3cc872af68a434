// BuildWeightedSubgraph writes each undirected span as a merge of the
// subgraph's sorted out- and in-spans. These tests hold it to a
// WeightedGraphBuilder reference that adds every induced citation as an
// undirected edge and sorts, on random graphs and on graphs with mutual
// citations whose two directions carry different con.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/repager.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/subgraph.h"
#include "rank/weight_model.h"
#include "steiner/weighted_graph.h"

namespace rpg::core {
namespace {

using graph::PaperId;

/// Eq. (2) cost of u's k-th reference.
using CostOf = std::function<double(PaperId u, size_t k)>;

/// Each ordered pair (u, v) cites with probability p. Without `mutual`
/// a paper cites only lower ids, like the synthetic corpus.
graph::CitationGraph RandomGraph(size_t n, double p, bool mutual, Rng* rng) {
  graph::GraphBuilder b(n);
  for (PaperId u = 0; u < n; ++u) {
    for (PaperId v = 0; v < (mutual ? n : u); ++v) {
      if (u != v && rng->Bernoulli(p)) b.AddCitation(u, v);
    }
  }
  return b.Build().value();
}

std::vector<double> RandomScores(size_t n, Rng* rng) {
  std::vector<double> scores(n);
  for (double& s : scores) s = rng->UniformDouble();
  return scores;
}

/// A random subset of g's papers in random order (so local ids differ
/// from global ones), plus a duplicate and an out-of-range id.
std::vector<PaperId> RandomNodeSet(size_t n, Rng* rng) {
  std::vector<PaperId> nodes(n);
  for (PaperId p = 0; p < n; ++p) nodes[p] = p;
  for (size_t i = n; i > 1; --i) {
    std::swap(nodes[i - 1], nodes[rng->NextBounded(i)]);
  }
  nodes.resize(1 + rng->NextBounded(n));
  nodes.push_back(nodes.front());
  nodes.push_back(static_cast<PaperId>(n + 7));
  return nodes;
}

steiner::WeightedGraph Reference(const graph::CitationGraph& g,
                                 const graph::Subgraph& sg,
                                 const rank::WeightModel& weights,
                                 const CostOf& cost_of) {
  steiner::WeightedGraphBuilder b(sg.num_nodes());
  for (uint32_t local = 0; local < sg.num_nodes(); ++local) {
    const PaperId u = sg.ToGlobal(local);
    b.SetNodeWeight(local, weights.NodeWeight(u));
    const auto cited = g.OutNeighbors(u);
    for (size_t k = 0; k < cited.size(); ++k) {
      const uint32_t target = sg.ToLocal(cited[k]);
      if (target != UINT32_MAX) b.AddEdge(local, target, cost_of(u, k));
    }
  }
  return b.Build();
}

void ExpectSameGraph(const steiner::WeightedGraph& got,
                     const steiner::WeightedGraph& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  for (uint32_t v = 0; v < want.num_nodes(); ++v) {
    EXPECT_EQ(got.NodeWeight(v), want.NodeWeight(v)) << v;
    const auto gt = got.Targets(v), wt = want.Targets(v);
    EXPECT_EQ(std::vector<uint32_t>(gt.begin(), gt.end()),
              std::vector<uint32_t>(wt.begin(), wt.end()))
        << v;
    const auto gc = got.Costs(v), wc = want.Costs(v);
    EXPECT_EQ(std::vector<double>(gc.begin(), gc.end()),
              std::vector<double>(wc.begin(), wc.end()))
        << v;
  }
}

/// Builds several subgraphs of `g` into one reused output graph and
/// checks each against the reference.
void CheckSubgraphs(const graph::CitationGraph& g,
                    const rank::WeightModel& weights, const CostOf& cost_of,
                    Rng* rng) {
  graph::SubgraphScratch scratch;
  graph::Subgraph sg;
  steiner::WeightedGraph reused;
  for (int round = 0; round < 6; ++round) {
    sg.Assign(g, RandomNodeSet(g.num_nodes(), rng), &scratch);
    BuildWeightedSubgraph(sg, weights, &reused);
    const steiner::WeightedGraph want = Reference(g, sg, weights, cost_of);
    ExpectSameGraph(reused, want);
    ExpectSameGraph(BuildWeightedSubgraph(sg, weights), want);
  }
}

TEST(WeightedSubgraphTest, MergeMatchesBuilderOnRandomGraphs) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + rng.NextBounded(60);
    const graph::CitationGraph g =
        RandomGraph(n, rng.UniformDouble(0.02, 0.3), false, &rng);
    const std::vector<double> pagerank = RandomScores(n, &rng);
    const std::vector<double> venue = RandomScores(n, &rng);
    const rank::WeightModel weights(&g, pagerank, venue);
    CheckSubgraphs(
        g, weights,
        [&](PaperId u, size_t k) {
          return weights.EdgeCost(u, g.OutNeighbors(u)[k]);
        },
        &rng);
  }
}

TEST(WeightedSubgraphTest, MutualCitationsPutTheCheaperDirectionFirst) {
  Rng rng(29);
  const rank::NewstParams params;
  size_t unequal_pairs = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + rng.NextBounded(40);
    const graph::CitationGraph g =
        RandomGraph(n, rng.UniformDouble(0.1, 0.5), true, &rng);
    const std::vector<double> pagerank = RandomScores(n, &rng);
    const std::vector<double> venue = RandomScores(n, &rng);
    // An adopted table need not be symmetric: give every edge its own
    // con, so u -> v and v -> u usually cost differently.
    std::vector<uint8_t> con(g.num_edges());
    for (uint8_t& c : con) {
      c = static_cast<uint8_t>(
          rng.UniformInt(1, rank::WeightModel::kConCap));
    }
    const auto& offsets = graph::GraphIo::OutOffsets(g);
    for (PaperId u = 0; u < n; ++u) {
      const auto cited = g.OutNeighbors(u);
      for (size_t k = 0; k < cited.size(); ++k) {
        const auto back = g.OutNeighbors(cited[k]);
        for (size_t j = 0; j < back.size(); ++j) {
          if (back[j] == u && con[offsets[u] + k] !=
                                  con[offsets[cited[k]] + j]) {
            ++unequal_pairs;
          }
        }
      }
    }
    const rank::WeightModel weights(&g, pagerank, venue, con, params);
    CheckSubgraphs(
        g, weights,
        [&](PaperId u, size_t k) {
          return params.alpha /
                 std::pow(static_cast<double>(con[offsets[u] + k]),
                          params.beta);
        },
        &rng);
  }
  // Counted once from each end.
  EXPECT_GT(unequal_pairs / 2, 100u);
}

TEST(WeightedSubgraphTest, EmptySubgraphGivesEmptyGraph) {
  Rng rng(3);
  const graph::CitationGraph g = RandomGraph(5, 0.5, false, &rng);
  const rank::WeightModel weights(&g, RandomScores(5, &rng),
                                  RandomScores(5, &rng));
  graph::Subgraph sg(g, {});
  steiner::WeightedGraph out = BuildWeightedSubgraph(sg, weights);
  EXPECT_EQ(out.num_nodes(), 0u);
  EXPECT_EQ(out.num_edges(), 0u);
}

}  // namespace
}  // namespace rpg::core
