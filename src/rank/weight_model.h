#ifndef RPG_RANK_WEIGHT_MODEL_H_
#define RPG_RANK_WEIGHT_MODEL_H_

#include <cstdint>
#include <vector>

#include "graph/citation_graph.h"

namespace rpg::rank {

/// The NEWST constants of Eq. (2) and Eq. (3); defaults are the paper's
/// experimental setting {α, β, γ, a, b} = {3, 2, 5, 0.7, 0.3} (§VI-A).
struct NewstParams {
  double alpha = 3.0;
  double beta = 2.0;
  double gamma = 5.0;
  double a = 0.7;
  double b = 0.3;
};

/// Empty and unused. Edge costs are a table lookup, so there is no
/// per-query Con state; the type stays only so callers that still pass
/// one to core::BuildWeightedSubgraph compile.
struct ConScratch {};

/// Node and edge weights for the weighted citation graph (§IV-A step 2).
///
///   w(i)    = γ / (a · pgscore(i) + b · venue(i))          (Eq. 3)
///   c(i, j) = α / con(i, j)^β                              (Eq. 2)
///
/// pgscore is the max-normalized PageRank over the full citation network
/// and venue(i) the CCF/AMiner venue score in [0, 1]. The paper measures
/// con(i, j) as the number of times paper j is mentioned in paper i's
/// full text (or inversely); full text is not modeled here, so con is
/// derived from the citation structure: 1 for the citation itself plus
/// the number of common graph neighbors (a standard co-citation /
/// bibliographic-coupling relatedness proxy — see README.md,
/// Reproduction).
///
/// Either way con is a property of the corpus, not of the query, so it
/// is counted once per citation edge (at snapshot build, or when an
/// in-process model is constructed) and kept as one byte per out-CSR
/// edge. Serving reads costs from that table; node weights are likewise
/// computed once per node.
class WeightModel {
 public:
  /// Con is always in [1, kConCap].
  static constexpr int kConCap = 7;

  /// `pagerank_norm` and `venue_scores` are per-paper arrays (same size
  /// as g.num_nodes()), both on a [0, 1] scale; only the Eq. (3) weights
  /// derived from them are kept. Counts the con table from `g`. The
  /// graph must outlive the model.
  WeightModel(const graph::CitationGraph* g,
              const std::vector<double>& pagerank_norm,
              const std::vector<double>& venue_scores,
              const NewstParams& params = {});

  /// Same, adopting a con table already counted for `g` (a snapshot's
  /// kEdgeCon section): one value in [1, kConCap] per out-CSR edge, in
  /// CSR order.
  WeightModel(const graph::CitationGraph* g,
              const std::vector<double>& pagerank_norm,
              const std::vector<double>& venue_scores,
              std::vector<uint8_t> edge_con, const NewstParams& params);

  /// Eq. (3). The denominator is floored so papers with no venue and
  /// negligible PageRank keep a finite weight.
  double NodeWeight(graph::PaperId i) const { return node_weights_[i]; }

  /// Eq. (2) cost of the graph's out-CSR edge `edge` (i's k-th reference
  /// is GraphIo::OutOffsets(g)[i] + k), read from the con table.
  double EdgeCostAt(uint64_t edge) const {
    return cost_of_con_[edge_con_[edge]];
  }

  /// The con table: one count per out-CSR edge, in CSR order.
  const std::vector<uint8_t>& edge_con() const { return edge_con_; }

  /// Relatedness count used by Eq. (2): 1 + common neighbors, capped,
  /// counted by the intersection kernels. This builds the table and is
  /// the oracle tests hold it to; serving never calls it.
  ///
  /// Cap semantics, spelled out because every intersection kernel must
  /// honor them identically:
  ///  1. shared references (out ∩ out) are counted first, clamped to
  ///     kConCap — i.e. exactly min(|out_i ∩ out_j|, kConCap);
  ///  2. shared citers (in ∩ in) are counted only if budget remains,
  ///     clamped to the remainder kConCap - (phase-1 count);
  ///  3. the result is 1 + min(phase1 + phase2, kConCap - 1), so Con is
  ///     always in [1, kConCap] and the kernels may early-exit the
  ///     instant a phase's clamp is reached.
  /// Because each phase's clamp is a semantic min() (not a scan cutoff),
  /// the result is independent of kernel choice and of evaluation
  /// order within a phase; Con(i, j) == Con(j, i) by the symmetry of
  /// both intersections (regression-tested in tests/rank/rank_test.cc).
  int Con(graph::PaperId i, graph::PaperId j) const;

  /// Eq. (2) over Con(i, j); i and j need not be adjacent.
  double EdgeCost(graph::PaperId i, graph::PaperId j) const;

  const NewstParams& params() const { return params_; }

  /// Maximum possible node weight (γ / floor); handy for tests.
  double MaxNodeWeight() const;

 private:
  const graph::CitationGraph* g_;
  NewstParams params_;
  std::vector<double> node_weights_;
  std::vector<uint8_t> edge_con_;
  /// α / con^β, indexed by con in [1, kConCap].
  std::vector<double> cost_of_con_;

  static constexpr double kDenomFloor = 0.02;
};

/// Con(i, j) of WeightModel, over any graph: what the snapshot writer
/// stores per edge.
int CountCon(const graph::CitationGraph& g, graph::PaperId i,
             graph::PaperId j);

}  // namespace rpg::rank

#endif  // RPG_RANK_WEIGHT_MODEL_H_
