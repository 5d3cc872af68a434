#ifndef RPG_RANK_WEIGHT_MODEL_H_
#define RPG_RANK_WEIGHT_MODEL_H_

#include <vector>

#include "common/intersect.h"
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

class WeightModel;

/// Reusable per-query scratch for the dense-bitmap Con() path.
///
/// Edge-cost assignment evaluates Con(i, j) for every neighbor j of one
/// source row i before moving to the next row (core::BuildWeightedSubgraph).
/// When row i is high-degree, re-merging i's adjacency for every j is the
/// dominant cost of the whole pipeline; the scratch instead stamps i's
/// out- and in-lists into two dense bitmaps ONCE per source and answers
/// each Con(i, j) by probing j's (typically short) lists in O(|adj(j)|).
/// Switching sources unstamps the previous lists (O(degree), not
/// O(universe)), so a long-lived scratch — one per core::QueryScratch —
/// never pays a full clear and is allocation-free after warm-up.
///
/// Lifetime: while a source is stamped the scratch refers to its graph
/// (the unstamp reads that graph's adjacency). Call Release() before the
/// graph can go away; core::BuildWeightedSubgraph does so at the end of
/// every call, so a scratch that outlives a serving epoch never touches
/// the freed graph.
///
/// Low-degree sources skip the stamping and fall through to the adaptive
/// merge/gallop kernels, so Con(i, j, &scratch) is never slower than
/// Con(i, j) — and, by the shared min(|a ∩ b|, cap) kernel contract,
/// always returns the identical count (pinned edge-for-edge by
/// tests/core/golden_fingerprint_test.cc).
class ConScratch {
 public:
  ConScratch() = default;
  ConScratch(const ConScratch&) = delete;
  ConScratch& operator=(const ConScratch&) = delete;

  /// Unstamps the current source (O(degree)) and forgets its graph. The
  /// graph must still be alive; afterwards the scratch refers to no
  /// graph and may be reused on any other.
  void Release();

 private:
  friend class WeightModel;

  static constexpr graph::PaperId kNoSource = 0xFFFFFFFFu;

  /// Stamp source i's adjacency if it is dense enough to pay off;
  /// no-op when (graph, i) is already the current source. Releases the
  /// previous source, whose graph must still be alive.
  void SetSource(const graph::CitationGraph& g, graph::PaperId i);

  /// Both bitmaps are all-zero whenever !stamped_.
  intersect::NeighborBitmap out_bits_;
  intersect::NeighborBitmap in_bits_;
  /// Graph of the current source; null after Release().
  const graph::CitationGraph* g_ = nullptr;
  graph::PaperId source_ = kNoSource;
  bool stamped_ = false;
};

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
/// bibliographic-coupling relatedness proxy — see DESIGN.md §2).
class WeightModel {
 public:
  /// `pagerank_norm` and `venue_scores` are per-paper arrays (same size
  /// as g.num_nodes()), both on a [0, 1] scale. The graph must outlive
  /// the model.
  WeightModel(const graph::CitationGraph* g, std::vector<double> pagerank_norm,
              std::vector<double> venue_scores, const NewstParams& params = {});

  /// Eq. (3). The denominator is floored so papers with no venue and
  /// negligible PageRank keep a finite weight.
  double NodeWeight(graph::PaperId i) const;

  /// Relatedness count used by Eq. (2): 1 + common neighbors, capped.
  ///
  /// Cap semantics, spelled out because every intersection kernel and
  /// both call paths must honor them identically:
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

  /// Same count via `scratch`'s dense-bitmap fast path (stamped once per
  /// source i); identical result by construction, cheaper when many j
  /// are evaluated against one high-degree i.
  int Con(graph::PaperId i, graph::PaperId j, ConScratch* scratch) const;

  /// Eq. (2).
  double EdgeCost(graph::PaperId i, graph::PaperId j) const;

  /// Eq. (2) through the scratch fast path; same value, same clamp.
  double EdgeCost(graph::PaperId i, graph::PaperId j,
                  ConScratch* scratch) const;

  const NewstParams& params() const { return params_; }

  /// Maximum possible node weight (γ / floor); handy for tests.
  double MaxNodeWeight() const;

 private:
  const graph::CitationGraph* g_;
  std::vector<double> pagerank_norm_;
  std::vector<double> venue_scores_;
  NewstParams params_;

  static constexpr double kDenomFloor = 0.02;
  static constexpr int kConCap = 7;
};

}  // namespace rpg::rank

#endif  // RPG_RANK_WEIGHT_MODEL_H_
