#ifndef RPG_STEINER_NEWST_H_
#define RPG_STEINER_NEWST_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/result.h"
#include "steiner/dijkstra.h"
#include "steiner/mst.h"
#include "steiner/stats.h"
#include "steiner/weighted_graph.h"

namespace rpg::steiner {

/// How the terminal metric closure (KMB step 1) is built.
enum class ClosureMode : uint8_t {
  /// Mehlhorn (1988): ONE multi-source Dijkstra computes the Voronoi
  /// partition around the terminals; a scan over Voronoi-boundary edges
  /// yields a sparse closure subgraph whose MST carries the same
  /// 2(1 - 1/l) approximation guarantee as the full KMB closure. The
  /// resulting tree may differ from classic mode on instances where
  /// boundary paths are not global shortest paths (both trees stay
  /// within the bound). O(E log V) regardless of |S|. The default hot
  /// path.
  kMehlhorn = 0,
  /// The textbook KMB closure: one full Dijkstra per terminal,
  /// O(|S| E log V). Kept as the ablation / cross-verification mode.
  kClassic = 1,
};

/// Variant switches for the ablation study (§VI-B, Table III right).
struct NewstOptions {
  /// Include node weights in path distances and the objective (off =
  /// NEWST-N).
  bool use_node_weights = true;
  /// Use per-edge costs; when false every edge costs 1 (NEWST-E).
  bool use_edge_weights = true;
  /// Metric-closure construction; both modes produce trees within the
  /// same 2(1 - 1/l) bound, kClassic exists for ablations and tests.
  ClosureMode closure_mode = ClosureMode::kMehlhorn;
};

/// Output of the solver: a Steiner tree (or forest when some terminals
/// are mutually unreachable) spanning the reachable terminals.
struct SteinerResult {
  /// All tree nodes (terminals + Steiner nodes), sorted.
  std::vector<uint32_t> nodes;
  /// Tree edges (u < v), sorted.
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  /// Objective value of Eq. (1): sum of tree-edge costs + tree-node
  /// weights (node weights counted only when use_node_weights).
  double total_cost = 0.0;
  /// Terminals dropped because no path connected them to the first
  /// terminal's component.
  std::vector<uint32_t> unreachable_terminals;
  /// Work counters (settled nodes, heap pushes, closure edges, closure
  /// wall clock) for the run that produced this tree.
  SteinerStats stats;
};

/// Reusable working memory for SolveNewst: the Voronoi arrays and the
/// Dijkstra heap, the closure candidates and their pair index, the
/// Kruskal buffers, the Gs node and edge lists, and the prune state.
/// After the first solve on a graph of a given size everything here is
/// warm, so a Mehlhorn-mode solve allocates only its result and the
/// canonical terminal list (-E also copies the graph, and the classic
/// closure keeps one shortest-path tree per terminal). Like
/// search::SearchScratch it carries no state between calls and refers
/// to no graph, so results are bit-identical with a fresh or a reused
/// scratch, whatever graphs it solved before. One per thread:
/// core::QueryScratch holds one for each solver thread.
class SteinerScratch {
 public:
  SteinerScratch() = default;
  SteinerScratch(const SteinerScratch&) = delete;
  SteinerScratch& operator=(const SteinerScratch&) = delete;

 private:
  friend Result<SteinerResult> SolveNewst(const WeightedGraph&,
                                          const std::vector<uint32_t>&,
                                          const NewstOptions&,
                                          SteinerScratch*);

  /// A closure edge between terminal indices plus what is needed to
  /// expand it back into a graph path. Classic mode expands through the
  /// shortest-path tree of terminal a; Mehlhorn mode stores the
  /// Voronoi-boundary graph edge (u, w) the path crosses.
  struct ClosureEdge {
    uint32_t a = 0, b = 0;  // terminal indices, a < b
    double cost = 0.0;
    uint32_t boundary_u = UINT32_MAX;  // Mehlhorn: endpoint in cell of a
    uint32_t boundary_w = UINT32_MAX;  // Mehlhorn: endpoint in cell of b
  };

  // Step 1: the metric closure.
  VoronoiPartition voronoi_;
  DijkstraHeap heap_;
  std::vector<ClosureEdge> closure_;
  /// Mehlhorn: terminal-pair key a * k + b -> index in closure_.
  FlatMap<uint64_t, size_t> best_candidate_;
  // Steps 2 and 4: Kruskal's input, output and union-find.
  std::vector<Edge> mst_input_;
  std::vector<Edge> closure_mst_;
  std::vector<Edge> gs_mst_;
  DisjointSets sets_;
  // Step 3: Gs, the union of the expanded closure-MST paths.
  std::vector<uint8_t> in_gs_;
  std::vector<uint32_t> gs_nodes_;
  std::vector<std::pair<uint32_t, uint32_t>> gs_edge_pairs_;
  std::vector<uint32_t> to_compact_;
  // Step 4: leaf pruning, over Gs's compact ids.
  std::vector<uint8_t> keep_;
  std::vector<uint32_t> degree_;
  std::vector<uint32_t> edge_xor_;
  std::vector<uint8_t> removed_edge_;
  std::vector<uint32_t> leaves_;
};

/// Validates + dedups a terminal set: sorts, collapses duplicates, and
/// rejects empty sets or out-of-range ids with InvalidArgument. Shared by
/// every Steiner solver so the rules cannot drift.
Result<std::vector<uint32_t>> CanonicalTerminals(
    const WeightedGraph& g, const std::vector<uint32_t>& terminals);

/// Node-Edge Weighted Steiner Tree heuristic — Algorithm 1 of the paper
/// (the KMB construction of Kou, Markowsky & Berman 1981 generalized to
/// node weights):
///   1. build the metric closure over the terminals S (shortest paths
///      account for node weights + edge costs) — per options.closure_mode
///      either the classic per-terminal closure or Mehlhorn's single-pass
///      Voronoi construction,
///   2. MST of the closure,
///   3. expand each MST edge into its underlying shortest path, forming
///      the subgraph Gs,
///   4. MST of Gs, then repeatedly prune non-terminal leaves.
/// Guarantees cost(T) <= 2(1 - 1/l) * OPT with l the number of leaves in
/// the optimal tree (both closure modes). Time O(E log V) in Mehlhorn
/// mode, O(|S| E log V) classic.
///
/// Returns InvalidArgument for an empty terminal set or out-of-range
/// terminal ids. Duplicate terminals are collapsed. Builds a fresh
/// SteinerScratch.
Result<SteinerResult> SolveNewst(const WeightedGraph& g,
                                 const std::vector<uint32_t>& terminals,
                                 const NewstOptions& options = {});

/// Same result, with the working memory in `scratch`; never pass one
/// scratch to concurrent calls.
Result<SteinerResult> SolveNewst(const WeightedGraph& g,
                                 const std::vector<uint32_t>& terminals,
                                 const NewstOptions& options,
                                 SteinerScratch* scratch);

}  // namespace rpg::steiner

#endif  // RPG_STEINER_NEWST_H_
