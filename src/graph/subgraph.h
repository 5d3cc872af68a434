#ifndef RPG_GRAPH_SUBGRAPH_H_
#define RPG_GRAPH_SUBGRAPH_H_

/// \file
/// Node-induced subgraph with a local <-> global id mapping. The RePaGer
/// pipeline runs NEWST over the 1st/2nd-order neighborhood sub-citation
/// graph (§IV-A step 3), which is orders of magnitude smaller than the
/// whole graph; local dense ids keep the Steiner machinery simple.
///
/// Ownership / thread-safety model:
///  - A built Subgraph is immutable and self-contained (it does NOT
///    retain pointers into the CitationGraph or the scratch); concurrent
///    reads are safe.
///  - The Subgraph's ToLocal index is a dense |V|-sized array. The next
///    Assign() resets only the previous members' entries and grows it
///    lazily for a larger graph, so one Subgraph serves any graph.
///  - SubgraphScratch holds only the CSR fill cursor. One per thread.
///  - Assign() reuses the Subgraph's own arrays (clear keeps capacity),
///    so a worker that keeps one Subgraph object alive pays near-zero
///    allocation after warm-up.

#include <span>
#include <vector>

#include "graph/citation_graph.h"

namespace rpg::graph {

class Subgraph;

/// Reusable build-time state for Subgraph::Assign. Treat as an opaque
/// token: default-construct once per worker and pass to every Assign
/// call. Never share one scratch between threads.
class SubgraphScratch {
 public:
  SubgraphScratch() = default;

 private:
  friend class Subgraph;
  std::vector<uint64_t> cursor_;
};

/// Compressed-sparse-row induced subgraph (same storage design as
/// CitationGraph). Local ids are assigned in the order nodes first appear
/// in `nodes`; neighbor spans are sorted ascending by local id. Every
/// local edge also records its citation's index in the source graph's
/// out-CSR (GraphIo::OutOffsets(g)[u] + k for u's k-th reference), the
/// key of WeightModel's per-edge con table.
class Subgraph {
 public:
  /// Empty subgraph; populate with Assign().
  Subgraph() = default;

  /// Builds the subgraph of `g` induced by `nodes` (duplicates collapsed,
  /// out-of-range ids dropped) using a private transient scratch.
  Subgraph(const CitationGraph& g, const std::vector<PaperId>& nodes);

  /// (Re)builds this subgraph in place, reusing existing array capacity.
  /// `scratch` may be reused immediately.
  void Assign(const CitationGraph& g, const std::vector<PaperId>& nodes,
              SubgraphScratch* scratch);

  size_t num_nodes() const { return locals_to_global_.size(); }
  size_t num_edges() const { return num_edges_; }

  /// Global paper id for a local id.
  PaperId ToGlobal(uint32_t local) const { return locals_to_global_[local]; }

  /// Local id for a global paper id, or UINT32_MAX if not in the
  /// subgraph. One bounds-checked array read.
  uint32_t ToLocal(PaperId global) const {
    return global < local_of_.size() ? local_of_[global] : UINT32_MAX;
  }

  bool Contains(PaperId global) const {
    return ToLocal(global) != UINT32_MAX;
  }

  /// Local out-neighbors (cited papers inside the subgraph), sorted.
  std::span<const uint32_t> OutNeighbors(uint32_t local) const {
    return {out_targets_.data() + out_offsets_[local],
            out_offsets_[local + 1] - out_offsets_[local]};
  }
  /// Local in-neighbors (citing papers inside the subgraph), sorted.
  std::span<const uint32_t> InNeighbors(uint32_t local) const {
    return {in_targets_.data() + in_offsets_[local],
            in_offsets_[local + 1] - in_offsets_[local]};
  }

  /// Source-graph out-CSR index of each citation in OutNeighbors(local),
  /// parallel to it.
  std::span<const uint64_t> OutEdgeIds(uint32_t local) const {
    return {out_edges_.data() + out_offsets_[local],
            out_offsets_[local + 1] - out_offsets_[local]};
  }
  /// Source-graph out-CSR index of each citation in InNeighbors(local),
  /// parallel to it.
  std::span<const uint64_t> InEdgeIds(uint32_t local) const {
    return {in_edges_.data() + in_offsets_[local],
            in_offsets_[local + 1] - in_offsets_[local]};
  }

 private:
  std::vector<PaperId> locals_to_global_;
  std::vector<uint32_t> local_of_;  // ToLocal index; UINT32_MAX = absent
  // Offsets hold num_nodes + 1 entries ({0} when empty) from default
  // construction on, so accessors stay in bounds for every valid local.
  std::vector<uint64_t> out_offsets_{0};
  std::vector<uint32_t> out_targets_;
  std::vector<uint64_t> out_edges_;
  std::vector<uint64_t> in_offsets_{0};
  std::vector<uint32_t> in_targets_;
  std::vector<uint64_t> in_edges_;
  size_t num_edges_ = 0;
};

}  // namespace rpg::graph

#endif  // RPG_GRAPH_SUBGRAPH_H_
