#ifndef RPG_GRAPH_CITATION_GRAPH_H_
#define RPG_GRAPH_CITATION_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

namespace rpg::graph {

/// Dense paper identifier. The paper's citation graph has ~6M nodes;
/// uint32 keeps adjacency arrays compact and cache-friendly.
using PaperId = uint32_t;
inline constexpr PaperId kInvalidPaper = UINT32_MAX;

/// Immutable citation graph in compressed-sparse-row form. An edge
/// u -> v means "paper u cites paper v". Both directions are stored:
/// out-edges (references of u) and in-edges (papers citing v), because the
/// pipeline expands neighborhoods in both directions (§IV-A step 3) and
/// PageRank propagates along reversed citations.
///
/// Construct via GraphBuilder. Within each node's span, neighbors are
/// sorted ascending, enabling binary-search membership tests.
class CitationGraph {
 public:
  CitationGraph() = default;

  size_t num_nodes() const { return out_offsets_.empty() ? 0 : out_offsets_.size() - 1; }
  size_t num_edges() const { return out_targets_.size(); }

  /// Papers cited by `u` (its reference list).
  std::span<const PaperId> OutNeighbors(PaperId u) const {
    return {out_targets_.data() + out_offsets_[u],
            out_offsets_[u + 1] - out_offsets_[u]};
  }

  /// Papers that cite `v`.
  std::span<const PaperId> InNeighbors(PaperId v) const {
    return {in_targets_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }

  size_t OutDegree(PaperId u) const {
    return out_offsets_[u + 1] - out_offsets_[u];
  }
  size_t InDegree(PaperId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// In-degree == number of citations received.
  size_t CitationCount(PaperId v) const { return InDegree(v); }

 private:
  friend class GraphBuilder;
  friend class GraphIo;

  std::vector<uint64_t> out_offsets_;  // size num_nodes + 1
  std::vector<PaperId> out_targets_;
  std::vector<uint64_t> in_offsets_;
  std::vector<PaperId> in_targets_;
};

}  // namespace rpg::graph

#endif  // RPG_GRAPH_CITATION_GRAPH_H_
