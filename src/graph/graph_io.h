#ifndef RPG_GRAPH_GRAPH_IO_H_
#define RPG_GRAPH_GRAPH_IO_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "graph/citation_graph.h"

namespace rpg::graph {

/// CSR access for the snapshot format and DOT export for citation graphs.
class GraphIo {
 public:
  /// Snapshot support — read access to the out-direction CSR offsets.
  static const std::vector<uint64_t>& OutOffsets(const CitationGraph& g) {
    return g.out_offsets_;
  }

  /// Snapshot support — builds a graph from out-direction CSR arrays
  /// alone. The arrays come from disk, so they are validated before use:
  /// offsets start at 0, never decrease and end at the target count,
  /// every target is < num_nodes, and every span is strictly ascending
  /// (the sorted, duplicate-free rule of common/intersect.h). A corrupt
  /// or hostile file fails with InvalidArgument instead of producing a
  /// graph whose accessors read out of bounds. The in-direction is
  /// rebuilt as the transpose (counting sort over sources, which leaves
  /// every in-span sorted ascending), so the two directions cannot
  /// disagree no matter what the file claimed.
  static Result<CitationGraph> FromOutCsr(std::vector<uint64_t> out_offsets,
                                          std::vector<PaperId> out_targets);

  /// Renders a node-induced sample as Graphviz DOT (edge u->v drawn as the
  /// citation direction). `labels` is optional (empty = use node ids);
  /// used for the Fig. 5 citation-graph visualization.
  static std::string ToDot(const CitationGraph& g,
                           const std::vector<PaperId>& nodes,
                           const std::vector<std::string>& labels = {});
};

}  // namespace rpg::graph

#endif  // RPG_GRAPH_GRAPH_IO_H_
