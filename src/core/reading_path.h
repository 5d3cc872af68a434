#ifndef RPG_CORE_READING_PATH_H_
#define RPG_CORE_READING_PATH_H_

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/citation_graph.h"
#include "steiner/newst.h"

namespace rpg::core {

/// Per-paper display metadata used when rendering paths. All vectors are
/// indexed by global PaperId and must cover every node in the path.
struct PaperInfo {
  const std::vector<std::string>* titles = nullptr;
  const std::vector<uint16_t>* years = nullptr;
};

/// A reading path: the Steiner tree with each edge directed in *reading
/// order*. The paper resolves direction from the citation relationship
/// combined with publication time (§II-C): the prerequisite (older) end
/// is read first. An edge (a, b) means "read a before b".
class ReadingPath {
 public:
  ReadingPath() = default;

  /// Builds from a NEWST result whose node ids are global paper ids;
  /// `tree.nodes` holds every endpoint of `tree.edges`, as a
  /// SteinerResult's does. nodes() is sorted. Direction: older year
  /// first; ties broken by smaller id first.
  ReadingPath(const steiner::SteinerResult& tree,
              const std::vector<uint16_t>& years);

  const std::vector<graph::PaperId>& nodes() const { return nodes_; }
  const std::vector<std::pair<graph::PaperId, graph::PaperId>>& edges() const {
    return edges_;
  }

  bool empty() const { return nodes_.empty(); }
  size_t size() const { return nodes_.size(); }

  /// Papers with no incoming reading-order edge (the entry points of the
  /// path — typically the oldest prerequisites).
  std::vector<graph::PaperId> Roots() const;

  /// Topological order of the reading DAG, preferring older publication
  /// years (then smaller ids) among available papers: the sequence shown
  /// in the navigation bar of the RePaGer UI.
  std::vector<graph::PaperId> FlattenedOrder(
      const std::vector<uint16_t>& years) const;

  /// Indented ASCII tree (Fig. 9 style). `highlight` marks papers with a
  /// '*' (used for "not in the engine's top-30" marking).
  std::string ToAscii(const PaperInfo& info,
                      const std::unordered_set<graph::PaperId>& highlight = {})
      const;

  /// Graphviz DOT with titles + years; highlighted nodes filled.
  std::string ToDot(const PaperInfo& info,
                    const std::unordered_set<graph::PaperId>& highlight = {})
      const;

  /// Compact JSON {"nodes": [...], "edges": [...]} for the web UI.
  std::string ToJson(const PaperInfo& info) const;

 private:
  std::vector<graph::PaperId> nodes_;
  std::vector<std::pair<graph::PaperId, graph::PaperId>> edges_;
};

}  // namespace rpg::core

#endif  // RPG_CORE_READING_PATH_H_
