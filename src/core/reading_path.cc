#include "core/reading_path.h"

#include <algorithm>
#include <map>
#include <queue>

#include "common/json_writer.h"
#include "common/string_util.h"

namespace rpg::core {

using graph::PaperId;

ReadingPath::ReadingPath(const steiner::SteinerResult& tree,
                         const std::vector<uint16_t>& years) {
  nodes_ = tree.nodes;
  std::sort(nodes_.begin(), nodes_.end());
  edges_.reserve(tree.edges.size());
  for (const auto& [a, b] : tree.edges) {
    uint16_t ya = a < years.size() ? years[a] : 0;
    uint16_t yb = b < years.size() ? years[b] : 0;
    // The older paper is the prerequisite and is read first.
    if (ya < yb || (ya == yb && a < b)) {
      edges_.emplace_back(a, b);
    } else {
      edges_.emplace_back(b, a);
    }
  }
  std::sort(edges_.begin(), edges_.end());
}

std::vector<PaperId> ReadingPath::Roots() const {
  std::map<PaperId, int> indegree;
  for (PaperId v : nodes_) indegree[v] = 0;
  for (const auto& [from, to] : edges_) ++indegree[to];
  std::vector<PaperId> roots;
  for (const auto& [v, d] : indegree) {
    if (d == 0) roots.push_back(v);
  }
  return roots;
}

std::vector<PaperId> ReadingPath::FlattenedOrder(
    const std::vector<uint16_t>& years) const {
  // nodes_ is sorted and holds every edge endpoint, and edges_ is sorted
  // by (from, to), so a node's out-edges are one contiguous run of it.
  auto index_of = [&](PaperId v) {
    return static_cast<size_t>(
        std::lower_bound(nodes_.begin(), nodes_.end(), v) - nodes_.begin());
  };
  std::vector<int> indegree(nodes_.size(), 0);
  for (const auto& [from, to] : edges_) ++indegree[index_of(to)];
  auto order_key = [&](PaperId v) {
    uint16_t y = v < years.size() ? years[v] : 0;
    return std::pair<uint16_t, PaperId>(y, v);
  };
  auto cmp = [&](PaperId a, PaperId b) { return order_key(a) > order_key(b); };
  std::priority_queue<PaperId, std::vector<PaperId>, decltype(cmp)> ready(cmp);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (indegree[i] == 0) ready.push(nodes_[i]);
  }
  std::vector<PaperId> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    PaperId v = ready.top();
    ready.pop();
    order.push_back(v);
    for (auto e = std::lower_bound(edges_.begin(), edges_.end(),
                                   std::pair<PaperId, PaperId>(v, 0));
         e != edges_.end() && e->first == v; ++e) {
      if (--indegree[index_of(e->second)] == 0) ready.push(e->second);
    }
  }
  return order;
}

namespace {

std::string Describe(PaperId v, const PaperInfo& info) {
  std::string title = info.titles != nullptr && v < info.titles->size()
                          ? (*info.titles)[v]
                          : ("paper " + std::to_string(v));
  int year = info.years != nullptr && v < info.years->size()
                 ? (*info.years)[v]
                 : 0;
  if (year > 0) return StrFormat("%s (%d)", title.c_str(), year);
  return title;
}

}  // namespace

std::string ReadingPath::ToAscii(
    const PaperInfo& info,
    const std::unordered_set<PaperId>& highlight) const {
  std::map<PaperId, std::vector<PaperId>> out;
  for (const auto& [from, to] : edges_) out[from].push_back(to);

  std::string result;
  std::unordered_set<PaperId> printed;
  // DFS from each root; a node reachable along several citation chains is
  // expanded only once (later mentions get a "^" back-reference mark).
  auto render = [&](auto&& self, PaperId v, int depth) -> void {
    result.append(static_cast<size_t>(depth) * 2, ' ');
    bool again = printed.contains(v);
    result += highlight.contains(v) ? "* " : "- ";
    result += Describe(v, info);
    if (again) {
      result += " ^\n";
      return;
    }
    result += "\n";
    printed.insert(v);
    for (PaperId w : out[v]) self(self, w, depth + 1);
  };
  for (PaperId root : Roots()) render(render, root, 0);
  return result;
}

std::string ReadingPath::ToDot(
    const PaperInfo& info,
    const std::unordered_set<PaperId>& highlight) const {
  std::string out = "digraph reading_path {\n  rankdir=TB;\n"
                    "  node [shape=box, fontsize=10];\n";
  for (PaperId v : nodes_) {
    std::string attrs;
    if (highlight.contains(v)) {
      attrs = ", style=filled, fillcolor=palegreen";
    }
    out += StrFormat("  n%u [label=\"%s\"%s];\n", v,
                     JsonWriter::Escape(Describe(v, info)).c_str(),
                     attrs.c_str());
  }
  for (const auto& [from, to] : edges_) {
    out += StrFormat("  n%u -> n%u;\n", from, to);
  }
  out += "}\n";
  return out;
}

std::string ReadingPath::ToJson(const PaperInfo& info) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("nodes").BeginArray();
  for (PaperId v : nodes_) {
    w.BeginObject();
    w.Key("id").UInt(v);
    if (info.titles != nullptr && v < info.titles->size()) {
      w.Key("title").String((*info.titles)[v]);
    }
    if (info.years != nullptr && v < info.years->size()) {
      w.Key("year").Int((*info.years)[v]);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("edges").BeginArray();
  for (const auto& [from, to] : edges_) {
    w.BeginObject();
    w.Key("read_first").UInt(from);
    w.Key("read_next").UInt(to);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace rpg::core
