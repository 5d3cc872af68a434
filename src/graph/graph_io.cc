#include "graph/graph_io.h"

#include <limits>
#include <unordered_set>

#include "common/json_writer.h"
#include "common/string_util.h"

namespace rpg::graph {

namespace {

/// The out-CSR arrays must describe `offsets.size() - 1` valid spans:
/// anything less and OutNeighbors/InNeighbors index out of bounds, and
/// a span that is not strictly ascending breaks the sorted,
/// duplicate-free rule the intersection kernels rely on
/// (common/intersect.h).
Status ValidateCsr(const std::vector<uint64_t>& offsets,
                   const std::vector<PaperId>& targets) {
  if (offsets.empty()) {
    return Status::InvalidArgument("FromOutCsr: empty offsets");
  }
  // Node count must fit PaperId: a graph bigger than that cannot be
  // addressed by the 32-bit ids the rest of the pipeline uses.
  const size_t num_nodes = offsets.size() - 1;
  if (num_nodes > std::numeric_limits<PaperId>::max()) {
    return Status::InvalidArgument("FromOutCsr: graph too large for PaperId");
  }
  if (offsets.front() != 0) {
    return Status::InvalidArgument("FromOutCsr: offsets do not start at 0");
  }
  for (size_t i = 0; i < num_nodes; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::InvalidArgument(
          StrFormat("FromOutCsr: offsets not monotonic at %zu", i));
    }
  }
  if (offsets.back() != targets.size()) {
    return Status::InvalidArgument(
        "FromOutCsr: offsets/targets length mismatch");
  }
  for (size_t u = 0; u < num_nodes; ++u) {
    const uint64_t begin = offsets[u], end = offsets[u + 1];
    if (begin == end) continue;
    for (uint64_t i = begin + 1; i < end; ++i) {
      if (targets[i] <= targets[i - 1]) {
        return Status::InvalidArgument(StrFormat(
            "FromOutCsr: span of node %zu not strictly ascending at %zu", u,
            static_cast<size_t>(i)));
      }
    }
    // The span ascends, so its last target is its largest.
    if (targets[end - 1] >= num_nodes) {
      return Status::InvalidArgument(
          StrFormat("FromOutCsr: target out of range at %zu",
                    static_cast<size_t>(end - 1)));
    }
  }
  return Status::OK();
}

}  // namespace

Result<CitationGraph> GraphIo::FromOutCsr(std::vector<uint64_t> out_offsets,
                                          std::vector<PaperId> out_targets) {
  RPG_RETURN_NOT_OK(ValidateCsr(out_offsets, out_targets));
  const size_t num_nodes = out_offsets.size() - 1;
  CitationGraph g;
  g.out_offsets_ = std::move(out_offsets);
  g.out_targets_ = std::move(out_targets);
  // Transpose: count in-degrees, prefix-sum, then scatter sources in
  // ascending order so every in-span comes out sorted.
  g.in_offsets_.assign(num_nodes + 1, 0);
  for (PaperId v : g.out_targets_) ++g.in_offsets_[v + 1];
  for (size_t i = 1; i <= num_nodes; ++i) {
    g.in_offsets_[i] += g.in_offsets_[i - 1];
  }
  g.in_targets_.resize(g.out_targets_.size());
  std::vector<uint64_t> cursor(g.in_offsets_.begin(),
                               g.in_offsets_.end() - 1);
  for (PaperId u = 0; u < num_nodes; ++u) {
    for (uint64_t i = g.out_offsets_[u]; i < g.out_offsets_[u + 1]; ++i) {
      g.in_targets_[cursor[g.out_targets_[i]]++] = u;
    }
  }
  return g;
}

std::string GraphIo::ToDot(const CitationGraph& g,
                           const std::vector<PaperId>& nodes,
                           const std::vector<std::string>& labels) {
  std::unordered_set<PaperId> keep(nodes.begin(), nodes.end());
  std::string out = "digraph citations {\n  rankdir=TB;\n";
  for (PaperId u : nodes) {
    std::string label = (u < labels.size() && !labels[u].empty())
                            ? labels[u]
                            : ("p" + std::to_string(u));
    out += StrFormat("  n%u [label=\"%s\"];\n", u,
                     JsonWriter::Escape(label).c_str());
  }
  for (PaperId u : nodes) {
    for (PaperId v : g.OutNeighbors(u)) {
      if (keep.contains(v)) {
        out += StrFormat("  n%u -> n%u;\n", u, v);
      }
    }
  }
  out += "}\n";
  return out;
}

}  // namespace rpg::graph
