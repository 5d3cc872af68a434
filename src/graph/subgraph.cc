#include "graph/subgraph.h"

#include <numeric>

#include "graph/graph_io.h"

namespace rpg::graph {

Subgraph::Subgraph(const CitationGraph& g, const std::vector<PaperId>& nodes) {
  SubgraphScratch scratch;
  Assign(g, nodes, &scratch);
}

void Subgraph::Assign(const CitationGraph& g, const std::vector<PaperId>& nodes,
                      SubgraphScratch* scratch) {
  // Reset the previous members' entries, then grow the index to cover
  // `g`. Each push_back precedes its map[] write, so every set entry is
  // in locals_to_global_, even after an Assign that threw midway.
  std::vector<uint32_t>& map = local_of_;
  for (PaperId p : locals_to_global_) map[p] = UINT32_MAX;
  locals_to_global_.clear();
  const size_t n = g.num_nodes();
  if (map.size() < n) map.resize(n, UINT32_MAX);

  // Dedup + local id assignment in first-appearance order.
  for (PaperId p : nodes) {
    if (p >= n || map[p] != UINT32_MAX) continue;
    locals_to_global_.push_back(p);
    map[p] = static_cast<uint32_t>(locals_to_global_.size() - 1);
  }
  const size_t k = locals_to_global_.size();

  // Counting pass over induced out-edges.
  num_edges_ = 0;
  out_offsets_.assign(k + 1, 0);
  in_offsets_.assign(k + 1, 0);
  for (uint32_t local = 0; local < k; ++local) {
    for (PaperId cited : g.OutNeighbors(locals_to_global_[local])) {
      uint32_t target = map[cited];
      if (target == UINT32_MAX) continue;
      ++out_offsets_[local + 1];
      ++in_offsets_[target + 1];
      ++num_edges_;
    }
  }
  std::partial_sum(out_offsets_.begin(), out_offsets_.end(),
                   out_offsets_.begin());
  std::partial_sum(in_offsets_.begin(), in_offsets_.end(), in_offsets_.begin());

  // In-spans, filled in citing order: the outer loop visits citing
  // locals ascending, so each in-span comes out sorted. Each entry keeps
  // the citation's index in g's out-CSR.
  //
  // This walks the members' global out-spans a second time on purpose.
  // A one-pass variant (buffer the surviving (source, target, edge id)
  // triples in the counting pass, counting-sort them into the in-spans)
  // built identical arrays but was slower: 258-300 us per call against
  // 214-278 us here, over 711 calls (every SurveyBank query x seeds
  // {10, 30, 50}, default 53,800-paper corpus; four passes with each
  // variant run first; GCC 12.2 -O2, 4-vCPU Xeon VM). The second walk
  // re-reads spans and map entries the first one just brought into
  // cache; the buffer writes and re-reads 16 bytes per surviving edge.
  const std::vector<uint64_t>& g_offsets = GraphIo::OutOffsets(g);
  std::vector<uint64_t>& cursor = scratch->cursor_;
  in_targets_.resize(num_edges_);
  in_edges_.resize(num_edges_);
  cursor.assign(in_offsets_.begin(), in_offsets_.end() - 1);
  for (uint32_t local = 0; local < k; ++local) {
    const PaperId gu = locals_to_global_[local];
    const std::span<const PaperId> cited = g.OutNeighbors(gu);
    for (size_t i = 0; i < cited.size(); ++i) {
      uint32_t target = map[cited[i]];
      if (target == UINT32_MAX) continue;
      const uint64_t at = cursor[target]++;
      in_targets_[at] = local;
      in_edges_[at] = g_offsets[gu] + i;
    }
  }

  // Out-spans as the transpose of the in-CSR: visiting cited locals
  // ascending leaves each out-span sorted too.
  out_targets_.resize(num_edges_);
  out_edges_.resize(num_edges_);
  cursor.assign(out_offsets_.begin(), out_offsets_.end() - 1);
  for (uint32_t cited = 0; cited < k; ++cited) {
    for (uint64_t at = in_offsets_[cited]; at < in_offsets_[cited + 1];
         ++at) {
      const uint64_t to = cursor[in_targets_[at]]++;
      out_targets_[to] = cited;
      out_edges_[to] = in_edges_[at];
    }
  }
}

}  // namespace rpg::graph
