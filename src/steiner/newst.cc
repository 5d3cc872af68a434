#include "steiner/newst.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/flat_hash.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "steiner/dijkstra.h"
#include "steiner/mst.h"

namespace rpg::steiner {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Result<std::vector<uint32_t>> CanonicalTerminals(
    const WeightedGraph& g, const std::vector<uint32_t>& terminals) {
  if (terminals.empty()) {
    return Status::InvalidArgument("terminal set is empty");
  }
  std::vector<uint32_t> terms = terminals;
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  for (uint32_t t : terms) {
    if (t >= g.num_nodes()) {
      return Status::InvalidArgument(
          StrFormat("terminal %u out of range (graph has %zu nodes)", t,
                    g.num_nodes()));
    }
  }
  return terms;
}

Result<SteinerResult> SolveNewst(const WeightedGraph& g,
                                 const std::vector<uint32_t>& terminals,
                                 const NewstOptions& options) {
  SteinerScratch scratch;
  return SolveNewst(g, terminals, options, &scratch);
}

Result<SteinerResult> SolveNewst(const WeightedGraph& g,
                                 const std::vector<uint32_t>& terminals,
                                 const NewstOptions& options,
                                 SteinerScratch* scratch) {
  RPG_ASSIGN_OR_RETURN(std::vector<uint32_t> terms,
                       CanonicalTerminals(g, terminals));

  // Effective graph for the ablations.
  std::optional<WeightedGraph> unit;
  const WeightedGraph* eg = &g;
  if (!options.use_edge_weights) {
    unit = UnitCostCopy(g);
    eg = &*unit;
  }

  SteinerResult result;
  SteinerStats& stats = result.stats;
  const size_t k = terms.size();
  const size_t n = eg->num_nodes();

  // ---- Step 1: metric closure over the terminals --------------------
  // Classic: one Dijkstra per terminal, closure = all reachable pairs.
  // Mehlhorn: one multi-source Dijkstra -> Voronoi cells; every graph
  // edge crossing a cell boundary induces a closure candidate
  //   d(s_a, u) + c(u, w) + d(w, s_b)
  // and the cheapest candidate per terminal pair survives. The MST of
  // this (much sparser) closure graph yields the same KMB guarantee.
  Timer closure_timer;
  std::vector<SteinerScratch::ClosureEdge>& closure = scratch->closure_;
  closure.clear();
  std::vector<ShortestPathTree> spt;  // classic only
  const VoronoiPartition& vp = scratch->voronoi_;  // Mehlhorn only
  FlatMap<uint64_t, size_t>& best_candidate = scratch->best_candidate_;
  best_candidate.clear();

  if (options.closure_mode == ClosureMode::kClassic) {
    spt.reserve(k);
    for (uint32_t t : terms) {
      spt.push_back(Dijkstra(*eg, t, options.use_node_weights, &stats));
    }
    for (uint32_t i = 0; i < k; ++i) {
      for (uint32_t j = i + 1; j < k; ++j) {
        double d = spt[i].dist[terms[j]];
        if (d < kInf) closure.push_back({i, j, d, UINT32_MAX, UINT32_MAX});
      }
    }
  } else {
    MultiSourceDijkstra(*eg, terms, options.use_node_weights, &stats,
                        &scratch->heap_, &scratch->voronoi_);
    best_candidate.reserve(4 * k);
    for (uint32_t u = 0; u < n; ++u) {
      uint32_t cell_u = vp.source[u];
      if (cell_u == UINT32_MAX) continue;
      for (const auto& [w, cost] : eg->Neighbors(u)) {
        if (w < u) continue;  // scan each undirected edge once
        uint32_t cell_w = vp.source[w];
        if (cell_w == UINT32_MAX || cell_w == cell_u) continue;
        uint32_t a = std::min(cell_u, cell_w), b = std::max(cell_u, cell_w);
        // Voronoi distances exclude both terminals' weights — unlike the
        // classic closure, which prices pair (i, j) as
        // spt[i].dist[terms[j]] and so includes w(terms[j]). The pure
        // sum is deliberate: every terminal's weight is paid no matter
        // which closure edges are chosen, so the marginal cost of this
        // edge is exactly its edges + internal node weights. Empirically
        // this yields slightly cheaper trees than mirroring the classic
        // convention (see bench_table4's cost ratio).
        double d = vp.dist[u] + cost + vp.dist[w];
        uint64_t key = static_cast<uint64_t>(a) * k + b;
        if (const size_t* found = best_candidate.Find(key)) {
          if (d < closure[*found].cost) {
            closure[*found] = {a, b, d,
                               cell_u == a ? u : w,
                               cell_u == a ? w : u};
          }
        } else {
          best_candidate[key] = closure.size();
          closure.push_back({a, b, d,
                             cell_u == a ? u : w,
                             cell_u == a ? w : u});
        }
      }
    }
  }
  stats.closure_edges = closure.size();
  stats.closure_seconds = closure_timer.ElapsedSeconds();

  // ---- Step 2: MST of the closure (forest when disconnected) --------
  std::vector<Edge>& mst_input = scratch->mst_input_;
  mst_input.clear();
  for (const SteinerScratch::ClosureEdge& e : closure) {
    mst_input.push_back({e.a, e.b, e.cost});
  }
  const std::vector<Edge>& closure_mst = scratch->closure_mst_;
  KruskalMst(k, &mst_input, &scratch->sets_, &scratch->closure_mst_);

  // ---- Step 3: expand closure-MST edges into shortest paths ---------
  // Gs is a node set and an edge set (both sorted below), so each path
  // is added by walking its parent chain, in any order.
  std::vector<uint8_t>& in_gs = scratch->in_gs_;
  in_gs.assign(n, 0);
  std::vector<uint32_t>& gs_nodes = scratch->gs_nodes_;
  gs_nodes.clear();
  auto add_gs_node = [&](uint32_t v) {
    if (!in_gs[v]) {
      in_gs[v] = 1;
      gs_nodes.push_back(v);
    }
  };
  for (uint32_t t : terms) add_gs_node(t);
  std::vector<std::pair<uint32_t, uint32_t>>& gs_edge_pairs =
      scratch->gs_edge_pairs_;
  gs_edge_pairs.clear();
  // The shortest path from v back to the root of `parent`'s tree.
  auto add_gs_chain = [&](const std::vector<uint32_t>& parent, uint32_t v) {
    add_gs_node(v);
    for (uint32_t p = parent[v]; p != UINT32_MAX; v = p, p = parent[v]) {
      add_gs_node(p);
      gs_edge_pairs.emplace_back(std::min(v, p), std::max(v, p));
    }
  };
  for (const Edge& e : closure_mst) {
    if (options.closure_mode == ClosureMode::kClassic) {
      add_gs_chain(spt[e.u].parent, terms[e.v]);
    } else {
      uint64_t key = static_cast<uint64_t>(e.u) * k + e.v;
      const SteinerScratch::ClosureEdge& ce =
          closure[*best_candidate.Find(key)];
      // Path: terminal a -> ... -> boundary_u -> boundary_w -> ... ->
      // terminal b, the two Voronoi parent chains and the boundary edge.
      add_gs_chain(vp.parent, ce.boundary_u);
      add_gs_chain(vp.parent, ce.boundary_w);
      gs_edge_pairs.emplace_back(std::min(ce.boundary_u, ce.boundary_w),
                                 std::max(ce.boundary_u, ce.boundary_w));
    }
  }
  std::sort(gs_edge_pairs.begin(), gs_edge_pairs.end());
  gs_edge_pairs.erase(std::unique(gs_edge_pairs.begin(), gs_edge_pairs.end()),
                      gs_edge_pairs.end());

  // ---- Step 4: MST of the expanded subgraph Gs, then prune ----------
  // Compact ids for Gs via a flat id-map (sorted for determinism). Only
  // Gs nodes' entries of to_compact are read, and each is written first.
  std::sort(gs_nodes.begin(), gs_nodes.end());
  const std::vector<uint32_t>& to_original = gs_nodes;
  std::vector<uint32_t>& to_compact = scratch->to_compact_;
  to_compact.resize(n);
  for (uint32_t i = 0; i < to_original.size(); ++i) {
    to_compact[to_original[i]] = i;
  }
  std::vector<Edge>& gs_edges = scratch->mst_input_;
  gs_edges.clear();
  for (const auto& [a, b] : gs_edge_pairs) {
    gs_edges.push_back({to_compact[a], to_compact[b], eg->EdgeCost(a, b)});
  }
  const size_t gn = to_original.size();
  const std::vector<Edge>& gs_mst = scratch->gs_mst_;
  KruskalMst(gn, &gs_edges, &scratch->sets_, &scratch->gs_mst_);

  // Prune non-terminal leaves until fixpoint (classic KMB step 5),
  // incrementally: peel leaves off a work list instead of rescanning.
  // `keep` marks the terminals (never pruned), and after pruning every
  // node of the result. `edge_xor` is the XOR of a node's live edge
  // indices, so a leaf's one live edge is read off without adjacency.
  std::vector<uint8_t>& keep = scratch->keep_;
  keep.assign(gn, 0);
  for (uint32_t t : terms) keep[to_compact[t]] = 1;
  std::vector<uint32_t>& degree = scratch->degree_;
  degree.assign(gn, 0);
  std::vector<uint32_t>& edge_xor = scratch->edge_xor_;
  edge_xor.assign(gn, 0);
  for (uint32_t i = 0; i < gs_mst.size(); ++i) {
    const Edge& e = gs_mst[i];
    ++degree[e.u];
    ++degree[e.v];
    edge_xor[e.u] ^= i;
    edge_xor[e.v] ^= i;
  }
  std::vector<uint8_t>& removed_edge = scratch->removed_edge_;
  removed_edge.assign(gs_mst.size(), 0);
  std::vector<uint32_t>& leaves = scratch->leaves_;
  leaves.clear();
  for (uint32_t v = 0; v < gn; ++v) {
    if (degree[v] == 1 && !keep[v]) leaves.push_back(v);
  }
  while (!leaves.empty()) {
    uint32_t v = leaves.back();
    leaves.pop_back();
    if (degree[v] != 1) continue;  // stale: last edge already removed
    const uint32_t edge_idx = edge_xor[v];
    const uint32_t w = gs_mst[edge_idx].u == v ? gs_mst[edge_idx].v
                                               : gs_mst[edge_idx].u;
    removed_edge[edge_idx] = 1;
    --degree[v];
    --degree[w];
    edge_xor[v] ^= edge_idx;
    edge_xor[w] ^= edge_idx;
    if (degree[w] == 1 && !keep[w]) leaves.push_back(w);
  }

  // ---- Assemble the result ------------------------------------------
  for (uint32_t i = 0; i < gs_mst.size(); ++i) {
    if (removed_edge[i]) continue;
    keep[gs_mst[i].u] = 1;
    keep[gs_mst[i].v] = 1;
    uint32_t a = to_original[gs_mst[i].u];
    uint32_t b = to_original[gs_mst[i].v];
    result.edges.emplace_back(std::min(a, b), std::max(a, b));
    result.total_cost += gs_mst[i].cost;
  }
  result.nodes.reserve(gn);
  for (uint32_t c = 0; c < gn; ++c) {
    if (keep[c]) result.nodes.push_back(to_original[c]);
  }
  std::sort(result.edges.begin(), result.edges.end());
  if (options.use_node_weights) {
    for (uint32_t v : result.nodes) result.total_cost += g.NodeWeight(v);
  }

  // Terminals outside the first terminal's closure component.
  DisjointSets& components = scratch->sets_;
  components.Reset(k);
  for (const Edge& e : closure_mst) components.Union(e.u, e.v);
  uint32_t root = components.Find(0);
  for (uint32_t i = 1; i < k; ++i) {
    if (components.Find(i) != root) {
      result.unreachable_terminals.push_back(terms[i]);
    }
  }
  return result;
}

}  // namespace rpg::steiner
