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

/// A closure edge between terminal indices plus the information needed to
/// expand it back into an underlying graph path. Classic mode stores the
/// terminal whose shortest-path tree reaches the other; Mehlhorn mode
/// stores the Voronoi-boundary graph edge (u, w) the path crosses.
struct ClosureEdge {
  uint32_t a = 0, b = 0;  // terminal indices, a < b
  double cost = 0.0;
  uint32_t boundary_u = UINT32_MAX;  // Mehlhorn: edge endpoint in cell of a
  uint32_t boundary_w = UINT32_MAX;  // Mehlhorn: edge endpoint in cell of b
};

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
  std::vector<ClosureEdge> closure;
  std::vector<ShortestPathTree> spt;        // classic only
  std::optional<VoronoiPartition> voronoi;  // Mehlhorn only
  // Mehlhorn only: terminal-pair key a * k + b -> index of the cheapest
  // candidate in `closure`, reused later to expand closure-MST edges.
  FlatMap<uint64_t, size_t> best_candidate;

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
    voronoi =
        MultiSourceDijkstra(*eg, terms, options.use_node_weights, &stats);
    const VoronoiPartition& vp = *voronoi;
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
  std::vector<Edge> closure_edges;
  closure_edges.reserve(closure.size());
  for (const ClosureEdge& e : closure) {
    closure_edges.push_back({e.a, e.b, e.cost});
  }
  std::vector<Edge> closure_mst_plain = KruskalMst(k, closure_edges);

  // ---- Step 3: expand closure-MST edges into shortest paths ---------
  std::vector<uint8_t> in_gs(n, 0);
  std::vector<uint32_t> gs_nodes;
  gs_nodes.reserve(2 * k);
  auto add_gs_node = [&](uint32_t v) {
    if (!in_gs[v]) {
      in_gs[v] = 1;
      gs_nodes.push_back(v);
    }
  };
  for (uint32_t t : terms) add_gs_node(t);
  std::vector<std::pair<uint32_t, uint32_t>> gs_edge_pairs;
  auto add_gs_path = [&](const std::vector<uint32_t>& path) {
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      uint32_t a = path[i], b = path[i + 1];
      add_gs_node(a);
      add_gs_node(b);
      gs_edge_pairs.emplace_back(std::min(a, b), std::max(a, b));
    }
  };
  for (const Edge& e : closure_mst_plain) {
    if (options.closure_mode == ClosureMode::kClassic) {
      add_gs_path(spt[e.u].PathTo(terms[e.v]));
    } else {
      uint64_t key = static_cast<uint64_t>(e.u) * k + e.v;
      const ClosureEdge* ce = &closure[*best_candidate.Find(key)];
      // Path: terminal a -> ... -> boundary_u -> boundary_w -> ... ->
      // terminal b, stitched from the two Voronoi parent chains.
      std::vector<uint32_t> path = voronoi->PathFromSource(ce->boundary_u);
      std::vector<uint32_t> tail = voronoi->PathFromSource(ce->boundary_w);
      path.insert(path.end(), tail.rbegin(), tail.rend());
      add_gs_path(path);
    }
  }
  std::sort(gs_edge_pairs.begin(), gs_edge_pairs.end());
  gs_edge_pairs.erase(std::unique(gs_edge_pairs.begin(), gs_edge_pairs.end()),
                      gs_edge_pairs.end());

  // ---- Step 4: MST of the expanded subgraph Gs, then prune ----------
  // Compact ids for Gs via a flat id-map (sorted for determinism).
  std::sort(gs_nodes.begin(), gs_nodes.end());
  const std::vector<uint32_t>& to_original = gs_nodes;
  std::vector<uint32_t> to_compact(n, UINT32_MAX);
  for (uint32_t i = 0; i < to_original.size(); ++i) {
    to_compact[to_original[i]] = i;
  }
  std::vector<Edge> gs_edges;
  gs_edges.reserve(gs_edge_pairs.size());
  for (const auto& [a, b] : gs_edge_pairs) {
    gs_edges.push_back({to_compact[a], to_compact[b], eg->EdgeCost(a, b)});
  }
  std::vector<Edge> gs_mst = KruskalMst(to_original.size(), gs_edges);

  // Prune non-terminal leaves until fixpoint (classic KMB step 5),
  // incrementally: peel leaves off a work list instead of rescanning.
  const size_t gn = to_original.size();
  std::vector<uint8_t> is_terminal(gn, 0);
  for (uint32_t t : terms) is_terminal[to_compact[t]] = 1;
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> tree_adj(gn);
  std::vector<uint32_t> degree(gn, 0);
  for (uint32_t i = 0; i < gs_mst.size(); ++i) {
    const Edge& e = gs_mst[i];
    tree_adj[e.u].emplace_back(e.v, i);
    tree_adj[e.v].emplace_back(e.u, i);
    ++degree[e.u];
    ++degree[e.v];
  }
  std::vector<uint8_t> removed_edge(gs_mst.size(), 0);
  std::vector<uint32_t> leaves;
  for (uint32_t v = 0; v < gn; ++v) {
    if (degree[v] == 1 && !is_terminal[v]) leaves.push_back(v);
  }
  while (!leaves.empty()) {
    uint32_t v = leaves.back();
    leaves.pop_back();
    if (degree[v] != 1) continue;  // stale: last edge already removed
    for (const auto& [w, edge_idx] : tree_adj[v]) {
      if (removed_edge[edge_idx]) continue;
      removed_edge[edge_idx] = 1;
      --degree[v];
      --degree[w];
      if (degree[w] == 1 && !is_terminal[w]) leaves.push_back(w);
      break;
    }
  }

  // ---- Assemble the result ------------------------------------------
  std::vector<uint8_t> in_final(n, 0);
  for (uint32_t t : terms) in_final[t] = 1;
  for (uint32_t i = 0; i < gs_mst.size(); ++i) {
    if (removed_edge[i]) continue;
    uint32_t a = to_original[gs_mst[i].u];
    uint32_t b = to_original[gs_mst[i].v];
    in_final[a] = 1;
    in_final[b] = 1;
    result.edges.emplace_back(std::min(a, b), std::max(a, b));
    result.total_cost += gs_mst[i].cost;
  }
  result.nodes.reserve(gn);
  for (uint32_t v : to_original) {
    if (in_final[v]) result.nodes.push_back(v);
  }
  std::sort(result.edges.begin(), result.edges.end());
  if (options.use_node_weights) {
    for (uint32_t v : result.nodes) result.total_cost += g.NodeWeight(v);
  }

  // Terminals outside the first terminal's closure component.
  DisjointSets components(k);
  for (const Edge& e : closure_mst_plain) components.Union(e.u, e.v);
  uint32_t root = components.Find(0);
  for (uint32_t i = 1; i < k; ++i) {
    if (components.Find(i) != root) {
      result.unreachable_terminals.push_back(terms[i]);
    }
  }
  return result;
}

}  // namespace rpg::steiner
