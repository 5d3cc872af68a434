#include "core/repager.h"

#include <algorithm>
#include <span>

#include "common/logging.h"
#include "common/timer.h"

namespace rpg::core {

using graph::PaperId;

RePaGer::RePaGer(const graph::CitationGraph* graph,
                 const search::SearchEngine* engine,
                 const rank::WeightModel* weights,
                 const std::vector<uint16_t>* years)
    : graph_(graph), engine_(engine), weights_(weights), years_(years) {
  RPG_CHECK(graph_ != nullptr && engine_ != nullptr && weights_ != nullptr &&
            years_ != nullptr);
  RPG_CHECK(years_->size() == graph_->num_nodes());
}

double RePaGer::Importance(PaperId p) const {
  // NodeWeight = gamma / max(denominator, floor); invert to recover the
  // (clamped) denominator, which *increases* with importance.
  return weights_->params().gamma / weights_->NodeWeight(p);
}

steiner::WeightedGraph BuildWeightedSubgraph(const graph::Subgraph& sg,
                                             const rank::WeightModel& weights) {
  steiner::WeightedGraph out;
  BuildWeightedSubgraph(sg, weights, &out);
  return out;
}

void BuildWeightedSubgraph(const graph::Subgraph& sg,
                           const rank::WeightModel& weights,
                           steiner::WeightedGraph* out) {
  steiner::WeightedGraph::Writer writer(out, sg.num_nodes(),
                                        2 * sg.num_edges());
  for (uint32_t local = 0; local < sg.num_nodes(); ++local) {
    // The undirected span is a merge of the two sorted directed spans.
    // Equal targets mean a mutual citation; its cheaper direction goes
    // first, so the span stays sorted by (target, cost).
    const std::span<const uint32_t> out_t = sg.OutNeighbors(local);
    const std::span<const uint64_t> out_e = sg.OutEdgeIds(local);
    const std::span<const uint32_t> in_t = sg.InNeighbors(local);
    const std::span<const uint64_t> in_e = sg.InEdgeIds(local);
    size_t i = 0, j = 0;
    while (i < out_t.size() && j < in_t.size()) {
      const bool take_out =
          out_t[i] != in_t[j]
              ? out_t[i] < in_t[j]
              : weights.EdgeCostAt(out_e[i]) <= weights.EdgeCostAt(in_e[j]);
      if (take_out) {
        writer.Add(out_t[i], weights.EdgeCostAt(out_e[i]));
        ++i;
      } else {
        writer.Add(in_t[j], weights.EdgeCostAt(in_e[j]));
        ++j;
      }
    }
    for (; i < out_t.size(); ++i) {
      writer.Add(out_t[i], weights.EdgeCostAt(out_e[i]));
    }
    for (; j < in_t.size(); ++j) {
      writer.Add(in_t[j], weights.EdgeCostAt(in_e[j]));
    }
    writer.EndNode(weights.NodeWeight(sg.ToGlobal(local)));
  }
}

void BuildWeightedSubgraph(const graph::Subgraph& sg,
                           const rank::WeightModel& weights,
                           steiner::WeightedGraphBuilder* /*unused*/,
                           steiner::WeightedGraph* out,
                           rank::ConScratch* /*unused*/) {
  BuildWeightedSubgraph(sg, weights, out);
}

Result<RePagerResult> RePaGer::Generate(const std::string& query,
                                        const RePagerOptions& options) const {
  QueryScratch scratch;
  return Generate(query, options, &scratch);
}

Result<RePagerResult> RePaGer::Generate(const std::string& query,
                                        const RePagerOptions& options,
                                        QueryScratch* scratch) const {
  if (query.empty()) return Status::InvalidArgument("empty query");
  if (options.num_initial_seeds <= 0) {
    return Status::InvalidArgument("num_initial_seeds must be positive");
  }
  Timer total_timer;
  RePagerResult result;
  // Pipeline trace: spans land in the scratch's preallocated SpanSet and
  // are copied onto the result at the end. A null trace (tracing
  // switched off at runtime) skips every clock read.
  obs::TraceContext* trace = nullptr;
  if (obs::TracingEnabled()) {
    scratch->trace_.Reset(0);
    trace = &scratch->trace_;
  }
  uint64_t t0 = 0;

  // ---- Step 1: initial seeds from the engine -------------------------
  if (trace) t0 = trace->NowNs();
  auto hits = engine_->Search(query, options.num_initial_seeds,
                              options.year_cutoff, options.exclude,
                              &scratch->search_);
  if (trace) {
    trace->AddSpan(obs::Stage::kSearch, t0, trace->NowNs() - t0,
                   hits.size());
  }
  if (hits.empty()) {
    return Status::NotFound("engine returned no results for: " + query);
  }
  for (const auto& h : hits) result.initial_seeds.push_back(h.doc);

  // ---- Step 3: sub-citation graph over 1st/2nd order neighbors -------
  if (trace) t0 = trace->NowNs();
  KHopNeighborhood(*graph_, result.initial_seeds, options.expansion_hops,
                   options.expansion_direction, &scratch->khop_scratch_,
                   &scratch->khop_);
  if (trace) {
    uint64_t visited = 0;
    for (const auto& level : scratch->khop_.levels) visited += level.size();
    trace->AddSpan(obs::Stage::kKhop, t0, trace->NowNs() - t0, visited);
    t0 = trace->NowNs();
  }
  std::vector<PaperId>& excluded = scratch->excluded_;
  excluded.assign(options.exclude.begin(), options.exclude.end());
  std::sort(excluded.begin(), excluded.end());
  std::vector<PaperId>& candidates = scratch->candidates_;
  candidates.clear();
  for (const auto& level : scratch->khop_.levels) {
    for (PaperId p : level) {
      if ((*years_)[p] <= options.year_cutoff &&
          !std::binary_search(excluded.begin(), excluded.end(), p)) {
        candidates.push_back(p);
      }
    }
  }
  scratch->sg_.Assign(*graph_, candidates, &scratch->sg_scratch_);
  const graph::Subgraph& sg = scratch->sg_;
  result.subgraph_nodes = sg.num_nodes();
  result.subgraph_edges = sg.num_edges();
  if (trace) {
    trace->AddSpan(obs::Stage::kSubgraph, t0, trace->NowNs() - t0,
                   sg.num_nodes());
    t0 = trace->NowNs();
  }

  // ---- Step 4: seed reallocation by co-occurrence --------------------
  // How many distinct initial seeds cite each paper. The terminals come
  // from this count, and Rank() reads it again as citation evidence (a
  // paper referenced by many query-relevant articles is very likely on
  // the survey's reference list).
  std::vector<PaperId>& seed_set = scratch->seed_set_;
  FlatMap<PaperId, int>& cooccurrence = scratch->cooccurrence_;
  CountCoOccurrence(*graph_, result.initial_seeds, &seed_set, &cooccurrence);
  std::vector<PaperId> terminals =
      DeriveTerminals(*graph_, result.initial_seeds, seed_set, cooccurrence,
                      options.seed_mode, options.min_cooccurrence);
  // Terminals must live inside the subgraph (they do by construction for
  // out-expansion, but year cutoffs / exclusions can drop them).
  terminals.erase(std::remove_if(terminals.begin(), terminals.end(),
                                 [&](PaperId p) { return !sg.Contains(p); }),
                  terminals.end());
  if (terminals.empty()) {
    // Empty mode result or degenerate query: fall back to surviving seeds.
    for (PaperId p : result.initial_seeds) {
      if (sg.Contains(p)) terminals.push_back(p);
    }
  }
  if (terminals.empty()) {
    return Status::NotFound("no usable terminals for: " + query);
  }
  result.terminals = terminals;
  std::vector<uint32_t>& local_terminals = scratch->local_terminals_;
  local_terminals.clear();
  for (PaperId t : terminals) local_terminals.push_back(sg.ToLocal(t));
  if (trace) {
    trace->AddSpan(obs::Stage::kSeedRealloc, t0, trace->NowNs() - t0,
                   terminals.size());
  }
  // Without the Steiner step (NEWST-C) the terminals stand in for the
  // tree: the reallocated seed set is the final result, with no path.
  if (options.run_steiner) {
    // ---- Step 5: NEWST over the weighted sub-citation graph ----------
    Timer steiner_timer;
    if (trace) t0 = trace->NowNs();
    BuildWeightedSubgraph(sg, *weights_, &scratch->wg_);
    const steiner::WeightedGraph& wg = scratch->wg_;
    if (trace) {
      trace->AddSpan(obs::Stage::kEdgeCost, t0, trace->NowNs() - t0,
                     wg.num_edges());
      t0 = trace->NowNs();
    }
    RPG_ASSIGN_OR_RETURN(steiner::SteinerResult local_tree,
                         SolveNewst(wg, local_terminals, options.newst,
                                    &scratch->steiner_));
    result.steiner_seconds = steiner_timer.ElapsedSeconds();
    result.steiner_stats = local_tree.stats;
    if (trace) {
      trace->AddSpan(obs::Stage::kSteiner, t0, trace->NowNs() - t0,
                     local_tree.stats.nodes_settled);
      t0 = trace->NowNs();
    }

    // Map back to global ids; ReadingPath sorts and orients.
    steiner::SteinerResult tree;
    tree.total_cost = local_tree.total_cost;
    for (uint32_t v : local_tree.nodes) tree.nodes.push_back(sg.ToGlobal(v));
    for (const auto& [a, b] : local_tree.edges) {
      tree.edges.emplace_back(sg.ToGlobal(a), sg.ToGlobal(b));
    }
    result.path = ReadingPath(tree, *years_);
    if (trace) {
      trace->AddSpan(obs::Stage::kReadingPath, t0, trace->NowNs() - t0,
                     tree.nodes.size());
    }
  }

  if (trace) {
    trace->AttachSteinerStats(result.steiner_stats);
    result.stages = trace->spans();
  }
  result.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

Result<std::vector<PaperId>> RePaGer::Rank(
    const std::string& query, const RePagerOptions& options) const {
  QueryScratch scratch;
  RPG_ASSIGN_OR_RETURN(RePagerResult result,
                       Generate(query, options, &scratch));
  const graph::Subgraph& sg = scratch.sg_;
  const std::vector<PaperId>& seed_set = scratch.seed_set_;
  // One member's sort keys, computed once rather than on every
  // comparison. Evidence is the co-occurrence count, with a bonus for
  // being a direct engine hit (a seed without citation evidence still
  // carries lexical relevance worth roughly one co-citing seed).
  struct RankKey {
    double evidence;
    double importance;
    PaperId id;
    uint8_t block;
  };
  std::vector<RankKey> keys;
  keys.reserve(sg.num_nodes());
  for (uint32_t local = 0; local < sg.num_nodes(); ++local) {
    const PaperId p = sg.ToGlobal(local);
    double evidence = 0.0;
    if (const int* count = scratch.cooccurrence_.Find(p)) {
      evidence += static_cast<double>(*count);
    }
    if (std::binary_search(seed_set.begin(), seed_set.end(), p)) {
      evidence += 1.2;
    }
    keys.push_back({evidence, Importance(p), p, 2});
  }
  // Steiner-tree papers first (block 0; the terminals under NEWST-C),
  // then the remaining engine seeds (1), then the rest of the sub-graph
  // (2); every block ordered by citation evidence. The tree-first
  // property is what the Table III ablations measure: a different
  // terminal set / weight scheme yields a different tree, and hence a
  // different top of the list. The tree is marked last, so a tree node
  // that is also a seed ranks with the tree.
  for (PaperId seed : result.initial_seeds) {
    if (sg.Contains(seed)) keys[sg.ToLocal(seed)].block = 1;
  }
  for (PaperId p : options.run_steiner ? result.path.nodes()
                                       : result.terminals) {
    keys[sg.ToLocal(p)].block = 0;
  }
  std::sort(keys.begin(), keys.end(), [](const RankKey& a, const RankKey& b) {
    if (a.block != b.block) return a.block < b.block;
    if (a.evidence != b.evidence) return a.evidence > b.evidence;
    if (a.importance != b.importance) return a.importance > b.importance;
    return a.id < b.id;
  });
  std::vector<PaperId> ranked;
  ranked.reserve(keys.size());
  for (const RankKey& key : keys) ranked.push_back(key.id);
  return ranked;
}

}  // namespace rpg::core
