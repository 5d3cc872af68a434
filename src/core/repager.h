#ifndef RPG_CORE_REPAGER_H_
#define RPG_CORE_REPAGER_H_

/// \file
/// The RePaGer pipeline (§IV-A of the paper): free-text query -> engine
/// seed retrieval -> KHop sub-citation graph -> seed reallocation ->
/// NEWST Steiner tree -> reading path. Rank() orders the candidates of
/// one Generate run for the top-K evaluation; serving never calls it.
///
/// Ownership / thread-safety model:
///  - RePaGer holds const pointers to a CitationGraph, SearchEngine,
///    WeightModel and years array; all four are immutable after
///    construction and must outlive the RePaGer. One RePaGer can serve
///    any number of threads concurrently.
///  - Generate() is const and touches only shared immutable state plus
///    its own locals — EXCEPT the explicit-scratch overload, whose
///    QueryScratch is the per-call mutable state. Give each concurrent
///    caller its own QueryScratch (each core::SolverPool solver thread
///    keeps one for its life, and a BatchEngine solves on its own pool);
///    never share a scratch between threads.
///  - The scratch-free Generate() is a thin wrapper that builds a fresh
///    QueryScratch per call. Results are bit-identical either way; the
///    scratch exists purely so serving can amortize the per-query
///    allocations (KHop visit map, the subgraph's dense ToLocal array,
///    CSR arrays, the Steiner solve's arrays), which would otherwise
///    cost as much as the Steiner solve itself.

#include <memory>
#include <string>
#include <vector>

#include "common/flat_hash.h"
#include "common/result.h"
#include "core/reading_path.h"
#include "obs/trace.h"
#include "core/seed_reallocator.h"
#include "graph/citation_graph.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "rank/weight_model.h"
#include "search/search_engine.h"
#include "steiner/newst.h"

namespace rpg::core {

/// Pipeline configuration. Defaults are the paper's experimental setting.
struct RePagerOptions {
  /// Top-K articles fetched from the engine as initial seeds (§VI-A: 30).
  int num_initial_seeds = 30;
  /// Expansion depth for the sub-citation graph (§IV-A step 3: 1st and
  /// 2nd order neighbors).
  int expansion_hops = 2;
  /// Expansion follows references (out-edges), the direction Observation
  /// II explores; kUndirected additionally pulls in citing papers.
  graph::Direction expansion_direction = graph::Direction::kOut;
  /// Minimum number of distinct seeds citing a paper for it to become a
  /// reallocated seed.
  int min_cooccurrence = 2;
  /// Terminal-set construction (Table III left ablation).
  SeedMode seed_mode = SeedMode::kReallocated;
  /// When false, skip the Steiner step entirely and return the seed set
  /// as the result (the NEWST-C ablation).
  bool run_steiner = true;
  /// Steiner variant switches (Table III right ablation: -N / -E).
  steiner::NewstOptions newst;
  /// Only consider papers published in or before this year (the paper
  /// restricts search to "anytime .. survey publication year").
  int year_cutoff = INT32_MAX;
  /// Doc ids the engine must not return (e.g. the queried survey).
  std::vector<graph::PaperId> exclude;
};

/// Everything RePaGer produces for one query.
struct RePagerResult {
  ReadingPath path;
  std::vector<graph::PaperId> initial_seeds;
  std::vector<graph::PaperId> terminals;
  size_t subgraph_nodes = 0;
  size_t subgraph_edges = 0;
  double steiner_seconds = 0.0;
  double total_seconds = 0.0;
  /// Work counters from the NEWST run (zeros when run_steiner is false).
  steiner::SteinerStats steiner_stats;
  /// Per-stage spans of this Generate run (obs::kPipelineStages order,
  /// clocked from the call's start). Empty when tracing is switched off
  /// at runtime. Cached with the result, so cache hits still
  /// attribute their original compute time.
  obs::SpanSet stages;
};

/// Reusable per-query working memory for RePaGer::Generate: the engine's
/// BM25 accumulator and hit list, the KHop visit map and frontier levels,
/// the subgraph's dense ToLocal array and CSR arrays, the weighted
/// graph's CSR arrays, the NEWST solve's arrays (steiner::SteinerScratch),
/// and the co-occurrence count. After the first query everything
/// here is warm, so subsequent Generate calls make almost no allocations
/// outside the returned RePagerResult.
///
/// One scratch per thread: each core::SolverPool solver thread owns one
/// for its whole life (a BatchEngine solves on its own pool). The
/// scratch carries no query state between calls — results are
/// bit-identical with a fresh or a reused scratch — and refers to no
/// graph between calls, so it may outlive the epoch it last solved on.
class QueryScratch {
 public:
  QueryScratch() = default;
  QueryScratch(const QueryScratch&) = delete;
  QueryScratch& operator=(const QueryScratch&) = delete;

 private:
  friend class RePaGer;
  /// Preallocated span storage for the pipeline trace: Generate records
  /// stage spans here (allocation-free after warm-up) and copies the
  /// SpanSet onto the result. Reset at the start of every traced call.
  obs::TraceContext trace_;
  search::SearchScratch search_;
  graph::TraversalScratch khop_scratch_;
  graph::KHopResult khop_;
  graph::SubgraphScratch sg_scratch_;
  graph::Subgraph sg_;
  steiner::WeightedGraph wg_;
  steiner::SteinerScratch steiner_;
  std::vector<graph::PaperId> candidates_;
  std::vector<uint32_t> local_terminals_;
  /// Sorted copies of RePagerOptions::exclude and of the distinct
  /// initial seeds, for binary-search membership.
  std::vector<graph::PaperId> excluded_;
  std::vector<graph::PaperId> seed_set_;
  FlatMap<graph::PaperId, int> cooccurrence_;
};

/// The RePaGer system (§IV-A): seed retrieval -> weighted citation graph
/// -> sub-graph -> seed reallocation -> NEWST -> reading path.
///
/// The engine's document ids must coincide with the citation graph's
/// paper ids (both are built over the same corpus).
class RePaGer {
 public:
  /// All pointers must outlive the RePaGer. `years` orders reading
  /// direction and enforces year cutoffs.
  RePaGer(const graph::CitationGraph* graph,
          const search::SearchEngine* engine,
          const rank::WeightModel* weights,
          const std::vector<uint16_t>* years);

  /// Runs the full pipeline for a free-text query.
  Result<RePagerResult> Generate(const std::string& query,
                                 const RePagerOptions& options = {}) const;

  /// Scratch-reusing variant: identical results, but per-query working
  /// memory lives in `scratch` and is recycled across calls. `scratch`
  /// must not be shared between concurrent callers.
  Result<RePagerResult> Generate(const std::string& query,
                                 const RePagerOptions& options,
                                 QueryScratch* scratch) const;

  /// The candidate list the top-K evaluation truncates at K: every
  /// subgraph member of one Generate(query, options) run, tree papers
  /// first, then the other seeds, then the rest. Fails as Generate does.
  Result<std::vector<graph::PaperId>> Rank(const std::string& query,
                                           const RePagerOptions& options) const;

  /// Importance used for ranking: a * pgscore + b * venue — the inverse
  /// of the node-weight denominator, exposed for baselines/tests.
  double Importance(graph::PaperId p) const;

 private:
  const graph::CitationGraph* graph_;
  const search::SearchEngine* engine_;
  const rank::WeightModel* weights_;
  const std::vector<uint16_t>* years_;
};

/// Builds the node-and-edge weighted Steiner input over a subgraph
/// (shared by RePaGer and the runtime benchmarks): node weights from
/// Eq. (3), undirected edges with Eq. (2) costs.
steiner::WeightedGraph BuildWeightedSubgraph(const graph::Subgraph& sg,
                                             const rank::WeightModel& weights);

/// Same, writing into `*out` and reusing its array capacity. Each node's
/// span merges its sorted out- and in-spans; an edge's cost is one read
/// of the weight model's con table, keyed by the subgraph's recorded
/// edge id.
void BuildWeightedSubgraph(const graph::Subgraph& sg,
                           const rank::WeightModel& weights,
                           steiner::WeightedGraph* out);

/// Forwards to the overload above; the builder and the last parameter
/// are ignored. Kept only for callers that still pass them.
void BuildWeightedSubgraph(const graph::Subgraph& sg,
                           const rank::WeightModel& weights,
                           steiner::WeightedGraphBuilder* /*unused*/,
                           steiner::WeightedGraph* out,
                           rank::ConScratch* /*unused*/ = nullptr);

}  // namespace rpg::core

#endif  // RPG_CORE_REPAGER_H_
