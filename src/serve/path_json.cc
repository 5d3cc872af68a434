#include "serve/path_json.h"

#include <algorithm>
#include <memory>

#include "common/json_writer.h"

namespace rpg::serve {

namespace {

/// `"nodes":[..],"edges":[..],"reading_order":[..]` for `result`, read
/// from the epoch that computed it (an old-epoch result keeps its own
/// titles, years and importances after a flip).
std::string RenderPathFragment(const core::RePagerResult& result,
                               const Epoch& epoch) {
  const core::RePaGer& repager = epoch.repager();
  const std::vector<std::string>& titles = *epoch.titles();
  const std::vector<uint16_t>& years = *epoch.years();
  const std::vector<graph::PaperId>& seeds = result.initial_seeds;
  // The members go at the writer's top level: the fragment has no braces.
  JsonWriter w;
  w.Key("nodes").BeginArray();
  for (graph::PaperId p : result.path.nodes()) {
    w.BeginObject();
    w.Key("id").UInt(p);
    w.Key("title").String(titles[p]);
    w.Key("year").Int(years[p]);
    // Node-weight legend: a * pgscore + b * venue, higher = more
    // important in the whole reading path (§V panel e).
    w.Key("importance").Double(repager.Importance(p));
    // Green vs gray marking of Fig. 9: was the paper in the engine's
    // initial top-K (a few dozen ids), or surfaced by citation analysis?
    w.Key("from_engine")
        .Bool(std::find(seeds.begin(), seeds.end(), p) != seeds.end());
    w.EndObject();
  }
  w.EndArray();
  w.Key("edges").BeginArray();
  for (const auto& [first, next] : result.path.edges()) {
    w.BeginObject();
    w.Key("read_first").UInt(first);
    w.Key("read_next").UInt(next);
    w.EndObject();
  }
  w.EndArray();
  // Navigation bar (§V panel b): the flattened reading order.
  w.Key("reading_order").BeginArray();
  for (graph::PaperId p : result.path.FlattenedOrder(years)) w.UInt(p);
  w.EndArray();
  // Stored in the cache, whose byte budget charges capacity: copy the
  // bytes out at their exact size rather than keep the grown buffer.
  return std::string(w.str());
}

}  // namespace

CachedResult RenderResult(const core::RePagerResult& result,
                          const Epoch& epoch) {
  return std::make_shared<const RenderedResult>(RenderedResult{
      .subgraph_nodes = result.subgraph_nodes,
      .subgraph_edges = result.subgraph_edges,
      .total_seconds = result.total_seconds,
      .stages = result.stages,
      .steiner_stats = result.steiner_stats,
      .path_json = RenderPathFragment(result, epoch)});
}

std::string RenderPathJson(const std::string& query,
                           const ServeResponse& response, bool debug,
                           const obs::TraceContext* trace) {
  const RenderedResult& result = *response.result;
  JsonWriter w;
  w.BeginObject();
  w.Key("query").String(query);
  w.Key("subgraph_nodes").UInt(result.subgraph_nodes);
  w.Key("subgraph_edges").UInt(result.subgraph_edges);
  // Original pipeline compute time (a property of the cached result) vs
  // what this request actually waited inside the serving layer.
  w.Key("seconds").Double(result.total_seconds);
  w.Key("serve_seconds").Double(response.e2e_seconds);
  w.Key("cache_hit").Bool(response.cache_hit);
  w.RawMembers(result.path_json);
  if (debug) {
    // Stage breakdown of the result's own solve (cached results keep the
    // attribution of their original computation) plus, when this request
    // carried a trace, the raw request-scoped spans.
    w.Key("debug").BeginObject();
    w.Key("stages").BeginObject();
    for (obs::Stage stage : obs::kPipelineStages) {
      w.Key(obs::StageName(stage)).Double(result.stages.StageMs(stage));
    }
    w.EndObject();
    w.Key("stage_total_ms").Double(result.stages.TotalMs());
    w.Key("pipeline_total_ms").Double(result.total_seconds * 1e3);
    w.Key("steiner").BeginObject();
    w.Key("nodes_settled").UInt(result.steiner_stats.nodes_settled);
    w.Key("heap_pushes").UInt(result.steiner_stats.heap_pushes);
    w.Key("closure_edges").UInt(result.steiner_stats.closure_edges);
    w.Key("dijkstra_runs").UInt(result.steiner_stats.dijkstra_runs);
    w.Key("closure_seconds").Double(result.steiner_stats.closure_seconds);
    w.EndObject();
    if (trace != nullptr) {
      w.Key("trace").BeginObject();
      w.Key("request_id").UInt(trace->request_id());
      w.Key("query_key").String(trace->query_key());
      w.Key("spans");
      obs::AppendSpansJson(trace->spans(), &w);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndObject();
  return w.Release();
}

}  // namespace rpg::serve
