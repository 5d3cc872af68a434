#include "obs/trace.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/json_writer.h"
#include "common/logging.h"

namespace rpg::obs {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kSearch:
      return "search";
    case Stage::kKhop:
      return "khop";
    case Stage::kSubgraph:
      return "subgraph";
    case Stage::kSeedRealloc:
      return "seed_realloc";
    case Stage::kEdgeCost:
      return "edge_cost";
    case Stage::kSteiner:
      return "steiner";
    case Stage::kReadingPath:
      return "reading_path";
    case Stage::kCacheLookup:
      return "cache_lookup";
    case Stage::kSingleFlightWait:
      return "singleflight_wait";
    case Stage::kBatchQueue:
      return "batch_queue";
    case Stage::kSolve:
      return "solve";
  }
  return "unknown";
}

namespace {

bool InitialTracingEnabled() {
  const char* env = std::getenv("RPG_TRACING");
  if (env == nullptr) return true;
  return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
           std::strcmp(env, "OFF") == 0 || std::strcmp(env, "false") == 0 ||
           std::strcmp(env, "FALSE") == 0);
}

std::atomic<bool>& TracingFlag() {
  static std::atomic<bool> enabled{InitialTracingEnabled()};
  return enabled;
}

}  // namespace

bool TracingEnabled() {
  return TracingFlag().load(std::memory_order_relaxed);
}

void SetTracingEnabled(bool enabled) {
  TracingFlag().store(enabled, std::memory_order_relaxed);
}

double SpanSet::StageMs(Stage stage) const {
  uint64_t ns = 0;
  for (uint32_t i = 0; i < count; ++i) {
    if (spans[i].stage == stage) ns += spans[i].dur_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

double SpanSet::TotalMs() const {
  uint64_t ns = 0;
  for (uint32_t i = 0; i < count; ++i) ns += spans[i].dur_ns;
  return static_cast<double>(ns) / 1e6;
}

uint64_t TraceContext::NextRequestId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void TraceContext::Reset(uint64_t request_id) {
  spans_.Clear();
  origin_ = Clock::now();
  request_id_ = request_id;
  query_key_.clear();
  has_steiner_ = false;
}

uint64_t TraceContext::NowNs() const {
  auto d = Clock::now() - origin_;
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  return ns < 0 ? 0 : static_cast<uint64_t>(ns);
}

void TraceContext::AddSpanBetween(Stage stage, Clock::time_point start,
                                  Clock::time_point end, uint64_t value) {
  auto rel = [this](Clock::time_point t) -> uint64_t {
    auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count();
    return ns < 0 ? 0 : static_cast<uint64_t>(ns);
  };
  uint64_t s = rel(start);
  uint64_t e = rel(end);
  spans_.Add(stage, s, e > s ? e - s : 0, value);
}

void TraceContext::AppendRebased(const SpanSet& set, uint64_t base_ns) {
  for (uint32_t i = 0; i < set.count; ++i) {
    const SpanRecord& r = set.spans[i];
    spans_.Add(r.stage, base_ns + r.start_ns, r.dur_ns, r.value);
  }
  spans_.dropped += set.dropped;
}

void AppendSpansJson(const SpanSet& set, JsonWriter* w) {
  w->BeginArray();
  for (uint32_t i = 0; i < set.count; ++i) {
    const SpanRecord& r = set.spans[i];
    w->BeginObject();
    w->Key("stage").String(StageName(r.stage));
    w->Key("start_ms").Double(static_cast<double>(r.start_ns) / 1e6);
    w->Key("dur_ms").Double(static_cast<double>(r.dur_ns) / 1e6);
    w->Key("value").UInt(r.value);
    w->EndObject();
  }
  w->EndArray();
}

std::string SlowQueryLogLine(const TraceContext& trace, double total_ms,
                             double threshold_ms) {
  JsonWriter w;
  w.BeginObject();
  w.Key("slow_query").BeginObject();
  w.Key("request_id").UInt(trace.request_id());
  w.Key("query_key").String(trace.query_key());
  w.Key("total_ms").Double(total_ms);
  w.Key("threshold_ms").Double(threshold_ms);
  w.Key("spans");
  AppendSpansJson(trace.spans(), &w);
  if (trace.has_steiner_stats()) {
    const steiner::SteinerStats& s = trace.steiner_stats();
    w.Key("steiner").BeginObject();
    w.Key("nodes_settled").UInt(s.nodes_settled);
    w.Key("heap_pushes").UInt(s.heap_pushes);
    w.Key("closure_edges").UInt(s.closure_edges);
    w.Key("dijkstra_runs").UInt(s.dijkstra_runs);
    w.Key("closure_seconds").Double(s.closure_seconds);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

void EmitSlowQueryLog(const TraceContext& trace, double total_ms,
                      double threshold_ms) {
  internal::WriteLogLine(SlowQueryLogLine(trace, total_ms, threshold_ms));
}

}  // namespace rpg::obs
