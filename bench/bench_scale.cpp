// Scale sweep for the snapshot subsystem (docs/snapshot.md): for each
// corpus size in the sweep, build the full serving substrate from
// scratch (corpus generation + indexing + PageRank — the cold-boot path
// a snapshotless server pays), serialize it with WriteSnapshot, then
// boot a second, independent substrate from the file with
// ServingState::Load. Records build time, serialize time, snapshot
// size, load time, the headline build/load speedup, process RSS before
// and after the mmap-backed load, and reading-path query latency on the
// loaded substrate — after proving, query by query, that the loaded
// substrate answers bit-identically to the freshly built one (the same
// invariant tests/snapshot/ enforces at test scale; here it gates the
// bench's own numbers, so BENCH_scale.json can never report a fast
// loader that serves different paths).
//
// Writes one row per sweep point to BENCH_scale.json; the headline is
// the load speedup at the largest point (acceptance: >= 10x at 1e5
// papers — measured 36-41x on a 4-vCPU VM, since loading is dominated
// by the CSR transpose + checksum walk while rebuilding pays corpus
// generation, tokenization, indexing, embedding, and PageRank again).
//
// Scale knobs (env):
//   RPG_SCALE_SWEEP    comma-separated paper counts (default "20000,100000")
//   RPG_SCALE_QUERIES  reading-path queries per point   (default 25)
//   RPG_SCALE_SEED     corpus seed                      (default 42)
//   RPG_SCALE_RELABEL  1 = also write/load a BFS-relabeled snapshot

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/json_writer.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "eval/evaluator.h"
#include "eval/workbench.h"
#include "snapshot/serving_state.h"
#include "snapshot/snapshot_writer.h"
#include "synth/corpus_generator.h"

namespace {

using namespace rpg;

size_t EnvSize(const char* name, size_t fallback) {
  if (const char* v = std::getenv(name)) {
    return static_cast<size_t>(std::strtoull(v, nullptr, 10));
  }
  return fallback;
}

std::vector<size_t> ScaleSweep() {
  const char* sweep = std::getenv("RPG_SCALE_SWEEP");
  std::vector<size_t> sizes;
  for (const std::string& part : Split(sweep ? sweep : "20000,100000", ',')) {
    size_t n = static_cast<size_t>(std::strtoull(part.c_str(), nullptr, 10));
    if (n > 0) sizes.push_back(n);
  }
  if (sizes.empty()) sizes = {20000};
  return sizes;
}

/// Current process RSS in MiB from /proc/self/status (0 if unreadable).
double RssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct Percentiles {
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, max = 0.0;
  size_t count = 0;
};

Percentiles ComputePercentiles(std::vector<double> samples_ms) {
  Percentiles p;
  p.count = samples_ms.size();
  if (samples_ms.empty()) return p;
  std::sort(samples_ms.begin(), samples_ms.end());
  auto at = [&](double q) {
    size_t i = static_cast<size_t>(q * static_cast<double>(samples_ms.size()));
    return samples_ms[std::min(i, samples_ms.size() - 1)];
  };
  p.p50 = at(0.50);
  p.p90 = at(0.90);
  p.p99 = at(0.99);
  p.max = samples_ms.back();
  return p;
}

void WritePercentiles(JsonWriter& w, const Percentiles& p) {
  w.BeginObject();
  w.Key("count").UInt(p.count);
  w.Key("p50_ms").Double(p.p50);
  w.Key("p90_ms").Double(p.p90);
  w.Key("p99_ms").Double(p.p99);
  w.Key("max_ms").Double(p.max);
  w.EndObject();
}

struct ScalePoint {
  size_t target = 0;
  size_t num_papers = 0;
  size_t num_edges = 0;
  double build_seconds = 0.0;
  double write_seconds = 0.0;
  size_t snapshot_bytes = 0;
  double load_seconds = 0.0;
  double relabel_load_seconds = 0.0;  ///< 0 when RPG_SCALE_RELABEL is off
  double load_speedup = 0.0;
  double rss_before_load_mib = 0.0;
  double rss_after_queries_mib = 0.0;
  size_t queries = 0;
  size_t identical = 0;
  Percentiles latency;
};

}  // namespace

int main() {
  const std::vector<size_t> sweep = ScaleSweep();
  const size_t num_queries = EnvSize("RPG_SCALE_QUERIES", 25);
  const uint64_t seed = EnvSize("RPG_SCALE_SEED", 42);
  const bool relabel_too = EnvSize("RPG_SCALE_RELABEL", 0) != 0;

  std::vector<ScalePoint> points;
  size_t mismatches = 0;
  for (size_t target : sweep) {
    ScalePoint point;
    point.target = target;

    // The cold-boot path: everything a server without a snapshot pays.
    eval::WorkbenchOptions options;
    options.corpus = synth::ScaledCorpusOptions(target, seed);
    Timer build_timer;
    auto wb_or = eval::Workbench::Create(options);
    if (!wb_or.ok()) {
      std::fprintf(stderr, "workbench (%zu papers): %s\n", target,
                   wb_or.status().ToString().c_str());
      return 1;
    }
    point.build_seconds = build_timer.ElapsedSeconds();
    auto& wb = *wb_or.value();
    point.num_papers = wb.corpus().num_papers();
    point.num_edges = wb.corpus().citations.num_edges();

    snapshot::SnapshotInput input;
    input.graph = &wb.corpus().citations;
    input.titles = &wb.titles();
    input.years = &wb.years();
    input.pagerank = &wb.pagerank();
    input.venue_scores = &wb.venue_scores();
    input.engine = &wb.google();
    input.corpus_seed = options.corpus.seed;

    const std::string path =
        "bench_scale_" + std::to_string(target) + ".snap";
    Timer write_timer;
    Status write_status = snapshot::WriteSnapshot(input, path);
    if (!write_status.ok()) {
      std::fprintf(stderr, "write: %s\n", write_status.ToString().c_str());
      return 1;
    }
    point.write_seconds = write_timer.ElapsedSeconds();
    {
      std::ifstream is(path, std::ios::binary | std::ios::ate);
      point.snapshot_bytes = static_cast<size_t>(is.tellg());
    }

    // The warm-boot path under measurement.
    point.rss_before_load_mib = RssMib();
    Timer load_timer;
    auto state_or = snapshot::ServingState::Load(path);
    if (!state_or.ok()) {
      std::fprintf(stderr, "load: %s\n", state_or.status().ToString().c_str());
      return 1;
    }
    point.load_seconds = load_timer.ElapsedSeconds();
    point.load_speedup =
        point.load_seconds > 0 ? point.build_seconds / point.load_seconds : 0;
    auto& state = *state_or.value();

    // Differential gate + latency sample: every query must come back
    // bit-identical from the loaded substrate before its timing counts.
    std::vector<size_t> sample =
        eval::Evaluator::SampleEntries(wb.bank(), num_queries, 1234);
    std::vector<double> latencies_ms;
    for (size_t idx : sample) {
      const std::string& query = wb.bank().Get(idx).query;
      auto rebuilt = wb.repager().Generate(query);
      Timer query_timer;
      auto loaded = state.repager().Generate(query);
      double ms = query_timer.ElapsedMillis();
      if (rebuilt.ok() != loaded.ok()) continue;
      ++point.queries;
      if (!rebuilt.ok() ||
          bench::SameAnswer(rebuilt.value(), loaded.value())) {
        ++point.identical;
      }
      if (loaded.ok()) latencies_ms.push_back(ms);
    }
    mismatches += point.queries - point.identical;
    point.latency = ComputePercentiles(latencies_ms);
    point.rss_after_queries_mib = RssMib();

    if (relabel_too) {
      snapshot::SnapshotWriterOptions wopts;
      wopts.relabel = true;
      const std::string relabel_path = path + ".relabel";
      Status st = snapshot::WriteSnapshot(input, relabel_path, wopts);
      if (st.ok()) {
        Timer relabel_timer;
        auto relabeled = snapshot::ServingState::Load(relabel_path);
        if (relabeled.ok()) {
          point.relabel_load_seconds = relabel_timer.ElapsedSeconds();
        }
        std::remove(relabel_path.c_str());
      }
    }
    std::remove(path.c_str());
    points.push_back(point);

    std::printf("%8zu papers: build %.2fs, write %.2fs (%.1f MiB), "
                "load %.3fs -> %.0fx, %zu/%zu queries identical, "
                "query p50 %.2f ms\n",
                point.num_papers, point.build_seconds, point.write_seconds,
                static_cast<double>(point.snapshot_bytes) / (1024.0 * 1024.0),
                point.load_seconds, point.load_speedup, point.identical,
                point.queries, point.latency.p50);
  }

  TablePrinter table({"papers", "edges", "build s", "write s", "snap MiB",
                      "load s", "speedup", "q p50 ms", "RSS MiB"});
  for (const ScalePoint& p : points) {
    table.AddRow({std::to_string(p.num_papers), std::to_string(p.num_edges),
                  FormatDouble(p.build_seconds, 2),
                  FormatDouble(p.write_seconds, 2),
                  FormatDouble(static_cast<double>(p.snapshot_bytes) /
                                   (1024.0 * 1024.0), 1),
                  FormatDouble(p.load_seconds, 3),
                  FormatDouble(p.load_speedup, 0),
                  FormatDouble(p.latency.p50, 2),
                  FormatDouble(p.rss_after_queries_mib, 0)});
  }
  table.Print(std::cout);
  const ScalePoint& head = points.back();
  std::printf("snapshot load at %zu papers: %.0fx faster than rebuild "
              "(%.2fs -> %.3fs)\n",
              head.num_papers, head.load_speedup, head.build_seconds,
              head.load_seconds);

  JsonWriter json;
  json.BeginObject();
  json.Key("config").BeginObject();
  json.Key("sweep").BeginArray();
  for (size_t n : sweep) json.UInt(n);
  json.EndArray();
  json.Key("queries_per_point").UInt(num_queries);
  json.Key("corpus_seed").UInt(seed);
  json.Key("relabel_measured").Bool(relabel_too);
  json.EndObject();
  json.Key("sweep").BeginArray();
  for (const ScalePoint& p : points) {
    json.BeginObject();
    json.Key("target_papers").UInt(p.target);
    json.Key("num_papers").UInt(p.num_papers);
    json.Key("num_edges").UInt(p.num_edges);
    json.Key("build_seconds").Double(p.build_seconds);
    json.Key("snapshot_write_seconds").Double(p.write_seconds);
    json.Key("snapshot_bytes").UInt(p.snapshot_bytes);
    json.Key("snapshot_load_seconds").Double(p.load_seconds);
    if (relabel_too) {
      json.Key("relabel_load_seconds").Double(p.relabel_load_seconds);
    }
    json.Key("load_speedup").Double(p.load_speedup);
    json.Key("rss_before_load_mib").Double(p.rss_before_load_mib);
    json.Key("rss_after_queries_mib").Double(p.rss_after_queries_mib);
    json.Key("queries").UInt(p.queries);
    json.Key("identical").UInt(p.identical);
    json.Key("query_latency");
    WritePercentiles(json, p.latency);
    json.EndObject();
  }
  json.EndArray();
  json.Key("headline").BeginObject();
  json.Key("papers").UInt(head.num_papers);
  json.Key("load_speedup").Double(head.load_speedup);
  json.Key("all_queries_identical").Bool(mismatches == 0);
  json.EndObject();
  json.EndObject();

  std::ofstream out("BENCH_scale.json");
  out << json.str() << "\n";
  out.close();
  std::printf("wrote BENCH_scale.json\n");

  // A fast loader that serves different paths is a broken loader: the
  // differential gate is part of the bench's exit status.
  if (mismatches > 0) {
    std::fprintf(stderr, "FAILED: %zu loaded-vs-rebuilt mismatches\n",
                 mismatches);
    return 1;
  }
  return 0;
}
