#ifndef RPG_BENCH_BENCH_COMMON_H_
#define RPG_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/repager.h"
#include "eval/workbench.h"

namespace rpg::bench {

/// Evaluation scale knobs shared by all bench binaries. Override with
/// environment variables for bigger (slower, smoother) runs:
///   RPG_EVAL_QUERIES  — evaluation queries sampled from SurveyBank
///   RPG_CORPUS_SEED   — corpus seed
struct BenchConfig {
  size_t eval_queries = 60;
  uint64_t corpus_seed = 42;
  uint64_t sample_seed = 1234;
};

inline BenchConfig LoadBenchConfig() {
  BenchConfig config;
  if (const char* v = std::getenv("RPG_EVAL_QUERIES")) {
    config.eval_queries = static_cast<size_t>(std::strtoull(v, nullptr, 10));
  }
  if (const char* v = std::getenv("RPG_CORPUS_SEED")) {
    config.corpus_seed = std::strtoull(v, nullptr, 10);
  }
  return config;
}

/// Builds the standard workbench, aborting the bench on failure.
inline std::unique_ptr<eval::Workbench> BuildWorkbenchOrDie(
    const BenchConfig& config) {
  eval::WorkbenchOptions options;
  options.corpus.seed = config.corpus_seed;
  auto wb_or = eval::Workbench::Create(options);
  if (!wb_or.ok()) {
    std::fprintf(stderr, "workbench build failed: %s\n",
                 wb_or.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(wb_or).value();
}

/// Whether two Generate results give the same answer: reading path,
/// seeds, terminals and subgraph counts (timings and solver counters
/// aside).
inline bool SameAnswer(const core::RePagerResult& a,
                       const core::RePagerResult& b) {
  return a.path.nodes() == b.path.nodes() &&
         a.path.edges() == b.path.edges() &&
         a.initial_seeds == b.initial_seeds && a.terminals == b.terminals &&
         a.subgraph_nodes == b.subgraph_nodes &&
         a.subgraph_edges == b.subgraph_edges;
}

}  // namespace rpg::bench

#endif  // RPG_BENCH_BENCH_COMMON_H_
