// Offline snapshot builder: generates the synthetic corpus at a chosen
// scale, builds the serving substrate (graph, search index, PageRank,
// weight-model inputs), and serializes it into one mmap-loadable
// snapshot file (docs/snapshot.md). The §VI-A baseline's embeddings are
// not written: no serving stage reads them. Pay the multi-second build
// cost once here; `serve_ui --snapshot=FILE` then boots in milliseconds.
//
// Usage: snapshot_build [--out=FILE] [--papers=N] [--seed=S] [--relabel]
//   --out=FILE   output path (default corpus.snap)
//   --papers=N   target corpus size via the scale axis (default 0 =
//                the standard ~27k-paper corpus options)
//   --seed=S     corpus generator seed (default 42)
//   --relabel    renumber papers in BFS order from high-in-degree roots
//                (cache-friendly layout; kIdMap maps ids back)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/timer.h"
#include "eval/workbench.h"
#include "snapshot/snapshot_writer.h"

namespace {

bool ParseLongFlag(const char* arg, const char* name, long* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = std::strtol(arg + len + 1, nullptr, 10);
  return true;
}

bool ParseStringFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rpg;
  std::string out_path = "corpus.snap";
  long papers = 0, seed = 42;
  bool relabel = false;
  for (int i = 1; i < argc; ++i) {
    if (ParseStringFlag(argv[i], "--out", &out_path) ||
        ParseLongFlag(argv[i], "--papers", &papers) ||
        ParseLongFlag(argv[i], "--seed", &seed)) {
      continue;
    }
    if (std::strcmp(argv[i], "--relabel") == 0) {
      relabel = true;
      continue;
    }
    std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
    return 2;
  }

  eval::WorkbenchOptions options;
  options.corpus.seed = static_cast<uint64_t>(seed);
  if (papers > 0) {
    options.corpus = synth::ScaledCorpusOptions(
        static_cast<uint64_t>(papers), static_cast<uint64_t>(seed));
  }

  Timer build_watch;
  auto wb_or = eval::Workbench::Create(options);
  if (!wb_or.ok()) {
    std::fprintf(stderr, "workbench: %s\n", wb_or.status().ToString().c_str());
    return 1;
  }
  const eval::Workbench& wb = *wb_or.value();
  const double build_s = build_watch.ElapsedSeconds();

  snapshot::SnapshotInput input;
  input.graph = &wb.corpus().citations;
  input.titles = &wb.titles();
  input.years = &wb.years();
  input.pagerank = &wb.pagerank();
  input.venue_scores = &wb.venue_scores();
  input.engine = &wb.google();
  input.params = options.params;
  input.corpus_seed = options.corpus.seed;

  snapshot::SnapshotWriterOptions writer_options;
  writer_options.relabel = relabel;

  Timer write_watch;
  Status status = snapshot::WriteSnapshot(input, out_path, writer_options);
  if (!status.ok()) {
    std::fprintf(stderr, "write: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf(
      "wrote %s: %zu papers, %zu edges%s (build %.2fs, serialize %.2fs)\n",
      out_path.c_str(), wb.corpus().citations.num_nodes(),
      wb.corpus().citations.num_edges(), relabel ? ", relabeled" : "",
      build_s, write_watch.ElapsedSeconds());
  return 0;
}
