// Path visualization: generate reading paths for several queries and
// export them as Graphviz DOT + JSON files (the artifacts the RePaGer web
// UI of §V renders). Also demonstrates the ablation switches.
//
// Usage: path_visualization [output_dir]

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "core/repager.h"
#include "eval/workbench.h"

namespace {

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream os(path);
  if (!os) return false;
  os << content;
  return static_cast<bool>(os);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rpg;
  std::string out_dir = argc > 1 ? argv[1] : "paths_out";
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  auto wb_or = eval::Workbench::Create();
  if (!wb_or.ok()) {
    std::fprintf(stderr, "workbench: %s\n", wb_or.status().ToString().c_str());
    return 1;
  }
  const eval::Workbench& wb = *wb_or.value();

  // Three recent, well-connected queries from different surveys.
  std::vector<size_t> picks;
  for (size_t candidate : wb.bank().HighScoreSubset(100)) {
    if (wb.bank().Get(candidate).year >= 2012) picks.push_back(candidate);
    if (picks.size() == 3) break;
  }
  if (picks.empty()) picks = wb.bank().HighScoreSubset(3);

  int file_index = 0;
  for (size_t index : picks) {
    const auto& entry = wb.bank().Get(index);
    core::RePagerOptions options;
    options.year_cutoff = entry.year;
    options.exclude = {entry.paper};
    auto result_or = wb.repager().Generate(entry.query, options);
    if (!result_or.ok()) {
      std::fprintf(stderr, "skip \"%s\": %s\n", entry.query.c_str(),
                   result_or.status().ToString().c_str());
      continue;
    }
    const core::RePagerResult& result = result_or.value();
    std::unordered_set<graph::PaperId> seeds(result.initial_seeds.begin(),
                                             result.initial_seeds.end());
    std::unordered_set<graph::PaperId> added;
    for (graph::PaperId p : result.path.nodes()) {
      if (!seeds.contains(p)) added.insert(p);
    }
    std::string base = out_dir + "/path_" + std::to_string(file_index++);
    bool ok = WriteFile(base + ".dot",
                        result.path.ToDot(wb.paper_info(), added)) &&
              WriteFile(base + ".json", result.path.ToJson(wb.paper_info()));
    std::printf("%s query \"%s\": %zu papers, %zu edges -> %s.{dot,json}\n",
                ok ? "ok " : "FAIL", entry.query.c_str(), result.path.size(),
                result.path.edges().size(), base.c_str());

    // The same query without the Steiner step (NEWST-C ablation): a flat
    // set of terminals, no path — this is what "what to read" without
    // "how to read" looks like.
    core::RePagerOptions flat = options;
    flat.run_steiner = false;
    auto flat_result = wb.repager().Generate(entry.query, flat);
    if (flat_result.ok()) {
      std::printf("     without Steiner step: %zu terminal papers, path size "
                  "%zu (no reading order)\n",
                  flat_result->terminals.size(), flat_result->path.size());
    }
  }
  std::printf("\nrender with: dot -Tsvg %s/path_0.dot -o path_0.svg\n",
              out_dir.c_str());
  return 0;
}
