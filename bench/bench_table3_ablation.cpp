// Reproduces Table III: the two NEWST ablations (K=50, labels >= 1).
//
//  Left  (seed reallocation): NEWST / NEWST-W (initial seeds) /
//         NEWST-I (intersection) / NEWST-U (union).
//  Right (weights):           NEWST / NEWST-C (no Steiner step) /
//         NEWST-N (no node weights) / NEWST-E (no edge weights).
//
// Expected shape (paper): NEWST ≈ NEWST-I > NEWST-W on F1; NEWST-U best
// F1 but worst precision; NEWST-C best precision but no path and lower
// F1; NEWST-N / NEWST-E between NEWST-C and NEWST.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "common/table_printer.h"
#include "eval/evaluator.h"

namespace {

using namespace rpg;

/// Evaluates one RePagerOptions variant.
eval::CellResult RunVariant(const eval::Workbench& wb,
                            const eval::Evaluator& evaluator,
                            core::RePagerOptions base) {
  auto grid_or = evaluator.RunCustomSweep(
      [&](const eval::QuerySpec& spec, size_t k)
          -> Result<std::vector<graph::PaperId>> {
        core::RePagerOptions options = base;
        options.year_cutoff = spec.year_cutoff;
        if (spec.exclude != graph::kInvalidPaper) {
          options.exclude = {spec.exclude};
        }
        RPG_ASSIGN_OR_RETURN(std::vector<graph::PaperId> ranked,
                             wb.repager().Rank(spec.query, options));
        if (ranked.size() > k) ranked.resize(k);
        return ranked;
      },
      {50}, {eval::LabelLevel::kAtLeast1});
  if (!grid_or.ok()) {
    std::fprintf(stderr, "variant failed: %s\n",
                 grid_or.status().ToString().c_str());
    std::exit(1);
  }
  return grid_or.value()[0][0];
}

}  // namespace

int main() {
  bench::BenchConfig config = bench::LoadBenchConfig();
  auto wb = bench::BuildWorkbenchOrDie(config);

  std::vector<size_t> sample = eval::Evaluator::SampleEntries(
      wb->bank(), config.eval_queries, config.sample_seed);
  eval::Evaluator evaluator(wb.get(), sample);
  std::printf("=== Table III: NEWST ablations (%zu queries, K=50) ===\n\n",
              sample.size());

  core::RePagerOptions newst;  // defaults = full model

  // Left half: seed reallocation.
  {
    TablePrinter table({"Methods", "F1 score", "Precision"});
    struct Variant {
      const char* name;
      core::SeedMode mode;
    };
    const Variant variants[] = {
        {"NEWST", core::SeedMode::kReallocated},
        {"NEWST-W", core::SeedMode::kInitial},
        {"NEWST-I", core::SeedMode::kIntersection},
        {"NEWST-U", core::SeedMode::kUnion},
    };
    for (const auto& v : variants) {
      core::RePagerOptions options = newst;
      options.seed_mode = v.mode;
      eval::CellResult cell = RunVariant(*wb, evaluator, options);
      table.AddRow(v.name, {cell.f1, cell.precision}, 4);
    }
    std::printf("Seed-reallocation ablation:\n");
    table.Print(std::cout);
  }

  // Right half: node/edge weights.
  {
    TablePrinter table({"Methods", "F1 score", "Precision"});
    struct Variant {
      const char* name;
      bool run_steiner;
      bool node_weights;
      bool edge_weights;
    };
    const Variant variants[] = {
        {"NEWST", true, true, true},
        {"NEWST-C", false, true, true},
        {"NEWST-N", true, false, true},
        {"NEWST-E", true, true, false},
    };
    for (const auto& v : variants) {
      core::RePagerOptions options = newst;
      options.run_steiner = v.run_steiner;
      options.newst.use_node_weights = v.node_weights;
      options.newst.use_edge_weights = v.edge_weights;
      eval::CellResult cell = RunVariant(*wb, evaluator, options);
      table.AddRow(v.name, {cell.f1, cell.precision}, 4);
    }
    std::printf("\nNode/edge-weight ablation:\n");
    table.Print(std::cout);
  }

  // Closure-mode ablation: the Mehlhorn single-pass closure replaced
  // the paper's per-terminal closure as the production default, so this
  // row pair shows its end-task quality matches the classic closure
  // (trees can differ node-by-node, so F1/precision may differ in the
  // last decimals — the shape to check is parity, not identity).
  {
    TablePrinter table({"Methods", "F1 score", "Precision"});
    struct Variant {
      const char* name;
      steiner::ClosureMode mode;
    };
    const Variant variants[] = {
        {"NEWST (Mehlhorn closure)", steiner::ClosureMode::kMehlhorn},
        {"NEWST (classic closure)", steiner::ClosureMode::kClassic},
    };
    for (const auto& v : variants) {
      core::RePagerOptions options = newst;
      options.newst.closure_mode = v.mode;
      eval::CellResult cell = RunVariant(*wb, evaluator, options);
      table.AddRow(v.name, {cell.f1, cell.precision}, 4);
    }
    std::printf("\nClosure-mode ablation:\n");
    table.Print(std::cout);
  }
  return 0;
}
