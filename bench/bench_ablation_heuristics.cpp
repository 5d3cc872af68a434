// Design-choice ablation (src/steiner/README.md): compares the KMB
// construction the paper adopts (Algorithm 1) against the
// Takahashi-Matsuyama shortest-path heuristic and, on small instances,
// the exact Dreyfus-Wagner optimum — on real RePaGer sub-graphs. Reports tree cost
// ratios and wall-clock time. Not a table in the paper; it substantiates
// §IV-B's claim that the heuristic's quality/latency trade-off is sound.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/repager.h"
#include "eval/evaluator.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "steiner/exact.h"
#include "steiner/takahashi.h"

int main() {
  using namespace rpg;
  bench::BenchConfig config = bench::LoadBenchConfig();
  auto wb = bench::BuildWorkbenchOrDie(config);
  auto sample = eval::Evaluator::SampleEntries(wb->bank(), 12,
                                               config.sample_seed);

  std::printf("=== Heuristic ablation: KMB classic vs KMB-Mehlhorn (fast) "
              "vs Takahashi-Matsuyama vs exact ===\n\n");
  TablePrinter table({"query", "|V|", "|S|", "KMB cost", "fast cost",
                      "TM cost", "TM/KMB", "KMB ms", "fast ms", "TM ms"});
  double kmb_total = 0.0, tm_total = 0.0, fast_total = 0.0;
  for (size_t index : sample) {
    const auto& entry = wb->bank().Get(index);
    // Build the same weighted sub-graph RePaGer would use.
    auto hits = wb->google().Search(entry.query, 30, entry.year,
                                    {entry.paper});
    if (hits.empty()) continue;
    std::vector<graph::PaperId> seeds;
    for (const auto& h : hits) seeds.push_back(h.doc);
    auto khop = KHopNeighborhood(wb->corpus().citations, seeds, 2,
                                 graph::Direction::kOut);
    graph::Subgraph sg(wb->corpus().citations, khop.AllNodes());
    steiner::WeightedGraph g = core::BuildWeightedSubgraph(sg, wb->weights());
    std::vector<uint32_t> terminals;
    for (graph::PaperId s :
         core::CoOccurrencePapers(wb->corpus().citations, seeds, 2)) {
      uint32_t local = sg.ToLocal(s);
      if (local != UINT32_MAX) terminals.push_back(local);
    }
    if (terminals.size() < 3) continue;

    steiner::NewstOptions classic_options;
    classic_options.closure_mode = steiner::ClosureMode::kClassic;
    Timer kmb_timer;
    auto kmb = SolveNewst(g, terminals, classic_options);
    double kmb_ms = kmb_timer.ElapsedMillis();
    Timer fast_timer;
    auto fast = SolveNewst(g, terminals);
    double fast_ms = fast_timer.ElapsedMillis();
    Timer tm_timer;
    auto tm = SolveTakahashiMatsuyama(g, terminals);
    double tm_ms = tm_timer.ElapsedMillis();
    if (!kmb.ok() || !fast.ok() || !tm.ok()) continue;
    kmb_total += kmb->total_cost;
    fast_total += fast->total_cost;
    tm_total += tm->total_cost;
    std::string query = entry.query.substr(0, 24);
    table.AddRow({query, std::to_string(g.num_nodes()),
                  std::to_string(terminals.size()),
                  FormatDouble(kmb->total_cost, 1),
                  FormatDouble(fast->total_cost, 1),
                  FormatDouble(tm->total_cost, 1),
                  FormatDouble(tm->total_cost / kmb->total_cost, 3),
                  FormatDouble(kmb_ms, 1), FormatDouble(fast_ms, 1),
                  FormatDouble(tm_ms, 1)});
  }
  table.Print(std::cout);
  if (kmb_total > 0.0) {
    std::printf("\naggregate TM/KMB cost ratio: %.4f\n",
                tm_total / kmb_total);
    std::printf("aggregate fast/KMB cost ratio: %.4f\n",
                fast_total / kmb_total);
  }

  // Exact comparison on small instances (few terminals).
  std::printf("\n--- exact optimum on small instances (Dreyfus-Wagner) ---\n");
  TablePrinter exact_table({"|V|", "|S|", "exact", "KMB", "KMB/exact",
                            "TM/exact"});
  size_t done = 0;
  for (size_t index : sample) {
    if (done >= 5) break;
    const auto& entry = wb->bank().Get(index);
    auto hits = wb->google().Search(entry.query, 8, entry.year,
                                    {entry.paper});
    if (hits.empty()) continue;
    std::vector<graph::PaperId> seeds;
    for (const auto& h : hits) seeds.push_back(h.doc);
    auto khop = KHopNeighborhood(wb->corpus().citations, seeds, 1,
                                 graph::Direction::kOut);
    graph::Subgraph sg(wb->corpus().citations, khop.AllNodes());
    if (sg.num_nodes() > 400) continue;
    steiner::WeightedGraph g = core::BuildWeightedSubgraph(sg, wb->weights());
    std::vector<uint32_t> terminals;
    for (graph::PaperId s :
         core::CoOccurrencePapers(wb->corpus().citations, seeds, 2)) {
      uint32_t local = sg.ToLocal(s);
      if (local != UINT32_MAX) terminals.push_back(local);
      if (terminals.size() == 6) break;
    }
    if (terminals.size() < 3) continue;
    auto exact = SolveExactSteiner(g, terminals);
    auto kmb = SolveNewst(g, terminals);
    auto tm = SolveTakahashiMatsuyama(g, terminals);
    if (!exact.ok() || !kmb.ok() || !tm.ok()) continue;
    exact_table.AddRow({std::to_string(g.num_nodes()),
                        std::to_string(terminals.size()),
                        FormatDouble(exact->total_cost, 2),
                        FormatDouble(kmb->total_cost, 2),
                        FormatDouble(kmb->total_cost / exact->total_cost, 4),
                        FormatDouble(tm->total_cost / exact->total_cost, 4)});
    ++done;
  }
  exact_table.Print(std::cout);
  return 0;
}
