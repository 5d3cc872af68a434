// Reproduces Table V: the preference study between Google Scholar (A)
// and NEWST/RePaGer (B) on the Prerequisite / Relevance / Completeness
// questionnaire axes, over the AI and DM domains (20 queries x 8 raters
// each; raters are simulated — see README.md, Reproduction).
//
// Expected shape (paper): B strongly preferred on Prerequisite (76-93%),
// roughly tied on Relevance, B ahead on Completeness.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "eval/preference_judge.h"

int main() {
  using namespace rpg;
  bench::BenchConfig config = bench::LoadBenchConfig();
  auto wb = bench::BuildWorkbenchOrDie(config);

  std::printf("=== Table V: preference study, A = Google Scholar, "
              "B = NEWST ===\n");
  struct DomainSpec {
    const char* label;
    uint32_t domain_index;
  };
  // AI = domain 0; "DM" = the Database / Data Mining / IR domain (4).
  const DomainSpec domains[] = {{"AI", 0}, {"DM", 4}};

  TablePrinter table(
      {"Domain", "Criterion", "Prefer A (%)", "Same (%)", "Prefer B (%)"});
  for (const auto& d : domains) {
    eval::PreferenceOptions options;
    auto result_or = RunPreferenceStudy(*wb, d.domain_index, options);
    if (!result_or.ok()) {
      std::fprintf(stderr, "%s study failed: %s\n", d.label,
                   result_or.status().ToString().c_str());
      return 1;
    }
    const eval::PreferenceResult& r = result_or.value();
    struct Row {
      const char* criterion;
      const eval::CriterionOutcome* outcome;
    };
    const Row rows[] = {{"Prerequisite", &r.prerequisite},
                        {"Relevance", &r.relevance},
                        {"Completeness", &r.completeness}};
    for (const auto& row : rows) {
      table.AddRow({d.label, row.criterion,
                    FormatDouble(100.0 * row.outcome->prefer_a, 2),
                    FormatDouble(100.0 * row.outcome->same, 2),
                    FormatDouble(100.0 * row.outcome->prefer_b, 2)});
    }
  }
  table.Print(std::cout);
  return 0;
}
