#include "eval/baselines.h"

#include <algorithm>

#include "graph/traversal.h"

namespace rpg::eval {

using graph::PaperId;

const char* MethodName(Method m) {
  switch (m) {
    case Method::kGoogle:
      return "Google";
    case Method::kMicrosoft:
      return "Microsoft";
    case Method::kAminer:
      return "Aminer";
    case Method::kPageRank:
      return "PageRank";
    case Method::kSciBert:
      return "SciBERT";
    case Method::kNewst:
      return "NEWST";
  }
  return "?";
}

std::vector<Method> AllMethods() {
  return {Method::kNewst,   Method::kGoogle,  Method::kMicrosoft,
          Method::kAminer,  Method::kPageRank, Method::kSciBert};
}

std::vector<PaperId> ExpandSeeds(const Workbench& wb, const QuerySpec& spec,
                                 int num_seeds) {
  auto hits = wb.google().Search(spec.query, static_cast<size_t>(num_seeds),
                                 spec.year_cutoff, {spec.exclude});
  std::vector<PaperId> seeds;
  seeds.reserve(hits.size());
  for (const auto& h : hits) seeds.push_back(h.doc);
  graph::KHopResult khop = KHopNeighborhood(wb.corpus().citations, seeds, 2,
                                            graph::Direction::kOut);
  std::vector<PaperId> out;
  for (const auto& level : khop.levels) {
    for (PaperId p : level) {
      if (wb.years()[p] <= spec.year_cutoff && p != spec.exclude) {
        out.push_back(p);
      }
    }
  }
  return out;
}

Result<std::vector<PaperId>> RankedListFor(const Workbench& wb, Method method,
                                           const QuerySpec& spec, size_t k,
                                           int num_seeds) {
  switch (method) {
    case Method::kGoogle:
    case Method::kMicrosoft:
    case Method::kAminer: {
      const search::SearchEngine& engine =
          method == Method::kGoogle
              ? wb.google()
              : (method == Method::kMicrosoft ? wb.microsoft() : wb.aminer());
      auto hits = engine.Search(spec.query, k, spec.year_cutoff,
                                {spec.exclude});
      std::vector<PaperId> out;
      out.reserve(hits.size());
      for (const auto& h : hits) out.push_back(h.doc);
      return out;
    }
    case Method::kPageRank: {
      std::vector<PaperId> candidates = ExpandSeeds(wb, spec, num_seeds);
      std::sort(candidates.begin(), candidates.end(),
                [&](PaperId a, PaperId b) {
                  double pa = wb.pagerank()[a], pb = wb.pagerank()[b];
                  if (pa != pb) return pa > pb;
                  return a < b;
                });
      if (candidates.size() > k) candidates.resize(k);
      return candidates;
    }
    case Method::kSciBert: {
      std::vector<PaperId> candidates = ExpandSeeds(wb, spec, num_seeds);
      auto matches = wb.matcher().Rerank(spec.query, candidates, k);
      std::vector<PaperId> out;
      out.reserve(matches.size());
      for (const auto& m : matches) out.push_back(m.doc);
      return out;
    }
    case Method::kNewst: {
      core::RePagerOptions options;
      options.num_initial_seeds = num_seeds;
      options.year_cutoff = spec.year_cutoff;
      if (spec.exclude != graph::kInvalidPaper) {
        options.exclude = {spec.exclude};
      }
      RPG_ASSIGN_OR_RETURN(std::vector<PaperId> ranked,
                           wb.repager().Rank(spec.query, options));
      if (ranked.size() > k) ranked.resize(k);
      return ranked;
    }
  }
  return Status::InvalidArgument("unknown method");
}

}  // namespace rpg::eval
