#include "rank/pagerank.h"

#include <algorithm>
#include <cmath>

namespace rpg::rank {

std::vector<double> PageRank(const graph::CitationGraph& g,
                             const PageRankOptions& options) {
  const size_t n = g.num_nodes();
  if (n == 0) return {};
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  const double base = (1.0 - options.damping) / static_cast<double>(n);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double dangling = 0.0;
    for (graph::PaperId u = 0; u < n; ++u) {
      if (g.OutDegree(u) == 0) dangling += rank[u];
    }
    double dangling_share =
        options.damping * dangling / static_cast<double>(n);
    double delta = 0.0;
    for (graph::PaperId v = 0; v < n; ++v) {
      double sum = 0.0;
      for (graph::PaperId u : g.InNeighbors(v)) {
        sum += rank[u] / static_cast<double>(g.OutDegree(u));
      }
      next[v] = base + dangling_share + options.damping * sum;
      delta += std::abs(next[v] - rank[v]);
    }
    rank.swap(next);
    if (delta < options.tolerance) break;
  }
  return rank;
}

std::vector<double> NormalizeByMax(std::vector<double> scores) {
  double max_score = 0.0;
  for (double s : scores) max_score = std::max(max_score, s);
  if (max_score > 0.0) {
    for (double& s : scores) s /= max_score;
  }
  return scores;
}

}  // namespace rpg::rank
