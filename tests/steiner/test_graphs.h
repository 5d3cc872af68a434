#ifndef RPG_TESTS_STEINER_TEST_GRAPHS_H_
#define RPG_TESTS_STEINER_TEST_GRAPHS_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "steiner/weighted_graph.h"

namespace rpg::steiner {

/// Random connected graph: a ring (guaranteeing connectivity) plus
/// `extra_edges` random chords, with random node weights. Shared by the
/// Steiner solver test suites.
inline WeightedGraph RandomConnected(Rng* rng, uint32_t n, int extra_edges) {
  WeightedGraphBuilder b(n);
  for (uint32_t v = 0; v < n; ++v) {
    b.SetNodeWeight(v, rng->UniformDouble(0.0, 2.0));
  }
  for (uint32_t i = 0; i < n; ++i) {
    b.AddEdge(i, (i + 1) % n, rng->UniformDouble(0.2, 3.0));
  }
  for (int e = 0; e < extra_edges; ++e) {
    uint32_t u = static_cast<uint32_t>(rng->NextBounded(n));
    uint32_t v = static_cast<uint32_t>(rng->NextBounded(n));
    if (u != v) b.AddEdge(u, v, rng->UniformDouble(0.2, 3.0));
  }
  return b.Build();
}

/// k distinct random terminals in [0, n) (fewer when k > n): partial
/// Fisher-Yates when k >= n / 8, rejection sampling below that.
inline std::vector<uint32_t> RandomTerminals(Rng* rng, uint32_t n,
                                             uint32_t k) {
  k = std::min(k, n);
  std::vector<uint32_t> terminals;
  if (uint64_t{k} * 8 >= n) {
    std::vector<uint32_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0u);
    for (uint32_t i = 0; i < k; ++i) {
      std::swap(idx[i], idx[i + rng->NextBounded(n - i)]);
      terminals.push_back(idx[i]);
    }
    return terminals;
  }
  while (terminals.size() < k) {
    const auto t = static_cast<uint32_t>(rng->NextBounded(n));
    if (std::find(terminals.begin(), terminals.end(), t) == terminals.end()) {
      terminals.push_back(t);
    }
  }
  return terminals;
}

}  // namespace rpg::steiner

#endif  // RPG_TESTS_STEINER_TEST_GRAPHS_H_
