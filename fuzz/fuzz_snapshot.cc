/// \file
/// Fuzz target: the snapshot loading path. Feeds arbitrary bytes to
/// ServingState::LoadFromBuffer twice — once with full checksum
/// verification (the serving default: corrupt inputs must die with a
/// typed InvalidArgument, never a crash) and once with checksums
/// disabled, which strips the FNV armor so mutated inputs reach the
/// section decoders and their structural validation (varint bounds,
/// CSR monotonicity, postings doc-id range, permutation checks) has to
/// hold on its own. When an input is accepted, every substrate the
/// loader wired up is walked — adjacency spans, every edge's cost read
/// through the con table, title/year/pagerank arrays, one BM25 query —
/// so any lie the validators missed becomes an out-of-bounds read under
/// ASan.
///
/// Build: -DRPG_BUILD_FUZZERS=ON with clang (libFuzzer); the same body
/// also runs libFuzzer-free inside fuzz_smoke.cc (tier-1 ctest).

#include <climits>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "snapshot/serving_state.h"
#include "snapshot/snapshot_reader.h"

#ifndef RPG_FUZZ_ENTRY
#define RPG_FUZZ_ENTRY LLVMFuzzerTestOneInput
#endif

namespace rpg::fuzzing::snapshot_load {

inline void WalkState(const snapshot::ServingState& state) {
  const graph::CitationGraph& g = state.graph();
  const size_t n = g.num_nodes();
  RPG_CHECK(state.titles().size() == n);
  RPG_CHECK(state.years().size() == n);
  RPG_CHECK(state.pagerank().size() == n);
  RPG_CHECK(state.venue_scores().size() == n);
  RPG_CHECK(state.weights().edge_con().size() == g.num_edges());
  size_t title_bytes = 0;
  for (graph::PaperId u = 0; u < n; ++u) {
    title_bytes += state.titles()[u].size();
    for (graph::PaperId v : g.OutNeighbors(u)) RPG_CHECK(v < n);
    for (graph::PaperId v : g.InNeighbors(u)) RPG_CHECK(v < n);
  }
  // An unvalidated con byte would index past the cost table here.
  volatile double cost_sum = 0.0;
  for (uint64_t e = 0; e < g.num_edges(); ++e) {
    cost_sum = cost_sum + state.weights().EdgeCostAt(e);
  }
  RPG_CHECK(title_bytes < (1u << 30));
  if (!state.new_to_old().empty()) {
    RPG_CHECK(state.new_to_old().size() == n);
  }
  if (n > 0) {
    auto hits = state.engine().Search(state.titles()[0], 3, INT32_MAX);
    RPG_CHECK(hits.size() <= 3);
  }
}

inline void CheckOne(const uint8_t* data, size_t size) {
  std::vector<uint8_t> bytes(data, data + size);

  // Pass 1: serving configuration — checksums verified at open.
  auto armored =
      snapshot::ServingState::LoadFromBuffer(bytes, {.verify_checksums = true});
  if (armored.ok()) WalkState(*armored.value());

  // Pass 2: checksums off, so mutations actually reach the decoders.
  auto bare = snapshot::ServingState::LoadFromBuffer(
      std::move(bytes), {.verify_checksums = false});
  if (bare.ok()) WalkState(*bare.value());
}

}  // namespace rpg::fuzzing::snapshot_load

extern "C" int RPG_FUZZ_ENTRY(const uint8_t* data, size_t size) {
  rpg::fuzzing::snapshot_load::CheckOne(data, size);
  return 0;
}
