/// \file
/// Fuzz target: citation-graph construction from on-disk CSR arrays.
/// Carves an out-offsets array and an out-targets array from arbitrary
/// bytes, hands them to graph::GraphIo::FromOutCsr (the call every
/// snapshot load makes on the decoded adjacency section) and, when a
/// graph is accepted, walks every adjacency span the accessors expose —
/// any structural lie the CSR validation misses becomes an out-of-bounds
/// read here under ASan instead of a latent crash in the solve pipeline.
///
/// Input layout: byte 0 is the offsets count, clamped to what the rest
/// of the input can hold; that many native-endian u64 offsets follow,
/// and every remaining whole 4-byte word is a native-endian u32 target.
/// Both arrays are sized by the bytes actually present, so no value in
/// the input can size an allocation.
///
/// Build: -DRPG_BUILD_FUZZERS=ON with clang (libFuzzer); the same body
/// also runs libFuzzer-free inside fuzz_smoke.cc (tier-1 ctest).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "graph/graph_io.h"

#ifndef RPG_FUZZ_ENTRY
#define RPG_FUZZ_ENTRY LLVMFuzzerTestOneInput
#endif

namespace rpg::fuzzing::graph_io {

/// Every span is in range and strictly ascending.
inline void CheckSpan(std::span<const graph::PaperId> span, size_t n) {
  for (size_t i = 0; i < span.size(); ++i) {
    RPG_CHECK(span[i] < n);
    if (i > 0) RPG_CHECK(span[i - 1] < span[i]);
  }
}

/// The next `count` values of type T from `*pos` onward.
template <typename T>
std::vector<T> Carve(const uint8_t* data, size_t count, size_t* pos) {
  std::vector<T> out(count);
  if (count > 0) std::memcpy(out.data(), data + *pos, count * sizeof(T));
  *pos += count * sizeof(T);
  return out;
}

inline void CheckOne(const uint8_t* data, size_t size) {
  if (size == 0) return;
  size_t pos = 1;
  auto offsets = Carve<uint64_t>(
      data, std::min<size_t>(data[0], (size - pos) / 8), &pos);
  auto targets = Carve<graph::PaperId>(data, (size - pos) / 4, &pos);

  auto graph_or =
      graph::GraphIo::FromOutCsr(std::move(offsets), std::move(targets));
  if (!graph_or.ok()) {
    RPG_CHECK(graph_or.status().IsInvalidArgument());
    return;  // rejected cleanly: exactly what we want
  }

  // Accepted: every span must be walkable, sorted and in range, and the
  // in-direction must hold exactly the out-direction's edges.
  const graph::CitationGraph& g = graph_or.value();
  const size_t n = g.num_nodes();
  size_t in_edges = 0;
  for (graph::PaperId u = 0; u < n; ++u) {
    CheckSpan(g.OutNeighbors(u), n);
    CheckSpan(g.InNeighbors(u), n);
    RPG_CHECK(g.OutNeighbors(u).size() == g.OutDegree(u));
    in_edges += g.InDegree(u);
  }
  RPG_CHECK(in_edges == g.num_edges());
}

}  // namespace rpg::fuzzing::graph_io

extern "C" int RPG_FUZZ_ENTRY(const uint8_t* data, size_t size) {
  rpg::fuzzing::graph_io::CheckOne(data, size);
  return 0;
}
