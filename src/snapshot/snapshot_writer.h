#ifndef RPG_SNAPSHOT_SNAPSHOT_WRITER_H_
#define RPG_SNAPSHOT_SNAPSHOT_WRITER_H_

/// \file
/// Offline snapshot writer: serializes the complete immutable serving
/// state (CSR citation graph, the Eq. (2) con of every edge, inverted
/// index, per-paper metadata, NEWST params) into one section-table file
/// (format.h) that SnapshotReader/ServingState can boot from via mmap.
/// "Write once offline, read many at serve time": build-side cost
/// (varint/delta compression, counting con per edge, optional BFS
/// relabeling for cache-friendly node order) is spent to make the read
/// side cheap.

#include <string>
#include <vector>

#include "common/status.h"
#include "graph/citation_graph.h"
#include "match/semantic_matcher.h"
#include "rank/weight_model.h"
#include "search/search_engine.h"

namespace rpg::snapshot {

/// Borrowed views of everything that goes into a snapshot. All pointers
/// must stay valid for the duration of WriteSnapshot. The arrays are
/// parallel per-paper; `engine` is the serving (Google-profile) engine
/// whose index is persisted.
struct SnapshotInput {
  const graph::CitationGraph* graph = nullptr;
  const std::vector<std::string>* titles = nullptr;
  const std::vector<uint16_t>* years = nullptr;
  const std::vector<double>* pagerank = nullptr;
  const std::vector<double>* venue_scores = nullptr;
  const search::SearchEngine* engine = nullptr;
  /// Ignored: serving never reads embeddings, so snapshots no longer
  /// carry the baseline matcher's matrix. Kept while callers still set
  /// it.
  const match::SemanticMatcher* matcher = nullptr;
  rank::NewstParams params;
  /// Provenance recorded in the header (0 = unknown).
  uint64_t corpus_seed = 0;
};

struct SnapshotWriterOptions {
  /// Renumber papers in BFS order from the highest-in-degree roots so
  /// neighborhoods that are traversed together sit together on disk and
  /// in page cache. The kIdMap section maps new ids back to the
  /// original ones; all per-paper sections are stored permuted.
  bool relabel = false;
};

/// Writes the snapshot file at `path` (overwriting). Validates that all
/// per-paper arrays agree on the paper count first.
Status WriteSnapshot(const SnapshotInput& input, const std::string& path,
                     const SnapshotWriterOptions& options = {});

/// The BFS/degree relabel order used by WriteSnapshot when `relabel` is
/// set: returns new-id -> old-id. Deterministic: roots are taken in
/// descending in-degree (ties by old id ascending) and neighbors are
/// visited in span order, out-edges before in-edges. Exposed for tests.
std::vector<graph::PaperId> BfsRelabelOrder(const graph::CitationGraph& g);

}  // namespace rpg::snapshot

#endif  // RPG_SNAPSHOT_SNAPSHOT_WRITER_H_
