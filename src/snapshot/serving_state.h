#ifndef RPG_SNAPSHOT_SERVING_STATE_H_
#define RPG_SNAPSHOT_SERVING_STATE_H_

/// \file
/// Boots the complete serving substrate out of a snapshot file: the CSR
/// citation graph (out-edges decoded, in-edges rebuilt as the exact
/// transpose), the restored BM25 engine, the weight model, and a RePaGer
/// wired over all of them — the snapshot-side twin of eval::Workbench,
/// minus the synthetic corpus, the survey bank and the §VI-A baseline
/// matcher. Every section is checksummed at open and everything decoded
/// is validated; sections the pipeline does not read (retired or
/// unknown ids) are never decoded.

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/repager.h"
#include "graph/citation_graph.h"
#include "rank/weight_model.h"
#include "search/search_engine.h"
#include "snapshot/snapshot_reader.h"

namespace rpg::snapshot {

class ServingState {
 public:
  static Result<std::unique_ptr<ServingState>> Load(
      const std::string& path, const SnapshotReaderOptions& options = {});

  /// Test/fuzz seam: same pipeline over an in-memory snapshot image.
  static Result<std::unique_ptr<ServingState>> LoadFromBuffer(
      std::vector<uint8_t> bytes, const SnapshotReaderOptions& options = {});

  ServingState(const ServingState&) = delete;
  ServingState& operator=(const ServingState&) = delete;

  const graph::CitationGraph& graph() const { return graph_; }
  const std::vector<std::string>& titles() const { return titles_; }
  const std::vector<uint16_t>& years() const { return years_; }
  const std::vector<double>& pagerank() const { return pagerank_; }
  const std::vector<double>& venue_scores() const { return venue_scores_; }
  const search::SearchEngine& engine() const { return *engine_; }
  const rank::WeightModel& weights() const { return *weights_; }
  const core::RePaGer& repager() const { return *repager_; }
  const rank::NewstParams& params() const { return params_; }

  /// new-id -> original-id map; empty when the snapshot is not
  /// relabeled. Lets callers translate results back to pre-relabel ids.
  const std::vector<graph::PaperId>& new_to_old() const { return new_to_old_; }
  bool relabeled() const { return reader_->relabeled(); }
  uint64_t corpus_seed() const { return reader_->corpus_seed(); }
  const SnapshotReader& reader() const { return *reader_; }

 private:
  ServingState() = default;

  /// Decodes every section and wires the substrate together.
  Status Build();

  /// Keeps the mapping alive for reader() (header fields, checksums).
  /// Load releases its resident pages once Build has decoded every
  /// section into the owned members below; pages fault back in from the
  /// file on demand.
  std::unique_ptr<SnapshotReader> reader_;
  graph::CitationGraph graph_;
  std::vector<std::string> titles_;
  std::vector<uint16_t> years_;
  std::vector<double> pagerank_;
  std::vector<double> venue_scores_;
  rank::NewstParams params_;
  std::vector<graph::PaperId> new_to_old_;
  std::unique_ptr<search::SearchEngine> engine_;
  std::unique_ptr<rank::WeightModel> weights_;
  std::unique_ptr<core::RePaGer> repager_;
};

}  // namespace rpg::snapshot

#endif  // RPG_SNAPSHOT_SERVING_STATE_H_
