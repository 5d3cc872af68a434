#ifndef RPG_SERVE_EPOCH_H_
#define RPG_SERVE_EPOCH_H_

/// \file
/// One immutable generation of the serving substrate, the unit of
/// RCU-style state swap: the corpus can be replaced while serving, so
/// each request pins the generation it started on.
///
/// An Epoch bundles everything a query needs — the RePaGer (and, through
/// it, graph / engine / weights), the rendering metadata (titles, years)
/// and the load provenance (id, source, timestamps) — behind one
/// `std::shared_ptr<const Epoch>` handle. The serving stack acquires the
/// handle ONCE per request (ServeEngine::GenerateAsync) and threads it
/// down through the solver pool's queue to the solver thread, so:
///
///  - a SwapEpoch is one shared_ptr store: new requests see the new
///    epoch immediately, in-flight requests finish on the epoch they
///    started on (bit-identical to a fresh process booted from that
///    epoch's snapshot — pinned by tests/epoch/epoch_test.cc);
///  - the old epoch destroys itself (ServingState unmapped, substrate
///    freed) when the last in-flight reference drops — no quiescence
///    tracking, no reader locks, no drain barrier;
///  - cache entries are stamped with the epoch id they were computed
///    under, so a flip invalidates logically without a global clear
///    (QueryCache lazily evicts stale stamps on lookup).
///
/// Construction paths:
///  - LoadEpochFromSnapshot(): the production reload path — mmaps the
///    file, checksums every section once, decodes, and fails closed,
///    leaving the serving epoch untouched on any error.
///  - Create(): wraps an in-process-built substrate (eval::Workbench or
///    anything else) with a type-erased owner keeping it alive.
///
/// Either way the epoch carries its rendering metadata (titles, years),
/// so every response renders from the epoch it was served on.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/repager.h"
#include "snapshot/serving_state.h"

namespace rpg::serve {

class Epoch;

/// The one way serving code refers to an epoch. Copying the handle is
/// the RCU "read lock": hold it and everything the epoch owns stays
/// alive and immutable.
using EpochHandle = std::shared_ptr<const Epoch>;

class Epoch {
 public:
  /// Load provenance, rendered into /api/stats and GET /metrics.
  struct Info {
    /// Monotonically increasing generation number.
    uint64_t id = 0;
    /// Where the substrate came from: a snapshot path, or "in-process".
    std::string source;
    /// Wall-clock time the epoch was constructed (Unix epoch, ms).
    int64_t loaded_unix_ms = 0;
    /// Seconds spent loading/verifying/wiring the substrate.
    double load_seconds = 0.0;
    uint64_t num_papers = 0;
    uint64_t num_edges = 0;
  };

  /// Wraps an in-process substrate. `owner` is a type-erased keep-alive
  /// for whatever object(s) the raw pointers borrow from (e.g. the
  /// eval::Workbench); it may be null when the caller guarantees
  /// lifetime some other way. `repager`, `titles` and `years` must be
  /// non-null.
  static EpochHandle Create(const core::RePaGer* repager,
                            const std::vector<std::string>* titles,
                            const std::vector<uint16_t>* years,
                            std::shared_ptr<const void> owner, Info info);

  /// Takes ownership of a loaded ServingState. `load_seconds` is the
  /// caller-measured load+verify time (LoadEpochFromSnapshot fills it).
  static EpochHandle FromSnapshot(
      std::unique_ptr<snapshot::ServingState> state, uint64_t id,
      std::string source, double load_seconds);

  Epoch(const Epoch&) = delete;
  Epoch& operator=(const Epoch&) = delete;

  const core::RePaGer& repager() const { return *repager_; }
  const std::vector<std::string>* titles() const { return titles_; }
  const std::vector<uint16_t>* years() const { return years_; }
  const Info& info() const { return info_; }
  uint64_t id() const { return info_.id; }

  /// An owning handle to the epoch's RePaGer: an aliasing shared_ptr
  /// whose control block is the epoch itself. This is what rides inside
  /// core::BatchQuery — the core layer gets a typed keep-alive without
  /// depending on serve::Epoch.
  static std::shared_ptr<const core::RePaGer> RepagerHandle(
      const EpochHandle& epoch) {
    return std::shared_ptr<const core::RePaGer>(epoch, epoch->repager_);
  }

 private:
  Epoch() = default;

  const core::RePaGer* repager_ = nullptr;
  const std::vector<std::string>* titles_ = nullptr;
  const std::vector<uint16_t>* years_ = nullptr;
  /// Keep-alive for the substrate the raw pointers borrow from:
  /// the ServingState (snapshot epochs) or an arbitrary owner (Create).
  std::shared_ptr<const void> owner_;
  Info info_;
};

/// The production reload path: mmap the snapshot, checksum every section
/// (SnapshotReader::Open hashes each byte exactly once, retired and
/// unknown sections included), then decode — all before the epoch
/// becomes visible to anyone. Fail-closed: any error (missing file,
/// corrupt section, failed wiring) returns a typed Status naming the
/// offending layer and constructs nothing — the caller's serving epoch
/// is untouched. Serving code reloads through
/// ServeEngine::ReloadFromSnapshot, which also picks the id.
Result<EpochHandle> LoadEpochFromSnapshot(const std::string& path,
                                          uint64_t id);

}  // namespace rpg::serve

#endif  // RPG_SERVE_EPOCH_H_
