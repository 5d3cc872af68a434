#include "serve/epoch.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"

namespace rpg::serve {

namespace {

int64_t NowUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

EpochHandle Epoch::Create(const core::RePaGer* repager,
                          const std::vector<std::string>* titles,
                          const std::vector<uint16_t>* years,
                          std::shared_ptr<const void> owner, Info info) {
  RPG_CHECK(repager != nullptr && titles != nullptr && years != nullptr);
  auto epoch = std::shared_ptr<Epoch>(new Epoch());
  epoch->repager_ = repager;
  epoch->titles_ = titles;
  epoch->years_ = years;
  epoch->owner_ = std::move(owner);
  if (info.loaded_unix_ms == 0) info.loaded_unix_ms = NowUnixMs();
  epoch->info_ = std::move(info);
  return epoch;
}

EpochHandle Epoch::FromSnapshot(std::unique_ptr<snapshot::ServingState> state,
                                uint64_t id, std::string source,
                                double load_seconds) {
  Info info;
  info.id = id;
  info.source = std::move(source);
  info.loaded_unix_ms = NowUnixMs();
  info.load_seconds = load_seconds;
  info.num_papers = state->reader().num_papers();
  info.num_edges = state->reader().num_edges();
  // The aliasing pointers borrow from the ServingState; the shared_ptr
  // owner keeps it (and its mmap) alive until the last query drops the
  // epoch handle.
  std::shared_ptr<const snapshot::ServingState> owner = std::move(state);
  return Create(&owner->repager(), &owner->titles(), &owner->years(),
                owner, std::move(info));
}

Result<EpochHandle> LoadEpochFromSnapshot(const std::string& path,
                                          uint64_t id) {
  Timer load;
  // Load checksums every section before decoding, so a flip can never
  // publish bytes that differ from what the writer produced.
  RPG_ASSIGN_OR_RETURN(std::unique_ptr<snapshot::ServingState> state,
                       snapshot::ServingState::Load(path));
  return Epoch::FromSnapshot(std::move(state), id, path,
                             load.ElapsedSeconds());
}

}  // namespace rpg::serve
