#ifndef RPG_SNAPSHOT_CHECKSUM_H_
#define RPG_SNAPSHOT_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace rpg::snapshot {

/// FNV-1a 64-bit over a byte range — the same stable, dependency-free
/// hash the embedder uses for feature hashing. SnapshotReader runs it
/// over every snapshot section at open.
inline uint64_t Fnv1a64(const void* data, size_t size,
                        uint64_t seed = 0xcbf29ce484222325ULL) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace rpg::snapshot

#endif  // RPG_SNAPSHOT_CHECKSUM_H_
