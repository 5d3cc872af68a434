#ifndef RPG_SNAPSHOT_SNAPSHOT_READER_H_
#define RPG_SNAPSHOT_SNAPSHOT_READER_H_

/// \file
/// mmap-based zero-copy snapshot reader. Open() maps the file read-only
/// and validates header magic/version/checksum, the TOC, every entry's
/// bounds, and (by default) every section checksum — known, unknown and
/// retired ids alike, so each byte is hashed exactly once before a
/// caller sees it. Any inconsistency fails closed with a typed
/// InvalidArgument before a single section byte is interpreted.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "snapshot/format.h"

namespace rpg::snapshot {

struct SnapshotReaderOptions {
  /// Verify every section checksum at open. Only the fuzz harness turns
  /// this off, so mutated bytes reach the section decoders; header and
  /// TOC checksums are verified regardless.
  bool verify_checksums = true;
};

/// Validated view over one snapshot file (or an in-memory buffer for
/// tests and the fuzz harness). Sections are raw byte spans into the
/// mapping; decoding them is the caller's job (ServingState).
class SnapshotReader {
 public:
  static Result<std::unique_ptr<SnapshotReader>> Open(
      const std::string& path, const SnapshotReaderOptions& options = {});

  /// Same validation over an owned buffer — no filesystem involved.
  static Result<std::unique_ptr<SnapshotReader>> FromBuffer(
      std::vector<uint8_t> bytes, const SnapshotReaderOptions& options = {});

  ~SnapshotReader();
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  uint64_t num_papers() const { return header_.num_papers; }
  uint64_t num_edges() const { return header_.num_edges; }
  uint64_t corpus_seed() const { return header_.corpus_seed; }
  uint32_t flags() const { return header_.flags; }
  bool relabeled() const { return (header_.flags & kFlagRelabeled) != 0; }
  uint64_t file_size() const { return data_.size(); }

  bool HasSection(SectionId id) const;

  /// The section's bytes, or InvalidArgument when absent.
  Result<std::span<const uint8_t>> Section(SectionId id) const;

  /// Re-verifies every section checksum (Open already did, unless
  /// `verify_checksums` was off). InvalidArgument names the first bad
  /// section.
  Status VerifyAllChecksums() const;

  /// Drops this process's resident pages of the mapping
  /// (madvise(MADV_DONTNEED)); a no-op for buffer-backed readers. The
  /// mapping stays valid: a later read faults its pages back in from
  /// the file. ServingState calls it once everything is decoded into
  /// owned memory, so a live epoch does not also hold the whole file
  /// in its RSS.
  void ReleaseResidentPages() const;

 private:
  SnapshotReader() = default;

  /// Runs the full validation ladder over `data_`.
  Status Validate(const SnapshotReaderOptions& options,
                  const std::string& context);

  std::span<const uint8_t> data_;
  SnapshotHeader header_;
  std::vector<SectionEntry> sections_;

  /// Exactly one of these backs `data_`.
  void* mmap_base_ = nullptr;
  size_t mmap_size_ = 0;
  std::vector<uint8_t> owned_;
};

}  // namespace rpg::snapshot

#endif  // RPG_SNAPSHOT_SNAPSHOT_READER_H_
