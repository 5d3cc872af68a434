#include "snapshot/snapshot_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstddef>
#include <cstring>

#include "common/string_util.h"
#include "snapshot/checksum.h"

namespace rpg::snapshot {

namespace {

const char* SectionName(uint32_t id) {
  switch (static_cast<SectionId>(id)) {
    case SectionId::kGraphOut: return "graph_out";
    case SectionId::kTitles: return "titles";
    case SectionId::kYears: return "years";
    case SectionId::kVenueScores: return "venue_scores";
    case SectionId::kPagerank: return "pagerank";
    case SectionId::kVocab: return "vocab";
    case SectionId::kPostings: return "postings";
    case SectionId::kDocLengths: return "doc_lengths";
    case SectionId::kIndexMeta: return "index_meta";
    case SectionId::kEngineMeta: return "engine_meta";
    case SectionId::kRetiredEmbedMeta: return "embed_meta (retired)";
    case SectionId::kRetiredEmbeddings: return "embeddings (retired)";
    case SectionId::kParams: return "params";
    case SectionId::kIdMap: return "id_map";
    case SectionId::kEdgeCon: return "edge_con";
  }
  return "unknown";
}

}  // namespace

SnapshotReader::~SnapshotReader() {
  if (mmap_base_ != nullptr) {
    ::munmap(mmap_base_, mmap_size_);
  }
}

Result<std::unique_ptr<SnapshotReader>> SnapshotReader::Open(
    const std::string& path, const SnapshotReaderOptions& options) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("snapshot: cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IoError("snapshot: fstat failed: " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::InvalidArgument("snapshot: empty file: " + path);
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (base == MAP_FAILED) {
    return Status::IoError("snapshot: mmap failed: " + path);
  }
  auto reader = std::unique_ptr<SnapshotReader>(new SnapshotReader());
  reader->mmap_base_ = base;
  reader->mmap_size_ = size;
  reader->data_ = {static_cast<const uint8_t*>(base), size};
  RPG_RETURN_NOT_OK(reader->Validate(options, path));
  return reader;
}

Result<std::unique_ptr<SnapshotReader>> SnapshotReader::FromBuffer(
    std::vector<uint8_t> bytes, const SnapshotReaderOptions& options) {
  auto reader = std::unique_ptr<SnapshotReader>(new SnapshotReader());
  reader->owned_ = std::move(bytes);
  reader->data_ = reader->owned_;
  RPG_RETURN_NOT_OK(reader->Validate(options, "<buffer>"));
  return reader;
}

Status SnapshotReader::Validate(const SnapshotReaderOptions& options,
                                const std::string& context) {
  // 1. Header present, magic, version, header checksum.
  if (data_.size() < kHeaderSize) {
    return Status::InvalidArgument(
        StrFormat("snapshot: file too small (%zu bytes): %s", data_.size(),
                  context.c_str()));
  }
  std::memcpy(&header_, data_.data(), sizeof(header_));
  if (header_.magic != kMagic) {
    return Status::InvalidArgument("snapshot: bad magic: " + context);
  }
  if (header_.version != kVersion) {
    return Status::InvalidArgument(
        StrFormat("snapshot: unsupported version %u (want %u): %s",
                  header_.version, kVersion, context.c_str()));
  }
  const uint64_t want_header =
      Fnv1a64(data_.data(), offsetof(SnapshotHeader, header_checksum));
  if (header_.header_checksum != want_header) {
    return Status::InvalidArgument("snapshot: header checksum mismatch: " +
                                   context);
  }

  // 2. TOC bounds and checksum. All arithmetic overflow-safe: sizes are
  // compared against the known file size, never added blindly.
  if (header_.section_count > kMaxSections) {
    return Status::InvalidArgument(
        StrFormat("snapshot: section count %u exceeds cap: %s",
                  header_.section_count, context.c_str()));
  }
  const uint64_t file_size = data_.size();
  if (header_.toc_size !=
      static_cast<uint64_t>(header_.section_count) * sizeof(SectionEntry)) {
    return Status::InvalidArgument("snapshot: TOC size mismatch: " + context);
  }
  if (header_.toc_offset < kHeaderSize || header_.toc_offset > file_size ||
      header_.toc_size > file_size - header_.toc_offset) {
    return Status::InvalidArgument("snapshot: TOC out of bounds: " + context);
  }
  const uint8_t* toc_bytes = data_.data() + header_.toc_offset;
  if (Fnv1a64(toc_bytes, header_.toc_size) != header_.toc_checksum) {
    return Status::InvalidArgument("snapshot: TOC checksum mismatch: " +
                                   context);
  }
  sections_.resize(header_.section_count);
  std::memcpy(sections_.data(), toc_bytes, header_.toc_size);

  // 3. Per-entry bounds: aligned, inside the file, no duplicate ids.
  for (size_t i = 0; i < sections_.size(); ++i) {
    const SectionEntry& e = sections_[i];
    if (e.offset < kHeaderSize || e.offset % 8 != 0 ||
        e.offset > file_size || e.size > file_size - e.offset) {
      return Status::InvalidArgument(
          StrFormat("snapshot: section %s out of bounds: %s",
                    SectionName(e.id), context.c_str()));
    }
    for (size_t j = 0; j < i; ++j) {
      if (sections_[j].id == e.id) {
        return Status::InvalidArgument(
            StrFormat("snapshot: duplicate section %s: %s", SectionName(e.id),
                      context.c_str()));
      }
    }
  }

  // 4. Required sections present (kIdMap required iff relabeled).
  static constexpr SectionId kRequired[] = {
      SectionId::kGraphOut,    SectionId::kTitles,     SectionId::kYears,
      SectionId::kVenueScores, SectionId::kPagerank,   SectionId::kVocab,
      SectionId::kPostings,    SectionId::kDocLengths, SectionId::kIndexMeta,
      SectionId::kEngineMeta,  SectionId::kParams,     SectionId::kEdgeCon,
  };
  for (SectionId id : kRequired) {
    if (!HasSection(id)) {
      return Status::InvalidArgument(
          StrFormat("snapshot: missing section %s: %s",
                    SectionName(static_cast<uint32_t>(id)), context.c_str()));
    }
  }
  if (relabeled() && !HasSection(SectionId::kIdMap)) {
    return Status::InvalidArgument(
        "snapshot: relabeled flag set but id_map missing: " + context);
  }

  // 5. Every section's checksum, whether its id is known, unknown or
  // retired: no byte of an opened snapshot goes unverified.
  if (!options.verify_checksums) return Status::OK();
  Status status = VerifyAllChecksums();
  if (!status.ok()) {
    return Status::InvalidArgument(status.message() + ": " + context);
  }
  return Status::OK();
}

bool SnapshotReader::HasSection(SectionId id) const {
  for (const SectionEntry& e : sections_) {
    if (e.id == static_cast<uint32_t>(id)) return true;
  }
  return false;
}

Result<std::span<const uint8_t>> SnapshotReader::Section(SectionId id) const {
  for (const SectionEntry& e : sections_) {
    if (e.id == static_cast<uint32_t>(id)) {
      return std::span<const uint8_t>(data_.data() + e.offset, e.size);
    }
  }
  return Status::InvalidArgument(
      StrFormat("snapshot: missing section %s",
                SectionName(static_cast<uint32_t>(id))));
}

Status SnapshotReader::VerifyAllChecksums() const {
  for (const SectionEntry& e : sections_) {
    if (Fnv1a64(data_.data() + e.offset, e.size) != e.checksum) {
      return Status::InvalidArgument(StrFormat(
          "snapshot: section %s checksum mismatch", SectionName(e.id)));
    }
  }
  return Status::OK();
}

void SnapshotReader::ReleaseResidentPages() const {
  // Advisory: on failure the pages simply stay resident.
  if (mmap_base_ != nullptr) ::madvise(mmap_base_, mmap_size_, MADV_DONTNEED);
}

}  // namespace rpg::snapshot
