#ifndef RPG_TESTS_SNAPSHOT_SNAPSHOT_TEST_UTIL_H_
#define RPG_TESTS_SNAPSHOT_SNAPSHOT_TEST_UTIL_H_

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "eval/workbench.h"
#include "snapshot/checksum.h"
#include "snapshot/format.h"
#include "snapshot/snapshot_writer.h"

namespace rpg::snapshot {

/// Process-wide small workbench shared by every snapshot suite (built
/// once, intentionally leaked — the corpus build dominates test time).
inline const eval::Workbench& TestWorkbench() {
  static const eval::Workbench* wb = [] {
    eval::WorkbenchOptions options;
    options.corpus.hierarchy.areas_per_domain = 2;
    options.corpus.hierarchy.topics_per_area = 2;
    options.corpus.papers_per_topic = 50;
    options.corpus.papers_per_area = 15;
    options.corpus.papers_per_domain = 10;
    options.corpus.num_surveys = 40;
    options.corpus.seed = 55;
    return eval::Workbench::Create(options).value().release();
  }();
  return *wb;
}

/// The writer input corresponding to TestWorkbench().
inline SnapshotInput TestInput() {
  const eval::Workbench& wb = TestWorkbench();
  SnapshotInput input;
  input.graph = &wb.corpus().citations;
  input.titles = &wb.titles();
  input.years = &wb.years();
  input.pagerank = &wb.pagerank();
  input.venue_scores = &wb.venue_scores();
  input.engine = &wb.google();
  input.corpus_seed = 55;
  return input;
}

/// Snapshot of TestWorkbench() on disk, written once per variant.
inline const std::string& TestSnapshotPath(bool relabel) {
  static const std::string* paths[2] = {nullptr, nullptr};
  const int slot = relabel ? 1 : 0;
  if (paths[slot] == nullptr) {
    auto path = (std::filesystem::temp_directory_path() /
                 (relabel ? "rpg_test_relabel.snap" : "rpg_test.snap"))
                    .string();
    SnapshotWriterOptions options;
    options.relabel = relabel;
    Status status = WriteSnapshot(TestInput(), path, options);
    if (!status.ok()) {
      std::fprintf(stderr, "test snapshot write failed: %s\n",
                   status.ToString().c_str());
      std::abort();
    }
    paths[slot] = new std::string(path);
  }
  return *paths[slot];
}

/// The snapshot file's bytes (for FromBuffer / corruption tests).
inline std::vector<uint8_t> TestSnapshotImage(bool relabel) {
  std::ifstream is(TestSnapshotPath(relabel), std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(is),
                              std::istreambuf_iterator<char>());
}

/// The section table of a snapshot image.
inline std::vector<SectionEntry> TocOf(const std::vector<uint8_t>& image) {
  SnapshotHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  std::vector<SectionEntry> entries(header.section_count);
  std::memcpy(entries.data(), image.data() + header.toc_offset,
              header.toc_size);
  return entries;
}

/// `image` with its section table replaced by `toc`, written where the
/// old table began, and the header resealed. Section bytes are kept, so
/// `toc` may drop, resize or add entries over them.
inline std::vector<uint8_t> WithToc(std::vector<uint8_t> image,
                                    const std::vector<SectionEntry>& toc) {
  SnapshotHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  image.resize(header.toc_offset);
  header.section_count = static_cast<uint32_t>(toc.size());
  header.toc_size = toc.size() * sizeof(SectionEntry);
  header.toc_checksum = Fnv1a64(toc.data(), header.toc_size);
  header.header_checksum =
      Fnv1a64(&header, offsetof(SnapshotHeader, header_checksum));
  const auto* toc_bytes = reinterpret_cast<const uint8_t*>(toc.data());
  image.insert(image.end(), toc_bytes, toc_bytes + header.toc_size);
  std::memcpy(image.data(), &header, sizeof(header));
  return image;
}

/// A current-layout image of TestWorkbench() rewritten in the layout
/// older writers produced: the retired embedder-options (11) and
/// embedding-matrix (12) sections appended after the last section, each
/// with a valid checksum, and the TOC and header resealed.
inline std::vector<uint8_t> WithRetiredSections(std::vector<uint8_t> image) {
  SnapshotHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  std::vector<SectionEntry> toc = TocOf(image);
  image.resize(header.toc_offset);  // drop the old TOC (8-byte aligned)

  const match::SemanticMatcher& matcher = TestWorkbench().matcher();
  const match::HashedEmbedderOptions& eo = matcher.embedder().options();
  std::vector<uint8_t> meta(16);
  const uint32_t dim = static_cast<uint32_t>(eo.dim);
  const uint32_t use_bigrams = eo.use_bigrams ? 1 : 0;
  std::memcpy(meta.data(), &dim, 4);
  std::memcpy(meta.data() + 4, &use_bigrams, 4);
  std::memcpy(meta.data() + 8, &eo.title_weight, 8);
  std::vector<uint8_t> matrix;
  for (uint32_t doc = 0; doc < matcher.num_docs(); ++doc) {
    auto row = matcher.doc_embedding(doc);
    const auto* bytes = reinterpret_cast<const uint8_t*>(row.data());
    matrix.insert(matrix.end(), bytes, bytes + row.size_bytes());
  }
  auto append = [&](SectionId id, const std::vector<uint8_t>& bytes) {
    image.resize((image.size() + 7) / 8 * 8, 0);
    SectionEntry e;
    e.id = static_cast<uint32_t>(id);
    e.offset = image.size();
    e.size = bytes.size();
    e.checksum = Fnv1a64(bytes.data(), bytes.size());
    toc.push_back(e);
    image.insert(image.end(), bytes.begin(), bytes.end());
  };
  append(SectionId::kRetiredEmbedMeta, meta);
  append(SectionId::kRetiredEmbeddings, matrix);
  image.resize((image.size() + 7) / 8 * 8, 0);

  header.toc_offset = image.size();
  std::memcpy(image.data(), &header, sizeof(header));
  return WithToc(std::move(image), toc);
}

}  // namespace rpg::snapshot

#endif  // RPG_TESTS_SNAPSHOT_SNAPSHOT_TEST_UTIL_H_
