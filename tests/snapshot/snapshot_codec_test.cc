// Round-trip property tests for the varint/delta adjacency codec and
// fail-closed tests for the section-table reader: random CSR graphs
// survive encode->decode bit-exactly, and every corruption mode —
// truncation at each section boundary, bad magic/version, checksum
// flips, offsets past EOF — yields a typed InvalidArgument, never a
// crash or out-of-bounds read (the suite runs under ASan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "snapshot/byte_io.h"
#include "snapshot/checksum.h"  // Fnv1a64 for re-sealing forged headers
#include "snapshot/codec.h"
#include "snapshot/format.h"
#include "snapshot/serving_state.h"
#include "snapshot/snapshot_reader.h"

#include "snapshot_test_util.h"

namespace rpg::snapshot {
namespace {

using graph::PaperId;

// ------------------------------------------------------------- varints

TEST(VarintTest, RoundTripBoundaries) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             129,
                             16383,
                             16384,
                             (1ull << 21) - 1,
                             1ull << 21,
                             (1ull << 35) + 7,
                             (1ull << 56) - 1,
                             UINT64_MAX - 1,
                             UINT64_MAX};
  for (uint64_t v : values) {
    std::vector<uint8_t> buf;
    ByteWriter w(&buf);
    w.PutVarint(v);
    ByteReader r(buf);
    uint64_t out = 0;
    ASSERT_TRUE(r.GetVarint(&out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(VarintTest, RejectsTruncation) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutVarint(UINT64_MAX);
  for (size_t len = 0; len < buf.size(); ++len) {
    ByteReader r(std::span<const uint8_t>(buf.data(), len));
    uint64_t out = 0;
    EXPECT_FALSE(r.GetVarint(&out)) << len;
  }
}

TEST(VarintTest, RejectsOverlongAndOverflow) {
  // 11 continuation bytes: unterminated within the 10-byte budget.
  std::vector<uint8_t> overlong(11, 0x80);
  ByteReader r1(overlong);
  uint64_t out = 0;
  EXPECT_FALSE(r1.GetVarint(&out));
  // Ten bytes whose tenth contributes more than the top bit (2^64+).
  std::vector<uint8_t> overflow(10, 0x80);
  overflow[9] = 0x02;
  ByteReader r2(overflow);
  EXPECT_FALSE(r2.GetVarint(&out));
}

// ----------------------------------------------------- adjacency codec

struct RandomCsr {
  std::vector<uint64_t> offsets;
  std::vector<PaperId> targets;
};

RandomCsr MakeRandomCsr(Rng* rng, size_t max_nodes) {
  RandomCsr csr;
  const size_t n = 1 + rng->NextBounded(max_nodes);
  csr.offsets.push_back(0);
  std::vector<PaperId> span;
  for (size_t u = 0; u < n; ++u) {
    span.clear();
    const size_t degree = rng->NextBounded(8);
    for (size_t k = 0; k < degree; ++k) {
      span.push_back(static_cast<PaperId>(rng->NextBounded(n)));
    }
    std::sort(span.begin(), span.end());
    span.erase(std::unique(span.begin(), span.end()), span.end());
    csr.targets.insert(csr.targets.end(), span.begin(), span.end());
    csr.offsets.push_back(csr.targets.size());
  }
  return csr;
}

TEST(AdjacencyCodecTest, RandomGraphsRoundTrip) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    RandomCsr csr = MakeRandomCsr(&rng, 300);
    std::vector<uint8_t> bytes;
    EncodeAdjacency(csr.offsets, csr.targets, &bytes);
    std::vector<uint64_t> offsets;
    std::vector<PaperId> targets;
    Status status = DecodeAdjacency(bytes, csr.offsets.size() - 1,
                                    csr.targets.size(), &offsets, &targets);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(offsets, csr.offsets);
    EXPECT_EQ(targets, csr.targets);
  }
}

TEST(AdjacencyCodecTest, TruncationAtEveryByteFailsClosed) {
  Rng rng(7);
  RandomCsr csr = MakeRandomCsr(&rng, 40);
  std::vector<uint8_t> bytes;
  EncodeAdjacency(csr.offsets, csr.targets, &bytes);
  const uint64_t n = csr.offsets.size() - 1;
  const uint64_t m = csr.targets.size();
  ASSERT_GT(bytes.size(), 0u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint64_t> offsets;
    std::vector<PaperId> targets;
    Status status = DecodeAdjacency(
        std::span<const uint8_t>(bytes.data(), len), n, m, &offsets, &targets);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << len;
  }
}

TEST(AdjacencyCodecTest, RejectsStructuralLies) {
  Rng rng(9);
  RandomCsr csr = MakeRandomCsr(&rng, 40);
  const uint64_t n = csr.offsets.size() - 1;
  const uint64_t m = csr.targets.size();
  std::vector<uint8_t> bytes;
  EncodeAdjacency(csr.offsets, csr.targets, &bytes);
  std::vector<uint64_t> offsets;
  std::vector<PaperId> targets;
  // Wrong edge totals (both directions).
  EXPECT_EQ(DecodeAdjacency(bytes, n, m + 1, &offsets, &targets).code(),
            StatusCode::kInvalidArgument);
  if (m > 0) {
    EXPECT_EQ(DecodeAdjacency(bytes, n, m - 1, &offsets, &targets).code(),
              StatusCode::kInvalidArgument);
  }
  // Wrong node count: decoded targets point past the claimed range.
  if (n > 1) {
    EXPECT_FALSE(DecodeAdjacency(bytes, 1, m, &offsets, &targets).ok());
  }
  // Trailing garbage after a valid stream.
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_EQ(DecodeAdjacency(padded, n, m, &offsets, &targets).code(),
            StatusCode::kInvalidArgument);
  // A node count so large the section cannot possibly hold it.
  EXPECT_EQ(DecodeAdjacency(bytes, bytes.size() + 1, m, &offsets, &targets)
                .code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------- reader fail-closed

StatusCode OpenCode(std::vector<uint8_t> bytes) {
  auto reader_or = SnapshotReader::FromBuffer(std::move(bytes));
  return reader_or.ok() ? StatusCode::kOk : reader_or.status().code();
}

TEST(SnapshotReaderTest, ValidImageOpens) {
  auto image = TestSnapshotImage(/*relabel=*/false);
  auto reader_or = SnapshotReader::FromBuffer(image);
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  EXPECT_TRUE(reader_or.value()->VerifyAllChecksums().ok());
  EXPECT_GT(reader_or.value()->num_papers(), 0u);
}

TEST(SnapshotReaderTest, TruncationAtEverySectionBoundaryFailsClosed) {
  auto image = TestSnapshotImage(/*relabel=*/false);
  SnapshotHeader header;
  std::memcpy(&header, image.data(), sizeof(header));

  // All header prefixes, and one byte past the header.
  std::vector<size_t> cuts;
  for (size_t len = 0; len <= kHeaderSize + 1; ++len) cuts.push_back(len);
  // Every section boundary +/- 1, and the TOC boundary.
  std::vector<SectionEntry> entries(header.section_count);
  std::memcpy(entries.data(), image.data() + header.toc_offset,
              header.toc_size);
  for (const SectionEntry& e : entries) {
    for (long d = -1; d <= 1; ++d) {
      cuts.push_back(static_cast<size_t>(e.offset + d));
      cuts.push_back(static_cast<size_t>(e.offset + e.size + d));
    }
  }
  cuts.push_back(header.toc_offset);
  cuts.push_back(header.toc_offset + 1);
  cuts.push_back(image.size() - 1);

  for (size_t cut : cuts) {
    if (cut >= image.size()) continue;
    std::vector<uint8_t> truncated(image.begin(), image.begin() + cut);
    EXPECT_EQ(OpenCode(std::move(truncated)), StatusCode::kInvalidArgument)
        << "cut at " << cut;
  }
}

TEST(SnapshotReaderTest, BadMagicAndVersionFailClosed) {
  auto image = TestSnapshotImage(/*relabel=*/false);
  {
    auto bad = image;
    bad[0] ^= 0xff;
    EXPECT_EQ(OpenCode(std::move(bad)), StatusCode::kInvalidArgument);
  }
  {
    auto bad = image;
    const uint32_t version = kVersion + 1;
    std::memcpy(bad.data() + offsetof(SnapshotHeader, version), &version,
                sizeof(version));
    // Version is checked before the header checksum so future formats
    // get a clear "unsupported version", not "corrupt".
    auto status_or = SnapshotReader::FromBuffer(std::move(bad));
    ASSERT_FALSE(status_or.ok());
    EXPECT_EQ(status_or.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status_or.status().ToString().find("version"),
              std::string::npos);
  }
}

TEST(SnapshotReaderTest, HeaderAndTocChecksumFlipsFailClosed) {
  auto image = TestSnapshotImage(/*relabel=*/false);
  {
    // Flip a covered header byte (num_papers) without fixing the sum.
    auto bad = image;
    bad[offsetof(SnapshotHeader, num_papers)] ^= 0x01;
    EXPECT_EQ(OpenCode(std::move(bad)), StatusCode::kInvalidArgument);
  }
  {
    // Flip one TOC byte.
    SnapshotHeader header;
    std::memcpy(&header, image.data(), sizeof(header));
    auto bad = image;
    bad[header.toc_offset] ^= 0x01;
    EXPECT_EQ(OpenCode(std::move(bad)), StatusCode::kInvalidArgument);
  }
}

TEST(SnapshotReaderTest, SectionChecksumFlipFailsClosedUnlessDisabled) {
  auto image = TestSnapshotImage(/*relabel=*/false);
  SnapshotHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  std::vector<SectionEntry> entries(header.section_count);
  std::memcpy(entries.data(), image.data() + header.toc_offset,
              header.toc_size);
  // Corrupt the first byte of the graph section.
  for (const SectionEntry& e : entries) {
    if (e.id != static_cast<uint32_t>(SectionId::kGraphOut)) continue;
    auto bad = image;
    bad[e.offset] ^= 0x01;
    EXPECT_EQ(OpenCode(bad), StatusCode::kInvalidArgument);
    // With checksums off the reader admits the bytes; the decoders must
    // still fail closed (ServingState validates structure).
    SnapshotReaderOptions lax;
    lax.verify_checksums = false;
    auto reader_or = SnapshotReader::FromBuffer(std::move(bad), lax);
    EXPECT_TRUE(reader_or.ok());
    return;
  }
  FAIL() << "graph section not found";
}

/// Every bank query answers bit-identically on `a` and `b`.
void ExpectSameAnswers(const ServingState& a, const ServingState& b) {
  const auto& bank = TestWorkbench().bank();
  for (size_t i = 0; i < bank.size(); ++i) {
    const std::string& query = bank.Get(i).query;
    auto ra = a.repager().Generate(query);
    auto rb = b.repager().Generate(query);
    ASSERT_EQ(ra.ok(), rb.ok()) << query;
    if (!ra.ok()) continue;
    EXPECT_EQ(ra->path.nodes(), rb->path.nodes()) << query;
    EXPECT_EQ(ra->path.edges(), rb->path.edges()) << query;
    EXPECT_EQ(ra->initial_seeds, rb->initial_seeds) << query;
    EXPECT_EQ(ra->terminals, rb->terminals) << query;
    EXPECT_EQ(ra->subgraph_nodes, rb->subgraph_nodes) << query;
    EXPECT_EQ(ra->subgraph_edges, rb->subgraph_edges) << query;
    EXPECT_EQ(a.repager().Rank(query, {}).value(),
              b.repager().Rank(query, {}).value())
        << query;
  }
}

/// Files from older writers carry the retired embedding sections. They
/// still open, and the pipeline they serve never reads those bytes: its
/// answers equal the current layout's bit for bit.
TEST(SnapshotReaderTest, OldLayoutImageServesIdentically) {
  const std::vector<uint8_t> current = TestSnapshotImage(/*relabel=*/false);
  std::vector<uint8_t> old_layout = WithRetiredSections(current);
  ASSERT_GT(old_layout.size(), current.size());
  auto reader_or = SnapshotReader::FromBuffer(old_layout);
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  EXPECT_TRUE(reader_or.value()->HasSection(SectionId::kRetiredEmbeddings));

  auto old_or = ServingState::LoadFromBuffer(std::move(old_layout));
  auto new_or = ServingState::LoadFromBuffer(current);
  ASSERT_TRUE(old_or.ok()) << old_or.status().ToString();
  ASSERT_TRUE(new_or.ok()) << new_or.status().ToString();
  ExpectSameAnswers(*old_or.value(), *new_or.value());
}

/// Load releases the mapping's resident pages once Build has decoded
/// every section. The mapping stays usable — the full checksum pass
/// faults its pages back in from the file — and the state answers
/// exactly like one decoded from the same bytes in memory.
TEST(SnapshotReaderTest, LoadReleasesPagesAndServesLikeBuffer) {
  auto file_or = ServingState::Load(TestSnapshotPath(/*relabel=*/false));
  auto buffer_or =
      ServingState::LoadFromBuffer(TestSnapshotImage(/*relabel=*/false));
  ASSERT_TRUE(file_or.ok()) << file_or.status().ToString();
  ASSERT_TRUE(buffer_or.ok()) << buffer_or.status().ToString();
  EXPECT_TRUE(file_or.value()->reader().VerifyAllChecksums().ok());
  ExpectSameAnswers(*file_or.value(), *buffer_or.value());
}

/// Retired sections are never decoded, but their bytes are still
/// checksummed at open like every other section's.
TEST(SnapshotReaderTest, RetiredSectionByteFlipFailsClosed) {
  const std::vector<uint8_t> image =
      WithRetiredSections(TestSnapshotImage(/*relabel=*/false));
  int flipped = 0;
  for (const SectionEntry& e : TocOf(image)) {
    if (e.id != static_cast<uint32_t>(SectionId::kRetiredEmbedMeta) &&
        e.id != static_cast<uint32_t>(SectionId::kRetiredEmbeddings)) {
      continue;
    }
    ASSERT_GT(e.size, 0u);
    auto bad = image;
    bad[e.offset + e.size / 2] ^= 0x01;
    EXPECT_EQ(OpenCode(bad), StatusCode::kInvalidArgument) << e.id;
    auto state_or = ServingState::LoadFromBuffer(std::move(bad));
    ASSERT_FALSE(state_or.ok()) << e.id;
    EXPECT_EQ(state_or.status().code(), StatusCode::kInvalidArgument);
    ++flipped;
  }
  EXPECT_EQ(flipped, 2);
}

/// The Eq. (2) con table is a required section, validated at load: it
/// is never recounted, so a file without a usable table must not serve.
/// Each case fails with InvalidArgument naming the section.
void ExpectEdgeConRejected(std::vector<uint8_t> image,
                           const SnapshotReaderOptions& options) {
  auto state_or = ServingState::LoadFromBuffer(std::move(image), options);
  ASSERT_FALSE(state_or.ok());
  EXPECT_EQ(state_or.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(state_or.status().ToString().find("edge_con"), std::string::npos)
      << state_or.status().ToString();
}

/// Where the current test image keeps its con table.
SectionEntry EdgeConEntry(const std::vector<uint8_t>& image) {
  for (const SectionEntry& e : TocOf(image)) {
    if (e.id == static_cast<uint32_t>(SectionId::kEdgeCon)) return e;
  }
  ADD_FAILURE() << "edge_con section not found";
  return {};
}

/// A file from a writer that predates the section (its TOC entry
/// dropped, everything resealed) is rejected, not recounted.
TEST(SnapshotReaderTest, EdgeConMissingFailsClosed) {
  const std::vector<uint8_t> image = TestSnapshotImage(/*relabel=*/false);
  std::vector<SectionEntry> toc = TocOf(image);
  std::erase_if(toc, [](const SectionEntry& e) {
    return e.id == static_cast<uint32_t>(SectionId::kEdgeCon);
  });
  ASSERT_EQ(toc.size() + 1, TocOf(image).size());
  ExpectEdgeConRejected(WithToc(image, toc), {});
}

/// One byte short of num_edges, with a valid checksum over what is left.
TEST(SnapshotReaderTest, EdgeConWrongSizeFailsClosed) {
  const std::vector<uint8_t> image = TestSnapshotImage(/*relabel=*/false);
  std::vector<SectionEntry> toc = TocOf(image);
  for (SectionEntry& e : toc) {
    if (e.id != static_cast<uint32_t>(SectionId::kEdgeCon)) continue;
    ASSERT_GT(e.size, 0u);
    e.size -= 1;
    e.checksum = Fnv1a64(image.data() + e.offset, e.size);
  }
  ExpectEdgeConRejected(WithToc(image, toc), {});
}

/// A count outside [1, kConCap] would index past the cost table; with
/// checksums off it reaches the decoder, which must refuse it.
TEST(SnapshotReaderTest, EdgeConOutOfRangeFailsClosed) {
  const std::vector<uint8_t> image = TestSnapshotImage(/*relabel=*/false);
  const SectionEntry con = EdgeConEntry(image);
  ASSERT_GT(con.size, 0u);
  SnapshotReaderOptions lax;
  lax.verify_checksums = false;
  for (uint8_t bad : {uint8_t{0}, uint8_t{rank::WeightModel::kConCap + 1}}) {
    auto bytes = image;
    bytes[con.offset + con.size / 2] = bad;
    ExpectEdgeConRejected(std::move(bytes), lax);
  }
}

/// The engine derives its citation maximum and year range from the
/// per-paper years and in-degrees; kEngineMeta's copies are written for
/// provenance only. A file whose stored values would switch the citation
/// boost off and invert the year range, resealed with valid checksums,
/// answers exactly like the honest file.
TEST(SnapshotReaderTest, ForgedEngineAggregatesAreIgnored) {
  const std::vector<uint8_t> image = TestSnapshotImage(/*relabel=*/false);
  std::vector<uint8_t> forged = image;
  std::vector<SectionEntry> toc = TocOf(image);
  int found = 0;
  for (SectionEntry& e : toc) {
    if (e.id != static_cast<uint32_t>(SectionId::kEngineMeta)) continue;
    ASSERT_GE(e.size, 16u);
    const uint64_t max_citations = 0;
    const int32_t min_year = 2010;
    const int32_t max_year = 1990;
    std::memcpy(forged.data() + e.offset, &max_citations, 8);
    std::memcpy(forged.data() + e.offset + 8, &min_year, 4);
    std::memcpy(forged.data() + e.offset + 12, &max_year, 4);
    e.checksum = Fnv1a64(forged.data() + e.offset, e.size);
    ++found;
  }
  ASSERT_EQ(found, 1);
  ASSERT_NE(forged, image);
  auto forged_or =
      ServingState::LoadFromBuffer(WithToc(std::move(forged), toc));
  auto honest_or = ServingState::LoadFromBuffer(image);
  ASSERT_TRUE(forged_or.ok()) << forged_or.status().ToString();
  ASSERT_TRUE(honest_or.ok()) << honest_or.status().ToString();
  ExpectSameAnswers(*forged_or.value(), *honest_or.value());
}

TEST(SnapshotReaderTest, TocLiesFailClosed) {
  auto image = TestSnapshotImage(/*relabel=*/false);
  SnapshotHeader header;
  std::memcpy(&header, image.data(), sizeof(header));

  // Helper: rewrite header fields and re-seal the header checksum so the
  // lie survives step 1 and must be caught by the later checks.
  auto reseal = [&](SnapshotHeader h, std::vector<uint8_t> bytes) {
    h.header_checksum =
        Fnv1a64(&h, offsetof(SnapshotHeader, header_checksum));
    std::memcpy(bytes.data(), &h, sizeof(h));
    return bytes;
  };

  {
    auto h = header;
    h.toc_offset = image.size() + 8;  // past EOF
    EXPECT_EQ(OpenCode(reseal(h, image)), StatusCode::kInvalidArgument);
  }
  {
    auto h = header;
    h.section_count = kMaxSections + 1;
    EXPECT_EQ(OpenCode(reseal(h, image)), StatusCode::kInvalidArgument);
  }
  {
    auto h = header;
    h.toc_size += sizeof(SectionEntry);  // count/size disagree
    EXPECT_EQ(OpenCode(reseal(h, image)), StatusCode::kInvalidArgument);
  }
  {
    // Section offset past EOF: patch one TOC entry and re-seal the TOC
    // checksum (header stays valid).
    auto bad = image;
    std::vector<SectionEntry> entries(header.section_count);
    std::memcpy(entries.data(), bad.data() + header.toc_offset,
                header.toc_size);
    entries[0].offset = (image.size() + 8) & ~7ull;
    std::memcpy(bad.data() + header.toc_offset, entries.data(),
                header.toc_size);
    auto h = header;
    h.toc_checksum = Fnv1a64(bad.data() + h.toc_offset, h.toc_size);
    EXPECT_EQ(OpenCode(reseal(h, std::move(bad))),
              StatusCode::kInvalidArgument);
  }
  {
    // Misaligned section offset.
    auto bad = image;
    std::vector<SectionEntry> entries(header.section_count);
    std::memcpy(entries.data(), bad.data() + header.toc_offset,
                header.toc_size);
    entries[0].offset += 1;
    std::memcpy(bad.data() + header.toc_offset, entries.data(),
                header.toc_size);
    auto h = header;
    h.toc_checksum = Fnv1a64(bad.data() + h.toc_offset, h.toc_size);
    EXPECT_EQ(OpenCode(reseal(h, std::move(bad))),
              StatusCode::kInvalidArgument);
  }
  {
    // Duplicate section id.
    auto bad = image;
    std::vector<SectionEntry> entries(header.section_count);
    std::memcpy(entries.data(), bad.data() + header.toc_offset,
                header.toc_size);
    ASSERT_GE(entries.size(), 2u);
    entries[1].id = entries[0].id;
    std::memcpy(bad.data() + header.toc_offset, entries.data(),
                header.toc_size);
    auto h = header;
    h.toc_checksum = Fnv1a64(bad.data() + h.toc_offset, h.toc_size);
    EXPECT_EQ(OpenCode(reseal(h, std::move(bad))),
              StatusCode::kInvalidArgument);
  }
}

/// ServingState over a checksum-disabled reader must still reject
/// structurally corrupt sections (the fuzz harness drives this path).
TEST(SnapshotReaderTest, ServingStateFailsClosedOnCorruptSections) {
  auto image = TestSnapshotImage(/*relabel=*/false);
  SnapshotHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  std::vector<SectionEntry> entries(header.section_count);
  std::memcpy(entries.data(), image.data() + header.toc_offset,
              header.toc_size);
  SnapshotReaderOptions lax;
  lax.verify_checksums = false;
  Rng rng(123);
  int rejected = 0, accepted = 0;
  for (const SectionEntry& e : entries) {
    if (e.size == 0) continue;
    auto bad = image;
    bad[e.offset + rng.NextBounded(e.size)] ^= 0x40;
    auto state_or = ServingState::LoadFromBuffer(std::move(bad), lax);
    // Either the corruption was structural (rejected with a typed error)
    // or it landed in payload values (loads fine) — never a crash/OOB.
    if (state_or.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(state_or.status().code(), StatusCode::kInvalidArgument);
      ++rejected;
    }
  }
  EXPECT_GT(rejected + accepted, 0);
}

}  // namespace
}  // namespace rpg::snapshot
