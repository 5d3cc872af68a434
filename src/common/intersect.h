#ifndef RPG_COMMON_INTERSECT_H_
#define RPG_COMMON_INTERSECT_H_

/// \file
/// Sorted-set intersection kernels for the Eq. (2) common-neighbor
/// counting hot path (ROADMAP item 4; see docs/benchmarks.md
/// "BENCH_intersect.json").
///
/// Contract shared by every kernel in this file:
///  - inputs are spans of uint32 ids, sorted ascending, duplicate-free
///    (the CSR adjacency invariant of graph::CitationGraph);
///  - the return value is exactly min(|a ∩ b|, cap) — the cap is a
///    *semantic clamp*, not just an optimization hint, so callers like
///    rank::WeightModel::Con can stop a two-phase count the moment the
///    budget is exhausted and still get order-independent results;
///  - cap == 0 returns 0 without touching the inputs.
/// Because every kernel computes the same min(|a ∩ b|, cap), they are
/// freely interchangeable; tests/common/intersect_test.cc holds each of
/// them to a std::set_intersection oracle across size ratios 1:1..1:1e4
/// and exhaustive boundary cases.
///
/// Kernel selection (CountCommon) is by size ratio: galloping wins when
/// one side is much shorter than the other (O(|small| log |large|)),
/// the branch-light blocked merge wins for comparable sizes
/// (O(|a| + |b|), cmov-friendly inner loop, cap checked once per
/// block). The dense NeighborBitmap path is for callers that probe many
/// lists against one fixed high-degree node: stamp once, O(|probe|)
/// per count (rank::ConScratch builds these per subgraph row).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rpg::intersect {

/// The blocked-merge kernel re-checks the cap only every kBlockSize
/// steps so its inner loop stays branch-light; exposed for the
/// boundary-case tests (lengths around every multiple ± 1).
inline constexpr size_t kBlockSize = 64;

/// CountCommon dispatches to galloping when the longer input is at
/// least this many times the shorter one. Measured crossover on the
/// capped Eq. (2) workload (bench/bench_intersect.cpp): galloping
/// already wins at 1:4 and is ~400x ahead by 1:10^4, while below 1:4
/// the blocked merge and gallop are within noise of each other.
inline constexpr size_t kGallopRatio = 4;

/// Textbook two-pointer merge — the readable baseline every other
/// kernel is differentially tested against (besides the std oracle).
size_t CountCommonMerge(std::span<const uint32_t> a,
                        std::span<const uint32_t> b, size_t cap);

/// Galloping (exponential-probe + binary-search) intersection for
/// skewed sizes: walks the smaller span element-by-element and gallops
/// through the larger one. O(|small| · log(|large| / |small|)).
/// Works for any sizes, but only pays off when |a| ≪ |b|.
size_t CountCommonGallop(std::span<const uint32_t> small,
                         std::span<const uint32_t> large, size_t cap);

/// Branch-light merge: the inner loop advances both cursors with
/// comparison masks instead of an unpredictable three-way branch
/// (compiles to cmov/setcc; no per-element cap branch), and the cap is
/// enforced between kBlockSize-step blocks.
size_t CountCommonBlocked(std::span<const uint32_t> a,
                          std::span<const uint32_t> b, size_t cap);

/// Adaptive dispatcher: picks galloping vs blocked merge from the size
/// ratio. This is the kernel WeightModel::Con uses for the scratch-free
/// path.
size_t CountCommon(std::span<const uint32_t> a, std::span<const uint32_t> b,
                   size_t cap);

/// Dense bit-set over a node universe [0, n) for repeated intersections
/// against one fixed "stamped" set: Stamp(list) once, then
/// CountCommon(probe, cap) is O(|probe|) regardless of the stamped
/// list's length. Unstamp(list) with the SAME list returns the bitmap
/// to all-zeros in O(|list|), so a long-lived bitmap (one per
/// rank::ConScratch / core::QueryScratch) never pays an O(n) clear
/// between sources.
class NeighborBitmap {
 public:
  NeighborBitmap() = default;

  /// Grows the universe to at least n ids; new words are zero. Never
  /// shrinks, so scratch reuse across graphs of different sizes is
  /// allocation-free after the largest one.
  void EnsureUniverse(size_t n);

  size_t universe_bits() const { return words_.size() * 64; }

  /// Sets the bit of every id in `list`. Ids must be < universe.
  void Stamp(std::span<const uint32_t> list);

  /// Clears the bits of every id in `list` — the exact inverse of
  /// Stamp(list). Pass the same list that was stamped.
  void Unstamp(std::span<const uint32_t> list);

  bool Test(uint32_t v) const {
    return (words_[v >> 6] >> (v & 63)) & 1u;
  }

  /// min(|stamped ∩ probe|, cap) by probing each element of `probe`.
  /// Same cap semantics as the span kernels.
  size_t CountCommon(std::span<const uint32_t> probe, size_t cap) const;

 private:
  std::vector<uint64_t> words_;
};

}  // namespace rpg::intersect

#endif  // RPG_COMMON_INTERSECT_H_
