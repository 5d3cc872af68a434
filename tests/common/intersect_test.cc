// Property/differential suite for the sorted-set intersection kernels
// (ISSUE 9): every kernel — merge, gallop, blocked, adaptive — is held
// to a std::set_intersection oracle across size ratios from 1:1
// to 1:10^4, plus exhaustive boundary cases. The kernels' shared
// contract is that each returns EXACTLY min(|a ∩ b|, cap), so they are
// interchangeable inside rank::CountCon's two-phase capped count; a
// kernel that treats cap as a scan cutoff instead of a semantic clamp
// fails the cap-equivalence sweeps here before it can corrupt Eq. (2).

#include "common/intersect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace rpg::intersect {
namespace {

using List = std::vector<uint32_t>;

/// Ground truth: full std::set_intersection size, clamped afterwards.
size_t Oracle(const List& a, const List& b, size_t cap) {
  List out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return std::min(out.size(), cap);
}

/// Sorted duplicate-free list of `len` ids drawn from [0, universe).
List RandomSortedList(Rng* rng, size_t len, uint32_t universe) {
  List v;
  v.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    v.push_back(static_cast<uint32_t>(rng->NextBounded(universe)));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// Runs every kernel (both argument orders where the kernel allows it)
/// against the oracle for one (a, b, cap) instance.
void ExpectAllKernelsMatchOracle(const List& a, const List& b, size_t cap) {
  const size_t want = Oracle(a, b, cap);
  EXPECT_EQ(CountCommonMerge(a, b, cap), want) << "merge";
  EXPECT_EQ(CountCommonMerge(b, a, cap), want) << "merge swapped";
  EXPECT_EQ(CountCommonBlocked(a, b, cap), want) << "blocked";
  EXPECT_EQ(CountCommonBlocked(b, a, cap), want) << "blocked swapped";
  EXPECT_EQ(CountCommon(a, b, cap), want) << "adaptive";
  EXPECT_EQ(CountCommon(b, a, cap), want) << "adaptive swapped";
  // Gallop is documented for (small, large) but must be correct for any
  // ordering; exercise both.
  EXPECT_EQ(CountCommonGallop(a, b, cap), want) << "gallop";
  EXPECT_EQ(CountCommonGallop(b, a, cap), want) << "gallop swapped";
}

TEST(IntersectTest, ExhaustiveBoundaryCases) {
  const List empty;
  const List one = {5};
  const List other = {6};
  const List small = {1, 3, 5, 7, 9};
  const List disjoint = {0, 2, 4, 6, 8};
  const List identical = small;
  const List superset = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  for (size_t cap : {size_t{0}, size_t{1}, size_t{2}, size_t{100}}) {
    ExpectAllKernelsMatchOracle(empty, empty, cap);
    ExpectAllKernelsMatchOracle(empty, small, cap);
    ExpectAllKernelsMatchOracle(one, empty, cap);
    ExpectAllKernelsMatchOracle(one, one, cap);
    ExpectAllKernelsMatchOracle(one, other, cap);
    ExpectAllKernelsMatchOracle(small, disjoint, cap);
    ExpectAllKernelsMatchOracle(small, identical, cap);
    ExpectAllKernelsMatchOracle(small, superset, cap);
  }
}

TEST(IntersectTest, LengthsAroundBlockSizeMultiples) {
  // The blocked kernel re-checks the cap only at kBlockSize boundaries;
  // hit every length around the first few multiples (and the galloping
  // kernel's power-of-two probe offsets) from both sides.
  Rng rng(101);
  for (size_t base : {kBlockSize, 2 * kBlockSize, 3 * kBlockSize}) {
    for (size_t delta : {size_t{0}, size_t{1}, size_t{2}}) {
      for (size_t len : {base - delta, base + delta}) {
        List a = RandomSortedList(&rng, len, 4 * kBlockSize);
        List b = RandomSortedList(&rng, len / 2 + 1, 4 * kBlockSize);
        for (size_t cap :
             {size_t{0}, size_t{1}, size_t{7}, len, size_t{100000}}) {
          ExpectAllKernelsMatchOracle(a, b, cap);
        }
      }
    }
  }
}

TEST(IntersectTest, RandomSweepAcrossSizeRatios) {
  // |a| fixed small-ish, |b| swept from 1:1 to 1:10^4; overlap density
  // varied through the universe size. 10^4 covers the worst real skew
  // (a low-degree paper against a survey citing thousands).
  Rng rng(20240809);
  for (size_t ratio : {size_t{1}, size_t{3}, size_t{16}, size_t{100},
                       size_t{1000}, size_t{10000}}) {
    for (uint32_t universe : {64u, 2048u, 1u << 18}) {
      for (int trial = 0; trial < 6; ++trial) {
        size_t small_len = 1 + rng.NextBounded(25);
        size_t large_len = small_len * ratio;
        List a = RandomSortedList(&rng, small_len, universe);
        List b = RandomSortedList(&rng, large_len, universe);
        for (size_t cap : {size_t{1}, size_t{7}, size_t{1u << 30}}) {
          ExpectAllKernelsMatchOracle(a, b, cap);
        }
      }
    }
  }
}

TEST(IntersectTest, CapEquivalenceAgainstUncapped) {
  // For every cap c, every kernel must return min(uncapped, c) — the
  // early exit may change how much input is read, never the value.
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    List a = RandomSortedList(&rng, 1 + rng.NextBounded(201), 512);
    List b = RandomSortedList(&rng, 1 + rng.NextBounded(201), 512);
    const size_t full = Oracle(a, b, a.size() + b.size());
    for (size_t cap = 0; cap <= full + 2; ++cap) {
      ExpectAllKernelsMatchOracle(a, b, cap);
      EXPECT_EQ(CountCommon(a, b, cap), std::min(full, cap));
    }
  }
}

TEST(IntersectTest, AdaptiveDispatchCoversBothRegimes) {
  // Not a dispatch-internals test — just pins that the adaptive entry
  // point stays correct exactly at the documented ratio boundary.
  Rng rng(13);
  List a = RandomSortedList(&rng, 32, 1u << 16);
  for (size_t factor : {kGallopRatio - 1, kGallopRatio, kGallopRatio + 1}) {
    List b = RandomSortedList(&rng, a.size() * factor, 1u << 16);
    for (size_t cap : {size_t{3}, size_t{1u << 20}}) {
      EXPECT_EQ(CountCommon(a, b, cap), Oracle(a, b, cap));
      EXPECT_EQ(CountCommon(b, a, cap), Oracle(a, b, cap));
    }
  }
}

}  // namespace
}  // namespace rpg::intersect
