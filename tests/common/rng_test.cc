#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace rpg {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ZeroSeedStillMixes) {
  Rng r(0);
  std::set<uint64_t> values;
  for (int i = 0; i < 50; ++i) values.insert(r.Next());
  EXPECT_EQ(values.size(), 50u);
}

class RngBoundsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngBoundsTest, NextBoundedStaysInRange) {
  Rng r(GetParam());
  for (uint64_t n : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(r.NextBounded(n), n);
    }
  }
}

TEST_P(RngBoundsTest, UniformIntInclusiveRange) {
  Rng r(GetParam());
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = r.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST_P(RngBoundsTest, UniformDoubleInHalfOpenUnit) {
  Rng r(GetParam());
  for (int i = 0; i < 1000; ++i) {
    double v = r.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngBoundsTest,
                         ::testing::Values(1, 7, 42, 1234567, 0));

TEST(RngTest, NextBoundedOneAlwaysZero) {
  Rng r(9);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(r.NextBounded(1), 0u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng r(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.Bernoulli(0.0));
    EXPECT_TRUE(r.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng r(5);
  int heads = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) heads += r.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.02);
}

TEST(RngTest, NormalMomentsRoughlyCorrect) {
  Rng r(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = r.Normal(2.0, 3.0);
    sum += v;
    sum_sq += v * v;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(RngTest, PoissonSmallAndLargeMeans) {
  Rng r(19);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.Poisson(4.0));
  EXPECT_NEAR(sum / n, 4.0, 0.2);
  sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.Poisson(100.0));
  EXPECT_NEAR(sum / n, 100.0, 1.5);
  EXPECT_EQ(r.Poisson(0.0), 0u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng r(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  r.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleEmptyAndSingleton) {
  Rng r(31);
  std::vector<int> empty;
  r.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one = {42};
  r.Shuffle(&one);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng r(37);
  std::vector<double> weights = {0.0, 10.0, 0.0, 1.0};
  int counts[4] = {0, 0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[r.WeightedIndex(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 10.0 / 11.0, 0.02);
}

TEST(RngTest, WeightedIndexDegenerateInputs) {
  Rng r(41);
  EXPECT_EQ(r.WeightedIndex({0.0, 0.0}), 0u);
  EXPECT_EQ(r.WeightedIndex({5.0}), 0u);
  // Negative weights are treated as zero.
  EXPECT_EQ(r.WeightedIndex({-1.0, 3.0}), 1u);
}

}  // namespace
}  // namespace rpg
