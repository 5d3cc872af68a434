#ifndef RPG_COMMON_RNG_H_
#define RPG_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rpg {

/// Deterministic pseudo-random generator (xoshiro256**). Every randomized
/// component in the library takes an explicit seed so experiments are
/// reproducible run-to-run; std::mt19937 distributions are avoided because
/// their outputs differ across standard library implementations.
class Rng {
 public:
  /// Seeds the state via SplitMix64 so any 64-bit seed (including 0)
  /// yields a well-mixed state.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, n). n must be > 0.
  uint64_t NextBounded(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Bernoulli trial with probability p of returning true.
  bool Bernoulli(double p);

  /// Standard normal via Box-Muller (deterministic, caches the spare).
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64).
  uint64_t Poisson(double mean);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (uint64_t i = v->size() - 1; i > 0; --i) {
      uint64_t j = NextBounded(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Picks an index with probability proportional to weights[i]. Weights
  /// must be non-negative with a positive sum; otherwise returns 0.
  size_t WeightedIndex(const std::vector<double>& weights);

 private:
  uint64_t state_[4];
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace rpg

#endif  // RPG_COMMON_RNG_H_
