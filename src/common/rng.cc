#include "common/rng.h"

#include <cmath>

namespace rpg {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t n) {
  if (n == 0) return 0;
  // Lemire's unbiased bounded generation with rejection.
  uint64_t threshold = (~n + 1) % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Rng::UniformDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

bool Rng::Bernoulli(double p) { return UniformDouble() < p; }

double Rng::Normal(double mean, double stddev) {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u, v, s;
  do {
    u = UniformDouble(-1.0, 1.0);
    v = UniformDouble(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  double scale = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * scale;
  has_spare_normal_ = true;
  return mean + stddev * u * scale;
}

uint64_t Rng::Poisson(double mean) {
  if (mean <= 0.0) return 0;
  if (mean > 64.0) {
    double v = Normal(mean, std::sqrt(mean));
    return v <= 0.0 ? 0 : static_cast<uint64_t>(v + 0.5);
  }
  double limit = std::exp(-mean);
  double prod = UniformDouble();
  uint64_t k = 0;
  while (prod > limit) {
    prod *= UniformDouble();
    ++k;
  }
  return k;
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w > 0 ? w : 0;
  if (total <= 0.0) return 0;
  double target = UniformDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i] > 0 ? weights[i] : 0;
    if (target < acc) return i;
  }
  return weights.size() - 1;
}

}  // namespace rpg
