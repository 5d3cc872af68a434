#ifndef RPG_COMMON_HISTOGRAM_H_
#define RPG_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace rpg {

/// Fixed-bucket histogram over arbitrary (possibly unequal) bucket edges.
/// Used for the SurveyBank distribution figures (Fig. 4), whose x-axes use
/// irregular ranges such as 0-5, 5-10, 10-100, 100-500, ..., and for the
/// serving-layer latency metrics (serve::MetricsRegistry), which need the
/// Quantile() estimate below.
class Histogram {
 public:
  /// `edges` are the bucket boundaries; bucket i covers [edges[i],
  /// edges[i+1]). Values below the first edge or at/above the last are
  /// counted in underflow/overflow. Requires strictly increasing edges
  /// with at least two entries.
  explicit Histogram(std::vector<double> edges);

  void Add(double value);
  void AddCount(double value, uint64_t count);

  size_t num_buckets() const { return edges_.size() - 1; }
  uint64_t bucket_count(size_t i) const { return counts_[i]; }
  /// Lower/upper edge of bucket i (bucket i covers [lower, upper)).
  double bucket_lower_edge(size_t i) const { return edges_[i]; }
  double bucket_upper_edge(size_t i) const { return edges_[i + 1]; }
  uint64_t underflow() const { return underflow_; }
  uint64_t overflow() const { return overflow_; }
  uint64_t total() const;

  /// "lo-hi" label for bucket i: integral edges render without
  /// decimals, others with two (one significant digit below 0.01).
  std::string BucketLabel(size_t i) const;

  /// Fraction of total mass in bucket i (0 when empty).
  double BucketFraction(size_t i) const;

  double mean() const;

  /// Sum of all observed values (exact, not bucket-approximated) — the
  /// `_sum` series of the Prometheus exposition.
  double sum() const { return sum_; }

  /// Estimated q-quantile (q in [0, 1]) assuming mass is uniform within
  /// each bucket (linear interpolation between the bucket edges).
  /// Underflow mass is treated as sitting at the first edge and overflow
  /// mass at the last, so extreme quantiles stay finite but are clamped —
  /// size the edges so the tail you care about is inside them. Edge
  /// cases are pinned by tests/serve/metrics_test.cc: an empty histogram
  /// returns 0 for every q, and a single-observation histogram returns
  /// that observation exactly (no within-bucket interpolation).
  double Quantile(double q) const;

 private:
  std::vector<double> edges_;
  std::vector<uint64_t> counts_;
  uint64_t underflow_ = 0;
  uint64_t overflow_ = 0;
  double sum_ = 0.0;
  uint64_t n_ = 0;
};

}  // namespace rpg

#endif  // RPG_COMMON_HISTOGRAM_H_
