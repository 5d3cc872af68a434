#ifndef RPG_SERVE_METRICS_H_
#define RPG_SERVE_METRICS_H_

/// \file
/// Live metrics for the serving layer: named monotonic counters and
/// latency/value histograms, serializable to JSON for `GET /api/stats`.
///
/// Ownership / thread-safety model:
///  - Counter increments are lock-free (std::atomic, relaxed — the stats
///    endpoint needs freshness, not a consistent cross-counter snapshot).
///  - Histogram observations take a per-histogram mutex; observations are
///    ~ns next to the multi-ms requests they measure.
///  - GetCounter()/GetHistogram() return stable pointers (node-based
///    map, registry mutex only on first registration); hot paths resolve
///    their instruments once and keep the pointer.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"

namespace rpg::serve {

/// A named monotonic counter.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A named signed gauge (goes up AND down): open connections, in-flight
/// request backlog, queue depths.
class Gauge {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A mutex-guarded histogram with fixed bucket edges (common/histogram).
class MetricHistogram {
 public:
  explicit MetricHistogram(std::vector<double> edges)
      : histogram_(std::move(edges)) {}

  void Observe(double value) {
    std::lock_guard<std::mutex> lock(mu_);
    histogram_.Add(value);
  }

  /// Copy of the underlying histogram for consistent reads.
  Histogram Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return histogram_;
  }

 private:
  mutable std::mutex mu_;
  Histogram histogram_;
};

/// Log-spaced bucket edges for latencies in milliseconds, 1 µs .. 100 s
/// (4 buckets per decade). The 1 µs floor sits below an in-engine cache
/// hit (~3 µs), so hit quantiles interpolate inside a bucket instead of
/// clamping to the first edge; the ceiling is far above a full solve.
std::vector<double> LatencyBucketEdgesMs();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter named `name`, creating it at 0 on first use.
  /// The pointer stays valid for the registry's lifetime.
  Counter* GetCounter(const std::string& name);

  /// Returns the gauge named `name`, creating it at 0 on first use.
  Gauge* GetGauge(const std::string& name);

  /// Returns the histogram named `name`, creating it with `edges` on
  /// first use (later calls ignore `edges`).
  MetricHistogram* GetHistogram(const std::string& name,
                                const std::vector<double>& edges);

  /// Serializes every instrument:
  ///   {"counters":{name:value,...},
  ///    "gauges":{name:value,...},
  ///    "histograms":{name:{"count","mean","p50","p90","p99",
  ///                        "underflow","overflow",
  ///                        "buckets":[{"le","label","count"},...]},...}}
  /// Each bucket entry carries its numeric upper edge (`le`), a
  /// human-readable "lo-hi" `label`, and its `count`; zero-count
  /// buckets are omitted to keep /api/stats compact. With
  /// underflow/overflow included the full distribution is
  /// reconstructable.
  std::string ToJson() const;

  /// Renders every instrument in Prometheus text exposition format
  /// (version 0.0.4) for `GET /metrics`: counters and gauges as single
  /// samples, histograms as cumulative `_bucket{le="..."}` series plus
  /// `_sum`/`_count` (see obs/prometheus.h for the line grammar). Every
  /// name is prefixed with `prefix` + '_' and sanitized to the
  /// Prometheus charset.
  std::string ToPrometheus(const std::string& prefix) const;

 private:
  /// The instrument pointers in name order, copied under mu_.
  struct Instruments {
    std::vector<std::pair<std::string, const Counter*>> counters;
    std::vector<std::pair<std::string, const Gauge*>> gauges;
    std::vector<std::pair<std::string, const MetricHistogram*>> histograms;
  };
  Instruments ListInstruments() const;

  mutable std::mutex mu_;
  // std::map: stable node addresses + deterministic JSON field order.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, MetricHistogram> histograms_;
};

}  // namespace rpg::serve

#endif  // RPG_SERVE_METRICS_H_
