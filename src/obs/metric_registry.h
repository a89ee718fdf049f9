// The metric registry: named counters, gauges and log-bucketed histograms,
// optionally labeled by node ("election.messages_sent{node=17}"). The
// registry is the single source of truth for experiment accounting — the
// simulator's Metrics object is a thin façade over it, protocol layers
// register their own instruments, and the exporters (ToJson/ToCsv, bench
// sidecar files) read it back out.
//
// Design constraints, in order:
//  * hot-path cost: callers cache the Counter*/Gauge* returned by Get* at
//    registration time, so a counted event is one pointer-indirect
//    increment — no map lookup, no allocation, no branch on an "enabled"
//    flag;
//  * stable handles: instruments live in node-based maps, so pointers stay
//    valid for the registry's lifetime no matter how many instruments are
//    registered later;
//  * cross-run aggregation: MergeFrom() folds another registry in
//    (counters and histogram buckets add, gauges keep the maximum — a
//    high-watermark, which is what per-node message bounds need);
//  * one histogram: LogHistogram, whose buckets are fixed by the value
//    alone, so no call site chooses bounds and every merge is
//    bucket-exact. The accuracy auditor and the churn tracker use the same
//    class outside the registry.
//
// Phase accounting (what one experiment phase cost) is the simulator
// Metrics façade's Snapshot()/Delta(); the registry only accumulates.
// Nothing it holds comes from a clock, so every exported value is a
// function of the seed and the input.
//
// Not thread-safe: the simulator is single-threaded by design; parallel
// experiment runs each own a registry and merge afterwards. The merge
// itself is kept deterministic by the sink indirection below: a trial
// merges into MetricSink() — normally GlobalMetrics(), but exec::
// ParallelMap installs a thread-local per-task registry via
// ScopedMetricSink and folds the task sinks into the ambient sink in
// task-index order after the join, so a --jobs N sweep produces
// bit-identical aggregates to the serial run.
#ifndef SNAPQ_OBS_METRIC_REGISTRY_H_
#define SNAPQ_OBS_METRIC_REGISTRY_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "net/node_id.h"

namespace snapq::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void Inc(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

/// Point-in-time value (sizes, per-phase totals, high-watermarks).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  /// Keeps the larger of the current and proposed value.
  void SetMax(double v) {
    if (v > value_) value_ = v;
  }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Log-bucketed histogram with exact count/sum/min/max and percentile
/// estimates accurate to one bucket (buckets grow by 2^(1/4) ~ 19%, so a
/// reported p50/p95/p99 is within 19% of the exact order statistic, and
/// exact for single-valued buckets). Fixed memory (~1.7 KB, the
/// quantile-sketch lineage of Medians and Beyond and HDR histograms), no
/// sorting; values outside the covered range saturate into the edge
/// buckets (never UB).
class LogHistogram {
 public:
  /// Sub-buckets per power of two.
  static constexpr int kSubBuckets = 4;
  /// Smallest resolvable value: 2^kMinExp. Anything below (including 0
  /// and negatives) lands in the underflow bucket 0.
  static constexpr int kMinExp = -10;
  /// Largest resolvable value: 2^kMaxExp. Anything above saturates into
  /// the top bucket (max() stays exact).
  static constexpr int kMaxExp = 40;
  static constexpr int kNumBuckets =
      (kMaxExp - kMinExp) * kSubBuckets + 1;  // +1 underflow

  LogHistogram() = default;

  void Observe(double v);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double min_seen() const { return count_ == 0 ? 0.0 : min_; }
  double max_seen() const { return count_ == 0 ? 0.0 : max_; }

  /// Estimated value at percentile `pct` in [0, 100]: walks the buckets
  /// to the target rank and interpolates inside the bucket, clamped to
  /// [min_seen, max_seen] (a single sample is therefore exact). Empty
  /// histogram: 0.
  double Percentile(double pct) const;

  /// Bucket i covers [LowerBound(i), UpperBound(i)); bucket 0 starts at 0
  /// and the top bucket absorbs everything >= 2^kMaxExp.
  static double BucketLowerBound(int index);
  static double BucketUpperBound(int index);
  static int BucketIndex(double v);

  const std::array<uint64_t, static_cast<size_t>(kNumBuckets)>& buckets()
      const {
    return buckets_;
  }

  /// Adds `other`'s observations. Bucket-exact: merging then reading
  /// percentiles equals bucketing the concatenated samples.
  void MergeFrom(const LogHistogram& other);
  void Reset();

 private:
  std::array<uint64_t, static_cast<size_t>(kNumBuckets)> buckets_{};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Canonical flattened instrument name: `name` alone, or "name{node=17}"
/// for node-labeled instruments. Used by the exporters.
std::string LabeledName(const std::string& name, NodeId node);

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Instrument registration. Returns a stable handle; repeated calls with
  // the same name (and node) return the same instrument. Cache the pointer
  // on hot paths.
  Counter* GetCounter(const std::string& name);
  Counter* GetCounter(const std::string& name, NodeId node);
  Gauge* GetGauge(const std::string& name);
  Gauge* GetGauge(const std::string& name, NodeId node);
  LogHistogram* GetHistogram(const std::string& name);

  /// Folds `other` in: counters and histograms add, gauges keep the max.
  void MergeFrom(const MetricRegistry& other);

  /// Zeroes every instrument; registrations (and handed-out pointers)
  /// stay valid.
  void Reset();

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {"count":..,"sum":..,"max":..,"buckets":[[lower,upper,n],..]}}},
  /// listing a histogram's non-empty buckets only, each [lower, upper).
  std::string ToJson() const;
  /// One instrument per line: kind,name,value (histograms emit count, sum,
  /// max and one "name{ge=lower;lt=upper}" line per non-empty bucket).
  std::string ToCsv() const;

  size_t num_instruments() const;

 private:
  // std::map keeps element addresses stable across inserts.
  std::map<std::string, Counter> counters_;
  std::map<std::string, std::map<NodeId, Counter>> node_counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, std::map<NodeId, Gauge>> node_gauges_;
  std::map<std::string, LogHistogram> histograms_;
};

/// Process-wide registry for cross-run aggregation: experiment drivers
/// merge each trial's simulator registry here, and the bench harness dumps
/// it into the `*.metrics.json` sidecar at exit.
MetricRegistry& GlobalMetrics();

/// Where trial results should merge: the innermost ScopedMetricSink on
/// this thread, or GlobalMetrics() when none is installed. Trial code
/// (RunSensitivityTrial, bench driver bodies) must merge through this so
/// parallel sweeps can capture per-task results and reduce them in a
/// deterministic order.
MetricRegistry& MetricSink();

/// RAII: installs `sink` as this thread's metric sink (nullptr restores
/// the GlobalMetrics() fallback) for the scope's lifetime.
class ScopedMetricSink {
 public:
  explicit ScopedMetricSink(MetricRegistry* sink);
  ~ScopedMetricSink();
  ScopedMetricSink(const ScopedMetricSink&) = delete;
  ScopedMetricSink& operator=(const ScopedMetricSink&) = delete;

 private:
  MetricRegistry* saved_;
};

}  // namespace snapq::obs

#endif  // SNAPQ_OBS_METRIC_REGISTRY_H_
