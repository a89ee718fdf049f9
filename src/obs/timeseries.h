// Fixed-memory time-series telemetry: periodically samples selected
// MetricRegistry instruments (plus process RSS) along sim-time into
// ring-buffered series, so hour-long soak runs can be trended without the
// memory footprint growing with the horizon.
//
// Each TimeSeries keeps two rings:
//
//   * a raw head — the most recent samples at full resolution;
//   * a downsampled history — older samples folded into min/max/sum/count
//     bins. When the history ring fills, adjacent bins merge pairwise and
//     the bin stride doubles, so total retained memory stays constant no
//     matter how long the run is (sample count is preserved: bins merge,
//     they never drop).
//
// On top of the retained window every series derives trend state on the
// fly: an EWMA, the all-time min/max envelope, and a least-squares slope
// over the retained bins (what the "rss slope ~ 0" memory-flatness SLO
// evaluates).
//
// The TelemetryRecorder owns one series per tracked probe (gauge value,
// counter per-interval rate with reset clamping, or process RSS). Probes
// cache their instrument pointers and all rings are preallocated, so a
// SampleNow() tick performs zero heap allocations. A run that wants no
// telemetry creates no recorder.
#ifndef SNAPQ_OBS_TIMESERIES_H_
#define SNAPQ_OBS_TIMESERIES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/node_id.h"
#include "obs/metric_registry.h"

namespace snapq::obs {

/// One downsampled bucket of a series: the envelope and mass of the
/// samples it absorbed over [t_first, t_last].
struct SeriesBin {
  Time t_first = 0;
  Time t_last = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  uint64_t count = 0;

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Absorbs `other` (envelope union, mass addition, time-range union).
  void Merge(const SeriesBin& other);
  static SeriesBin FromSample(Time t, double value) {
    return SeriesBin{t, t, value, value, value, 1};
  }
};

/// Most recent samples a series keeps at full resolution.
inline constexpr size_t kSeriesRawCapacity = 128;
/// Downsampled bins a series keeps behind the raw head.
inline constexpr size_t kSeriesHistoryCapacity = 128;
/// EWMA smoothing factor in (0, 1]; higher tracks faster.
inline constexpr double kSeriesEwmaAlpha = 0.1;

/// A fixed-memory series of (sim-time, value) samples. All storage is
/// allocated at construction; Push never allocates.
class TimeSeries {
 public:
  TimeSeries();

  void Push(Time t, double value);

  // -- All-time aggregates (survive downsampling untouched) -----------------
  uint64_t num_samples() const { return num_samples_; }
  double last() const { return last_; }
  Time last_time() const { return last_time_; }
  double ewma() const { return ewma_; }
  double min_seen() const { return num_samples_ == 0 ? 0.0 : min_; }
  double max_seen() const { return num_samples_ == 0 ? 0.0 : max_; }
  double mean() const {
    return num_samples_ == 0 ? 0.0
                             : sum_ / static_cast<double>(num_samples_);
  }

  // -- Retained window -------------------------------------------------------
  /// Bins oldest -> newest: downsampled history first, then the raw head
  /// (raw bins have count 1).
  size_t num_bins() const { return hist_size_ + raw_size_; }
  const SeriesBin& bin(size_t i) const;
  /// Raw evictions a full history bin spans (doubles on each compaction).
  size_t history_stride() const { return bin_stride_; }
  /// Start of the oldest retained bin (0 when empty).
  Time retained_since() const;

  /// Least-squares slope (value units per sim-time tick) of the retained
  /// bin means; 0 with fewer than two bins. This is what memory-flatness
  /// SLOs evaluate ("proc.rss_kb slope <= x").
  double Slope() const;

 private:
  void EvictOldestRaw();
  void CompactHistory();
  SeriesBin& HistAt(size_t i) { return hist_[(hist_start_ + i) % hist_.size()]; }
  const SeriesBin& HistAt(size_t i) const {
    return hist_[(hist_start_ + i) % hist_.size()];
  }

  std::vector<SeriesBin> raw_;  // ring of kSeriesRawCapacity
  size_t raw_start_ = 0;
  size_t raw_size_ = 0;
  std::vector<SeriesBin> hist_;  // ring of kSeriesHistoryCapacity
  std::vector<uint32_t> hist_slots_;  // raw evictions each bin absorbed
  size_t hist_start_ = 0;
  size_t hist_size_ = 0;
  size_t bin_stride_ = 1;

  uint64_t num_samples_ = 0;
  double last_ = 0.0;
  Time last_time_ = 0;
  double ewma_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Probe slots a TelemetryRecorder preallocates at construction; Track*
/// calls beyond this are a programmer error (series pointers must stay
/// stable).
inline constexpr size_t kMaxTelemetrySeries = 32;

struct TelemetryConfig {
  /// Sim-time ticks between samples (the SensorNetwork scheduling hook and
  /// the per-interval counter rates both use it).
  Time sample_interval = 10;
  /// Where the blackbox dump goes when a watchdog rule fires; empty
  /// disables dumping (SensorNetwork wiring).
  std::string blackbox_path;
  /// The "benchmark" attribution stamped into blackbox dumps.
  std::string blackbox_label = "sensor_network";
};

/// Samples a fixed set of probes into one TimeSeries each.
class TelemetryRecorder {
 public:
  TelemetryRecorder(const TelemetryConfig& config, MetricRegistry* registry);
  ~TelemetryRecorder();
  TelemetryRecorder(const TelemetryRecorder&) = delete;
  TelemetryRecorder& operator=(const TelemetryRecorder&) = delete;

  // Probe registration. The returned series pointer is stable for the
  // recorder's lifetime. Registering the same name twice returns the
  // existing series.

  /// Samples the gauge's current value under the gauge's name.
  TimeSeries* TrackGauge(const std::string& name);
  /// Samples the counter's per-interval delta as "<name>.rate". Deltas are
  /// clamped at zero so a counter reset (warm restart, registry Reset)
  /// yields a flat interval instead of an underflowed spike.
  TimeSeries* TrackCounterRate(const std::string& name);
  /// Samples this process's current resident set as "proc.rss_kb"
  /// (/proc/self/statm via a kept-open fd — no allocation per sample;
  /// falls back to the getrusage peak where /proc is unavailable).
  TimeSeries* TrackRss();
  /// Samples every probe at sim-time `t`. Zero heap allocations (rings
  /// are preallocated).
  void SampleNow(Time t);

  size_t num_series() const { return probes_.size(); }
  const TimeSeries* series(std::string_view name) const;
  uint64_t num_samples() const { return num_samples_; }
  const TelemetryConfig& config() const { return config_; }

  /// Visits (name, series) pairs in registration order.
  template <typename Fn>
  void ForEachSeries(Fn&& fn) const {
    for (const Probe& probe : probes_) fn(probe.name, probe.series);
  }

 private:
  struct Probe {
    enum class Kind { kGauge, kCounterRate, kRss };
    std::string name;
    Kind kind = Kind::kGauge;
    const Gauge* gauge = nullptr;
    const Counter* counter = nullptr;
    uint64_t prev = 0;  // counter value at the previous sample
    TimeSeries series;
  };

  TimeSeries* AddProbe(Probe probe);
  double ReadRssKb() const;

  TelemetryConfig config_;
  MetricRegistry* registry_;
  std::vector<Probe> probes_;  // reserved to kMaxTelemetrySeries: stable
  uint64_t num_samples_ = 0;
  int statm_fd_ = -1;
  double page_kb_ = 4.0;
};

}  // namespace snapq::obs

#endif  // SNAPQ_OBS_TIMESERIES_H_
