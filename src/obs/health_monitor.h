// Snapshot health monitoring: turns point-in-time protocol state samples
// into registry gauges and journal events so dashboards (and the shell's
// \health command) can watch representation quality drift:
//
//   health.coverage          fraction of live nodes that are ACTIVE or
//                            PASSIVE (i.e. inside the snapshot);
//   health.violation_rate    model violations detected since the previous
//                            sample (per-epoch rate);
//   health.reelection_rate   local re-elections since the previous sample;
//   health.spurious_reps     spurious representation entries right now;
//   health.model_staleness   mean ticks since a representative last
//                            observed each member it represents.
//
// The monitor lives in obs and consumes plain HealthSample values; the
// snapshot layer fills them in (snapshot/health_probe.h) so obs stays
// free of protocol dependencies.
#ifndef SNAPQ_OBS_HEALTH_MONITOR_H_
#define SNAPQ_OBS_HEALTH_MONITOR_H_

#include <cstdint>
#include <string>

#include "net/node_id.h"
#include "obs/gauge_pack.h"
#include "obs/journal.h"
#include "obs/metric_registry.h"

namespace snapq::obs {

/// One point-in-time observation of snapshot health.
struct HealthSample {
  uint64_t num_nodes = 0;
  uint64_t num_live = 0;
  uint64_t num_active = 0;     ///< representatives
  uint64_t num_passive = 0;    ///< represented nodes
  uint64_t num_undefined = 0;  ///< live nodes outside the snapshot
  uint64_t num_spurious = 0;   ///< stale representation entries
  /// Cumulative protocol counters at sample time (monitor differences
  /// successive samples to derive rates).
  uint64_t violations = 0;
  uint64_t reelections = 0;
  /// Mean ticks since a representative last observed each represented
  /// member (0 when nothing is represented).
  double mean_model_staleness = 0.0;
};

class SnapshotHealthMonitor {
 public:
  /// Gauges are registered on `registry` immediately; `journal` (optional)
  /// receives one "health.sample" event per Observe call.
  explicit SnapshotHealthMonitor(MetricRegistry* registry,
                                 EventJournal* journal = nullptr);

  /// Ingests a sample taken at sim-time `t`.
  void Observe(const HealthSample& sample, Time t);

  uint64_t num_samples() const { return num_samples_; }
  Time last_time() const { return last_time_; }

  /// Derived values of the most recent sample.
  double coverage() const;
  double violation_rate() const { return violation_rate_; }
  double reelection_rate() const { return reelection_rate_; }

  /// One-screen summary (shell `\health`).
  std::string ToString() const;

 private:
  /// Slots of gauges_ (published in Observe).
  enum Slot : size_t {
    kCoverage = 0,
    kViolationRate,
    kReelectionRate,
    kSpurious,
    kStaleness,
  };

  EventJournal* journal_;
  GaugePack gauges_;
  Counter* samples_counter_;
  HealthSample last_;
  Time last_time_ = 0;
  uint64_t num_samples_ = 0;
  double violation_rate_ = 0.0;
  double reelection_rate_ = 0.0;
};

}  // namespace snapq::obs

#endif  // SNAPQ_OBS_HEALTH_MONITOR_H_
