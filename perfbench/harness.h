// Benchmark-side helpers: the sample-count rule, success accounting,
// /proc/self/status readers, an in-memory span recorder with self-time
// analysis, and the result printer. Order statistics come from
// snapq::SampleSet and seeds from snapq::Rng; the workloads (workloads.h)
// time calls into the libraries from the outside.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"

namespace perfbench {

// -- Sample counts ------------------------------------------------------------

/// Samples that lie above the `pct` percentile in a set of `n`:
/// floor(n * (100 - pct) / 100). Percentiles themselves are
/// snapq::SampleSet's (linear between the closest ranks).
size_t SamplesBeyond(size_t n, double pct);

// -- Success accounting -------------------------------------------------------

/// Counts attempted operations and the ones that failed a check.
class OkCounter {
 public:
  void Record(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// Succeeded / attempted in percent; 0 when nothing was attempted.
  double ok_pct() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// -- Process memory -------------------------------------------------------------

/// The kB value of `key` ("VmHWM", "VmRSS", ...) in /proc/<pid>/status text.
std::optional<int64_t> ParseStatusKb(std::string_view status,
                                     std::string_view key);

/// Reads `key` from this process's /proc/self/status; nullopt when the file
/// or the key is unavailable.
std::optional<int64_t> ReadStatusKb(std::string_view key);

// -- Clocks and seeds ----------------------------------------------------------

/// Monotonic wall clock in nanoseconds.
int64_t NowNs();
/// CPU time of this process in nanoseconds.
int64_t CpuNs();

/// A 64-bit value derived from (seed, stream): the same pair always yields
/// the same value, different streams are independent.
uint64_t DeriveSeed(uint64_t seed, std::string_view stream);

/// FNV-1a over the outcome values fed to it, for run-to-run comparison.
class Digest {
 public:
  void Add(uint64_t v);
  void Add(double v);
  std::string Hex() const;

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

// -- Host speed --------------------------------------------------------------

/// The speed of the host right now, measured by a fixed probe that shares
/// no code with snapq. On a shared machine the wall time of the same work
/// drifts by up to ~80% over seconds to minutes, as other tenants load the
/// memory system, so a run's wall-clock median lands wherever the host
/// happened to be. The benchmark runs the probe right after every timed
/// unit and set-up and divides each duration by the median of the last
/// kWindow readings: a slower program still reads slower, a slower host
/// does not.
///
/// The probe is a small discrete-event simulation: a binary-heap event
/// queue over a 65,536-node random graph of degree 12 and an
/// open-addressed table of per-link values, 4.5 MB in all. It allocates
/// nothing, and a reading is its second pass, so the data sits in the
/// last-level cache whatever the program touched before: the reading
/// depends on the host, not on the program's heap or working set.
class HostSpeed {
 public:
  /// Probe readings whose median is the current reference.
  static constexpr size_t kWindow = 9;
  /// About what a reading takes on the tuning host (4-vCPU KVM guest,
  /// Xeon Sapphire Rapids) when that host runs fast. A normalised duration
  /// reads as the wall time on such a host.
  static constexpr double kReferenceNs = 750e3;

  HostSpeed();

  /// Runs the probe and adds its reading to the window.
  void Probe();
  /// Adds one reading, in ns, to the window (Probe's last step).
  void Record(double reading_ns);
  /// The median of the last kWindow readings, in ns.
  double CurrentNs() const;
  /// `duration` (any unit) scaled to the reference host's speed.
  double Normalize(double duration) const {
    return duration * kReferenceNs / CurrentNs();
  }
  /// Every reading so far, in ns.
  const snapq::SampleSet& readings() const { return readings_; }

  /// One pass of the probe's work; returns its wall time in ns.
  int64_t TimeEventQueue();

 private:
  struct Event {
    double t;
    uint32_t node;
  };
  std::vector<uint32_t> adjacency_;  ///< a fixed degree per node
  std::vector<double> state_;
  std::vector<Event> events_;
  std::vector<uint64_t> link_keys_;  ///< 0 marks a free slot
  std::vector<double> link_values_;
  std::deque<double> window_;
  snapq::SampleSet readings_;
  uint64_t sink_ = 0;  ///< keeps the work observable
};

// -- Spans ---------------------------------------------------------------------

/// One timed call. `parent` indexes the enclosing span (-1 at the root);
/// `unit` is the id of the timed unit or query the call belongs to.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t unit = -1;
};

/// Records spans in memory. Spans nest by scope: Begin() parents the new
/// span under the innermost open one.
class SpanRecorder {
 public:
  int Begin(const char* name, int64_t unit);
  void End(int id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one JSON object per span; false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int64_t unit = -1)
      : recorder_(recorder),
        id_(recorder == nullptr ? -1 : recorder->Begin(name, unit)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children may overlap each other
/// or stick out of the parent; only the covered part inside counts).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Per-name span statistics.
struct SpanSummary {
  snapq::SampleSet durations_ms;  ///< one per span
  double total_ms = 0.0;
};
std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<Span>& spans);

// -- Result printing -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples the value rests on.
  size_t samples = 0;
  /// Why the metric is zero or how it was derived, printed beside it.
  std::string note;
};

/// The benchmark's last stdout line: {"correct": .., "attempted": ..,
/// "failed": .., "metrics": {name: {"value": .., "unit": ..}}}.
std::string ResultJson(const std::vector<Metric>& metrics,
                       const OkCounter& ok);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
