// The hot-path profiler: log-bucketed latency histograms with fixed
// memory (fed by obs::Span's CPU+wall phase timing) and operation
// counters for the rates the ROADMAP's perf work cares about (messages
// simulated/sec, model fits/sec, election rounds/sec). Complements the
// MetricRegistry the same way a sampling profiler complements accounting
// ledgers:
//
//  * the registry is per-simulation and answers "how many protocol
//    messages did this trial send" — experiment semantics;
//  * the profiler is process-wide and answers "how fast does the
//    simulator itself run" — engine performance, fed into BENCH.json by
//    the snapq_bench harness.
//
// Design constraints, in order:
//  * disabled cost: instrumentation sites call Profiler::Active(), a
//    single relaxed pointer load; when no profiler is enabled that is the
//    entire cost — no allocation, no lock, no histogram touch (enforced
//    by the allocation-counting test, like the tracer's);
//  * enabled cost: counters are fixed arrays indexed by enum (one add),
//    histograms are fixed arrays bucketed with frexp (no log call, no
//    sorting, no allocation ever after construction);
//  * fixed memory: a LogHistogram is ~1.7 KB regardless of how many
//    observations it absorbs (quantile-sketch style: Medians and Beyond /
//    HDR histogram lineage).
//
// Thread-safety: unlike MetricRegistry (whose parallel story is the
// per-task sink indirection), the profiler is a process-wide singleton
// that worker threads hit concurrently during a --jobs N sweep. Counters
// are relaxed atomics (a relaxed fetch_add is as cheap as the plain add
// was on x86/ARM, and the final counts are exact regardless of
// interleaving); RecordPhase takes a mutex, which is fine because phases
// fire at most a few thousand times per experiment. Enable/Disable flip
// an atomic pointer. Readers (ToTable/ExportTo) are only called after
// workers join, so histogram reads need no lock.
#ifndef SNAPQ_OBS_PROFILER_H_
#define SNAPQ_OBS_PROFILER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

namespace snapq::obs {

class MetricRegistry;

/// Log-bucketed histogram with exact count/sum/min/max and percentile
/// estimates accurate to one bucket (buckets grow by 2^(1/4) ~ 19%, so a
/// reported p50/p95/p99 is within 19% of the exact order statistic, and
/// exact for single-valued buckets). Fixed memory, no sorting, values
/// outside the covered range saturate into the edge buckets (never UB).
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

/// Hot-path operations the profiler counts. Fixed enum (not strings) so a
/// count is one array add — extend here when instrumenting a new path.
enum class HotOp : uint8_t {
  kMessagesSent = 0,   ///< Simulator::Send transmissions
  kMessagesDelivered,  ///< addressed deliveries (handler ran or dropped)
  kMessagesSnooped,    ///< overheard unicasts
  kCacheOps,           ///< cache-maintenance CPU charges
  kModelFits,          ///< RegressionStats::Fit calls (every LS fit)
  kElectionRounds,     ///< RunGlobalElection invocations
  kMaintenanceRounds,  ///< MaintenanceDriver rounds
  kQueriesExecuted,    ///< QueryExecutor::ExecuteRegion rounds
  kCount
};
constexpr size_t kNumHotOps = static_cast<size_t>(HotOp::kCount);
/// Stable snake_case name ("messages_sent"), used in BENCH.json and the
/// registry export.
const char* HotOpName(HotOp op);

/// Coarse phases timed by obs::Span (obs/span.h), which feeds the wall and
/// thread-CPU histograms below. Kept to phases that run at most a few
/// thousand times per experiment so the two clock reads per side stay
/// invisible.
enum class ProfPhase : uint8_t {
  kElection = 0,
  kMaintenanceRound,
  kQueryExecution,
  kNetworkBuild,  ///< deployment wiring incl. the link-model/index build
  kCount
};
constexpr size_t kNumProfPhases = static_cast<size_t>(ProfPhase::kCount);
const char* ProfPhaseName(ProfPhase phase);

class Profiler {
 public:
  Profiler() { Reset(); }
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// The enabled profiler, or nullptr when profiling is off. This is the
  /// only call instrumentation sites make on the fast path.
  static Profiler* Active() { return active_.load(std::memory_order_relaxed); }
  /// The process-wide instance Enable() installs (exists even while
  /// disabled, so exporters and the shell can read the last session).
  static Profiler& Global();
  static void Enable() { active_.store(&Global(), std::memory_order_relaxed); }
  static void Disable() { active_.store(nullptr, std::memory_order_relaxed); }
  static bool enabled() { return Active() != nullptr; }

  void Count(HotOp op, uint64_t delta = 1) {
    counters_[static_cast<size_t>(op)].fetch_add(delta,
                                                 std::memory_order_relaxed);
  }
  uint64_t count(HotOp op) const {
    return counters_[static_cast<size_t>(op)].load(std::memory_order_relaxed);
  }

  void RecordPhase(ProfPhase phase, double wall_us, double cpu_us) {
    std::lock_guard<std::mutex> lock(phase_mutex_);
    wall_us_[static_cast<size_t>(phase)].Observe(wall_us);
    cpu_us_[static_cast<size_t>(phase)].Observe(cpu_us);
  }
  const LogHistogram& wall_us(ProfPhase phase) const {
    return wall_us_[static_cast<size_t>(phase)];
  }
  const LogHistogram& cpu_us(ProfPhase phase) const {
    return cpu_us_[static_cast<size_t>(phase)];
  }

  /// Wall seconds since the last Reset() — the denominator for rates.
  double ElapsedSeconds() const;
  /// count(op) / ElapsedSeconds() (0 before any time has passed).
  double Rate(HotOp op) const;

  /// Zeroes counters and histograms and restarts the rate epoch.
  void Reset();

  /// Human-readable counter + phase-latency tables (the shell's \profile).
  std::string ToTable() const;

  /// Folds the profile into a registry: counters as
  /// "profiler.<op>" counters, phase percentiles as
  /// "profiler.<phase>.wall_us.p50" (p95/p99/max/count) gauges.
  void ExportTo(MetricRegistry* registry) const;

 private:
  static std::atomic<Profiler*> active_;

  std::array<std::atomic<uint64_t>, kNumHotOps> counters_{};
  mutable std::mutex phase_mutex_;
  std::array<LogHistogram, kNumProfPhases> wall_us_{};
  std::array<LogHistogram, kNumProfPhases> cpu_us_{};
  std::chrono::steady_clock::time_point epoch_{};
};

/// Counts `op` on the active profiler; a pointer load + branch when
/// profiling is disabled.
inline void ProfCount(HotOp op, uint64_t delta = 1) {
  if (Profiler* p = Profiler::Active()) p->Count(op, delta);
}

}  // namespace snapq::obs

#endif  // SNAPQ_OBS_PROFILER_H_
