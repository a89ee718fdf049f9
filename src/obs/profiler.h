// The hot-path profiler: process-wide operation counters (messages
// simulated, model fits, election rounds, ...). It reads no clock: a rate
// is the count divided by a time the caller measures (perfbench times its
// own runs). Complements the MetricRegistry the same way a sampling
// profiler complements accounting ledgers:
//
//  * the registry is per-simulation and answers "how many protocol
//    messages did this trial send" — experiment semantics;
//  * the profiler is process-wide and counts the work the simulator
//    itself does — fed into BENCH.json by the snapq_bench harness and
//    into perfbench's traced runs.
//
// Design constraints, in order:
//  * disabled cost: instrumentation sites call Profiler::Active(), a
//    single relaxed pointer load; when no profiler is enabled that is the
//    entire cost — no allocation, no lock (enforced by the
//    allocation-counting test, like the tracer's);
//  * enabled cost: counters are a fixed array indexed by enum (one add,
//    no allocation ever after construction).
//
// Thread-safety: unlike MetricRegistry (whose parallel story is the
// per-task sink indirection), the profiler is a process-wide singleton
// that worker threads hit concurrently during a --jobs N sweep. Counters
// are relaxed atomics (a relaxed fetch_add is as cheap as the plain add
// was on x86/ARM, and the final counts are exact regardless of
// interleaving). Enable/Disable flip an atomic pointer.
#ifndef SNAPQ_OBS_PROFILER_H_
#define SNAPQ_OBS_PROFILER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace snapq::obs {

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
/// Stable snake_case name ("messages_sent"), the BENCH.json counter key.
const char* HotOpName(HotOp op);

class Profiler {
 public:
  Profiler() { Reset(); }
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// The enabled profiler, or nullptr when profiling is off. This is the
  /// only call instrumentation sites make on the fast path.
  static Profiler* Active() { return active_.load(std::memory_order_relaxed); }
  /// The process-wide instance Enable() installs (exists even while
  /// disabled, so the shell and the harness can read the last session).
  static Profiler& Global();
  static void Enable() { active_.store(&Global(), std::memory_order_relaxed); }
  static void Disable() { active_.store(nullptr, std::memory_order_relaxed); }

  void Count(HotOp op, uint64_t delta = 1) {
    counters_[static_cast<size_t>(op)].fetch_add(delta,
                                                 std::memory_order_relaxed);
  }
  uint64_t count(HotOp op) const {
    return counters_[static_cast<size_t>(op)].load(std::memory_order_relaxed);
  }

  /// Zeroes the counters.
  void Reset();

  /// Human-readable counter table (the shell's \profile).
  std::string ToTable() const;

 private:
  static std::atomic<Profiler*> active_;

  std::array<std::atomic<uint64_t>, kNumHotOps> counters_{};
};

/// Counts `op` on the active profiler; a pointer load + branch when
/// profiling is disabled.
inline void ProfCount(HotOp op, uint64_t delta = 1) {
  if (Profiler* p = Profiler::Active()) p->Count(op, delta);
}

}  // namespace snapq::obs

#endif  // SNAPQ_OBS_PROFILER_H_
