// The phase timer. A Span measures one occurrence of a ProfPhase (an
// election round, a maintenance tick, a query execution, a network build)
// and, when it ends, feeds every sink from one wall-clock reading:
//
//   {
//     obs::Span span(&sim.registry(), obs::ProfPhase::kElection);
//     span.BeginSim(sim.now());
//     ... run the phase ...
//     span.EndSim(sim.now());
//   }  // records "election.wall_us" and "election.sim_ticks"
//
//  * the registry (when non-null): "<name>.wall_us" always, and
//    "<name>.sim_ticks" when both BeginSim and EndSim were called
//    (simulated phases advance the event queue, wall-only phases do not);
//  * the tracer (AttachTrace): a kPhase trace span named <name>;
//  * the profiler (when Profiler::Active() at construction): the phase's
//    wall and thread-CPU LogHistograms. A null registry still feeds it.
//
// <name> is Span::Name(phase). The thread-CPU clock is read only while the
// profiler is active; with neither a registry nor a profiler no clock is
// read at all.
#ifndef SNAPQ_OBS_SPAN_H_
#define SNAPQ_OBS_SPAN_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "net/trace_context.h"
#include "obs/metric_registry.h"
#include "obs/profiler.h"

namespace snapq::obs {

class Tracer;

class Span {
 public:
  /// Starts the clocks immediately. `registry` may be null.
  Span(MetricRegistry* registry, ProfPhase phase);

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Marks the simulated start/end time of the phase. Either call may be
  /// omitted; the sim-ticks histogram is only recorded when both were set.
  void BeginSim(int64_t sim_now);
  void EndSim(int64_t sim_now);

  /// Also records this phase into `tracer` as a kPhase trace span under
  /// `ctx` when the span ends (needs both BeginSim and EndSim marks).
  /// Null tracer or unsampled ctx: no-op.
  void AttachTrace(Tracer* tracer, const TraceContext& ctx);

  /// Records into the sinks early; the destructor then does nothing.
  void End();

  ~Span() { End(); }

  /// The registry/trace name of `phase` ("election", "maintenance.tick",
  /// "query.execute", "network_build"): the prefix of its histograms and
  /// the name of its kPhase trace span.
  static const char* Name(ProfPhase phase);

  /// Default bucket bounds (exposed so tests and dashboards agree).
  static const std::vector<double>& WallMicrosBounds();
  static const std::vector<double>& SimTicksBounds();

 private:
  MetricRegistry* registry_;
  Profiler* profiler_;
  ProfPhase phase_;
  Tracer* tracer_ = nullptr;
  TraceContext trace_ctx_{};
  std::chrono::steady_clock::time_point wall_start_{};
  double cpu_start_us_ = 0.0;
  int64_t sim_start_ = 0;
  int64_t sim_end_ = 0;
  bool sim_start_set_ = false;
  bool sim_end_set_ = false;
  bool ended_ = false;
};

}  // namespace snapq::obs

#endif  // SNAPQ_OBS_SPAN_H_
