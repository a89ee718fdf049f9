#include "obs/span.h"

#include <gtest/gtest.h>

#include "obs/tracer.h"
#include "sim/simulator.h"

namespace snapq::obs {
namespace {

TEST(ObsSpanTest, RecordsWallTimeOnDestruction) {
  MetricRegistry reg;
  { Span span(reg, ProfPhase::kQueryExecution); }
  // No sim marks -> no sim-ticks histogram: the wall one is all there is.
  EXPECT_EQ(reg.num_instruments(), 1u);
  EXPECT_EQ(reg.GetHistogram("query.execute.wall_us", Span::WallMicrosBounds())
                ->count(),
            1u);
}

TEST(ObsSpanTest, RecordsSimTicksWhenBothMarksSet) {
  MetricRegistry reg;
  {
    Span span(reg, ProfPhase::kElection);
    span.BeginSim(100);
    span.EndSim(142);
  }
  const Histogram* h =
      reg.GetHistogram("election.sim_ticks", Span::SimTicksBounds());
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(h->sum(), 42.0);
}

TEST(ObsSpanTest, ExplicitEndIsIdempotent) {
  MetricRegistry reg;
  Span span(reg, ProfPhase::kElection);
  span.BeginSim(0);
  span.EndSim(7);
  span.End();
  span.End();  // second call (and the destructor) must not double-record
  EXPECT_EQ(
      reg.GetHistogram("election.sim_ticks", Span::SimTicksBounds())->count(),
      1u);
  EXPECT_EQ(
      reg.GetHistogram("election.wall_us", Span::WallMicrosBounds())->count(),
      1u);
}

TEST(ObsSpanTest, MatchesSimulatorClockAcrossAPhase) {
  // Drive a real simulator and check the span's sim-ticks equals the
  // event-queue time that actually elapsed.
  Simulator sim({{0.0, 0.0}, {1.0, 0.0}}, {1.5, 1.5}, SimConfig{});
  {
    Span span(sim.registry(), ProfPhase::kMaintenanceRound);
    span.BeginSim(sim.now());
    sim.ScheduleAt(25, [] {});
    sim.RunUntil(30);
    span.EndSim(sim.now());
  }
  Histogram* h = sim.registry().GetHistogram("maintenance.tick.sim_ticks",
                                             Span::SimTicksBounds());
  EXPECT_EQ(h->count(), 1u);
  EXPECT_DOUBLE_EQ(h->sum(), 30.0);
}

TEST(ObsSpanTest, NamesKeepTheRegistryAndTraceKeys) {
  // .metrics.json keys and .trace.json phase names.
  EXPECT_STREQ(Span::Name(ProfPhase::kElection), "election");
  EXPECT_STREQ(Span::Name(ProfPhase::kMaintenanceRound), "maintenance.tick");
  EXPECT_STREQ(Span::Name(ProfPhase::kQueryExecution), "query.execute");
}

TEST(ObsSpanTest, OneSpanFeedsRegistryAndTracer) {
  MetricRegistry reg;
  Tracer tracer;
  const TraceContext root =
      tracer.StartTrace(TraceRootKind::kElection, kInvalidNode, 10);
  {
    Span span(reg, ProfPhase::kElection);
    span.AttachTrace(&tracer, root);
    span.BeginSim(10);
    span.EndSim(16);
  }
  EXPECT_EQ(
      reg.GetHistogram("election.wall_us", Span::WallMicrosBounds())->count(),
      1u);
  EXPECT_EQ(
      reg.GetHistogram("election.sim_ticks", Span::SimTicksBounds())->sum(),
      6.0);
  size_t phases = 0;
  for (const TraceSpan& s : tracer.spans()) {
    if (s.kind != TraceSpanKind::kPhase) continue;
    ++phases;
    EXPECT_EQ(s.name, "election");
    EXPECT_EQ(s.start, 10);
    EXPECT_EQ(s.end, 16);
  }
  EXPECT_EQ(phases, 1u);
}

TEST(ObsSpanTest, TraceSpanNeedsBothSimMarks) {
  // A wall-only phase still lands in the registry but has no simulated
  // interval to put on the trace.
  MetricRegistry reg;
  Tracer tracer;
  const TraceContext root =
      tracer.StartTrace(TraceRootKind::kElection, kInvalidNode, 10);
  {
    Span span(reg, ProfPhase::kElection);
    span.AttachTrace(&tracer, root);
    span.BeginSim(10);
  }
  EXPECT_EQ(
      reg.GetHistogram("election.wall_us", Span::WallMicrosBounds())->count(),
      1u);
  for (const TraceSpan& s : tracer.spans()) {
    EXPECT_NE(s.kind, TraceSpanKind::kPhase);
  }
}

}  // namespace
}  // namespace snapq::obs
