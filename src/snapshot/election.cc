#include "snapshot/election.h"

#include <algorithm>

#include "common/check.h"
#include "obs/profiler.h"
#include "obs/span.h"

namespace snapq {

SnapshotView CaptureSnapshot(
    const std::vector<std::unique_ptr<SnapshotAgent>>& agents) {
  std::vector<SnapshotView::NodeInfo> infos;
  infos.reserve(agents.size());
  for (const auto& agent : agents) {
    infos.push_back(agent->Info());
  }
  return SnapshotView(std::move(infos));
}

ElectionStats SummarizeSnapshot(
    Simulator& sim,
    const std::vector<std::unique_ptr<SnapshotAgent>>& agents) {
  const SnapshotView view = CaptureSnapshot(agents);
  ElectionStats stats;
  stats.num_active = view.CountActive();
  stats.num_passive = view.CountPassive();
  stats.num_undefined = view.CountUndefined();
  stats.num_spurious = view.CountSpurious();

  size_t live = 0;
  uint64_t total_msgs = 0;
  uint64_t max_msgs = 0;
  for (const auto& agent : agents) {
    if (!sim.alive(agent->id())) continue;
    ++live;
    const uint64_t sent = sim.messages_sent_by(agent->id());
    total_msgs += sent;
    max_msgs = std::max(max_msgs, sent);
  }
  if (live > 0) {
    stats.avg_messages_per_node =
        static_cast<double>(total_msgs) / static_cast<double>(live);
  }
  stats.max_messages_per_node = static_cast<double>(max_msgs);
  return stats;
}

ElectionStats RunGlobalElection(
    Simulator& sim,
    const std::vector<std::unique_ptr<SnapshotAgent>>& agents, Time t0,
    const SnapshotConfig& config) {
  SNAPQ_CHECK_GE(t0, sim.now());
  obs::ProfCount(obs::HotOp::kElectionRounds);
  obs::Span span(sim.registry(), obs::ProfPhase::kElection);
  span.BeginSim(t0);
  sim.journal().Emit("election.start", t0, [&](obs::JournalEvent& e) {
    e.Int("nodes", static_cast<int64_t>(agents.size()));
  });
  // Root cause: the whole discovery (every invitation, candidate list and
  // refinement message) hangs off this trace.
  const TraceContext root =
      sim.MintTraceRoot(obs::TraceRootKind::kElection, kInvalidNode);
  span.AttachTrace(sim.tracer(), root);
  {
    Simulator::TraceScope scope(sim, root);
    sim.ScheduleAt(t0, [&sim] { sim.ResetPerNodeCounters(); });
    for (const auto& agent : agents) {
      agent->BeginElection(t0);
    }
  }
  // Refinement ends by the Rule-4 hard cap; two extra units cover in-flight
  // acknowledgments scheduled on the final tick.
  const Time bound = t0 + 3 + config.max_wait + config.rule4_hard_cap + 2;
  sim.RunUntil(bound);
  span.EndSim(sim.now());

  const ElectionStats stats = SummarizeSnapshot(sim, agents);

  // Per-node election cost (the paper's §4 bound: at most 6 messages per
  // node). Gauges so a later election overwrites, and so cross-run merges
  // keep the high-watermark; the histogram accumulates the distribution.
  obs::MetricRegistry& reg = sim.registry();
  reg.GetCounter("election.runs")->Inc();
  obs::Histogram* per_node = reg.GetHistogram(
      "election.messages_per_node", {0, 1, 2, 3, 4, 5, 6, 8, 12, 16});
  for (const auto& agent : agents) {
    if (!sim.alive(agent->id())) continue;
    const double sent =
        static_cast<double>(sim.messages_sent_by(agent->id()));
    reg.GetGauge("election.messages_sent", agent->id())->Set(sent);
    per_node->Observe(sent);
  }
  reg.GetGauge("election.snapshot_size")
      ->Set(static_cast<double>(stats.num_active));

  sim.journal().Emit("election.done", sim.now(), [&](obs::JournalEvent& e) {
    e.Int("active", static_cast<int64_t>(stats.num_active))
        .Int("passive", static_cast<int64_t>(stats.num_passive))
        .Int("undefined", static_cast<int64_t>(stats.num_undefined))
        .Int("spurious", static_cast<int64_t>(stats.num_spurious))
        .Num("avg_messages_per_node", stats.avg_messages_per_node)
        .Num("max_messages_per_node", stats.max_messages_per_node);
  });
  return stats;
}

}  // namespace snapq
